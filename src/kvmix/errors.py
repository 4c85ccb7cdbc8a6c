"""Exception taxonomy shared by all kvmix modules.

Every failure the library raises deliberately is a KVMixError of one of
four kinds, InvalidInput, UndefinedMetric, BudgetInfeasible and
CorruptFile; each type's `category` and `exit_code` are what the CLI prints.

check_type, check_count, check_real, check_array and check_items are
the input contract of every public function: an argument of the wrong
type, a non-integral count, a scalar that is not a real number (strings
included), a NaN, an integer beyond float64 (an infinity passes), a non-real,
non-finite or wrongly shaped array, or a non-iterable collection raises
InvalidInput. A bool is not a number: no count, real or array check takes
True, False, a numpy bool, a bool array or a list holding a bool.
check_fields stores a frozen dataclass's fields through one of them.
"""

import operator

import numpy as np

__all__ = [
    "KVMixError",
    "InvalidInput",
    "UndefinedMetric",
    "BudgetInfeasible",
    "CorruptFile",
]


class KVMixError(Exception):
    """Base class for every error raised by this package."""
    category, exit_code = "failure", 1


class InvalidInput(KVMixError, ValueError):
    """An argument violates a documented precondition."""
    category, exit_code = "invalid-config", 2


class UndefinedMetric(KVMixError, RuntimeError):
    """A mean was requested over nothing: an accumulator's importance before
    any query row, or a cache's effective bit width before any token."""


class BudgetInfeasible(KVMixError, ValueError):
    """No frontier point satisfies the requested bit budget."""
    category = "budget-infeasible"


class CorruptFile(KVMixError, ValueError):
    """A tensor dump has an unknown magic, version or dtype code, or is
    truncated or internally inconsistent."""
    category = "bad-dump"


def check_type(x, name: str, cls: type):
    """`x` itself; InvalidInput unless it is an instance of `cls`."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InvalidInput(f"{name} must be {article} {cls.__name__}, got {type(x).__name__}")
    return x


def check_count(value, name: str, minimum: int) -> int:
    """`value` as an int; InvalidInput for a non-integer, a bool or one below `minimum`."""
    try:
        if isinstance(value, bool):  # numpy's bool has no __index__ already
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise InvalidInput(f"{name} must be at least {minimum}, got {count}")
    return count


def check_fields(obj, check, **args) -> None:
    """Store check(getattr(obj, name), name, arg) on each named field of `obj`, in order."""
    for name, arg in args.items():
        object.__setattr__(obj, name, check(getattr(obj, name), name, arg))


def check_items(x, name: str) -> tuple:
    """The items of `x` as a tuple; InvalidInput when `x` is not iterable."""
    try:
        return tuple(x)
    except TypeError:
        raise InvalidInput(f"{name} must be iterable, got {type(x).__name__}") from None


def _parses_as_non_real(x, arr: np.ndarray) -> bool:
    """Whether `arr`, np.asarray(x), holds what a float64 cast takes: text, bools, complex."""
    if arr.dtype.kind in "USbc":
        return True
    # numpy casts [0.5, True] to floats, so the items of a non-ndarray container are scanned
    scan = arr.dtype.kind == "O" or (arr.ndim > 0 and not isinstance(x, np.ndarray))
    return scan and any(isinstance(v, (str, bytes, bool, np.bool_)) for v in np.asarray(x, dtype=object).flat)


def check_real(x, name: str) -> float:
    """`x` as a float; InvalidInput unless it is a real number other than NaN.

    A numeric string or a bool, which float() would take, is rejected
    too. The infinities pass; callers decide what they mean.
    """
    try:
        if _parses_as_non_real(x, np.asarray(x)):
            raise TypeError
        value = float(x)
    except OverflowError:
        raise InvalidInput(f"{name} is an integer beyond the float64 range") from None
    except (TypeError, ValueError):
        raise InvalidInput(f"{name} must be a number, got {x!r}") from None
    if value != value:  # NaN, the one float unequal to itself; np.isnan costs 30 times more
        raise InvalidInput(f"{name} must not be NaN")
    return value


def check_array(x, name: str, ndim) -> np.ndarray:
    """`x` as a finite float64 array with `ndim` axes (an int or a tuple of ints).

    Raises InvalidInput when `x` does not convert, is or holds a string
    (even a numeric one), a bool or a complex number, has another number
    of axes, or holds a NaN or an infinity.
    """
    try:
        arr = np.asarray(x)
        if arr.dtype != np.float64 or not isinstance(x, np.ndarray):
            if _parses_as_non_real(x, arr):
                raise TypeError
            arr = arr.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{name} must be numeric") from None
    if arr.ndim not in (ndim if isinstance(ndim, tuple) else (ndim,)):
        raise InvalidInput(f"{name} must have {ndim} axes, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contains non-finite elements")
    return arr
