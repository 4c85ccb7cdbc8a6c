"""Exception taxonomy shared by all kvmix modules.

Every failure the library raises deliberately is a subclass of
:class:`KVMixError`, so callers can catch one type at an API boundary
(the CLI does exactly that to map failures onto exit codes).

check_count, check_real and check_array are the input contract of every
public function: a non-integral count, a scalar that is not a real number
(strings included) or an integer beyond float64, or a non-real,
non-finite or wrongly shaped array raises InvalidInput.
"""

import operator

import numpy as np

__all__ = [
    "KVMixError",
    "InvalidInput",
    "InvalidThresholds",
    "CorruptBuffer",
    "EmptyWindow",
    "NothingToFlush",
    "UndefinedMetric",
    "BudgetInfeasible",
    "UnsupportedFormat",
    "CorruptFile",
]


class KVMixError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(KVMixError, ValueError):
    """An argument violates a documented precondition."""


class InvalidThresholds(InvalidInput):
    """Tier thresholds are out of order (low cutoff above the full cutoff)."""


class CorruptBuffer(KVMixError, ValueError):
    """A packed code buffer's byte length is inconsistent with its header."""


class EmptyWindow(KVMixError, ValueError):
    """An importance score was requested before any query rows were seen."""


class NothingToFlush(KVMixError, RuntimeError):
    """flush() was called while the residual buffer is empty."""


class UndefinedMetric(KVMixError, RuntimeError):
    """A cache statistic was requested before any block has been flushed."""


class BudgetInfeasible(KVMixError, ValueError):
    """No frontier point satisfies the requested bit budget."""


class UnsupportedFormat(KVMixError, ValueError):
    """A tensor dump has an unknown magic tag or version."""


class CorruptFile(KVMixError, ValueError):
    """A tensor dump is truncated or internally inconsistent."""


def check_count(value, name: str, minimum: int) -> int:
    """`value` as an int; InvalidInput for a non-integer or one below `minimum`."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise InvalidInput(f"{name} must be at least {minimum}, got {count}")
    return count


def _parses_as_non_real(arr: np.ndarray) -> bool:
    """Whether `arr` holds text or complex numbers, which a float64 cast parses or truncates."""
    if arr.dtype.kind == "O":
        return any(isinstance(v, (str, bytes)) for v in arr.flat)
    return arr.dtype.kind in "USc"


def check_real(x, name: str) -> float:
    """`x` as a float; InvalidInput unless it is a real number.

    A numeric string, which float() would parse, is rejected too. NaN and
    the infinities pass; callers decide what they mean.
    """
    try:
        if _parses_as_non_real(np.asarray(x)):
            raise TypeError
        return float(x)
    except OverflowError:
        raise InvalidInput(f"{name} is an integer beyond the float64 range") from None
    except (TypeError, ValueError):
        raise InvalidInput(f"{name} must be a number, got {x!r}") from None


def check_array(x, name: str, ndim) -> np.ndarray:
    """`x` as a finite float64 array with `ndim` axes (an int or a tuple of ints).

    Raises InvalidInput when `x` does not convert, is or holds a string
    (even a numeric one) or a complex number, has another number of
    axes, or holds a NaN or an infinity.
    """
    try:
        arr = np.asarray(x)
        if arr.dtype != np.float64:
            if _parses_as_non_real(arr):
                raise TypeError
            arr = arr.astype(np.float64)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{name} must be numeric") from None
    if arr.ndim not in (ndim if isinstance(ndim, tuple) else (ndim,)):
        raise InvalidInput(f"{name} must have {ndim} axes, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contains non-finite elements")
    return arr
