"""Precision-tier assignment of key channels, and the policies that drive it.

A flushed block's key channels are stored at 16, 4 or 2 bits. Four
policy kinds cover the method under study and its baselines:

- SALIENCE ranks channels by importance * sensitivity (the query-aware
  score), either thresholded or as a budgeted top-k;
- ERROR_ONLY ranks by sensitivity alone, ignoring the queries entirely
  (the magnitude-only ablation): salience with unit importance;
- FIXED_UNIFORM stores every channel at one width (2 or 4 bits), the
  uniform-quantization baseline run through the same cache machinery;
- FULL_PRECISION disables quantization altogether.

In threshold mode two thresholds cut a channel's score A_d into tiers:

    A_d >  tau_full            -> full precision (16-bit)
    tau_mid < A_d <= tau_full  -> 4-bit
    A_d <= tau_mid             -> 2-bit

Both comparisons against a threshold value itself resolve to the cheaper
tier: a channel sitting exactly on tau_full gets 4 bits, exactly on
tau_mid gets 2 bits.

Budgeted policies take (n_full, n_mid): the top n_full channels by the
policy's score go to 16-bit, the next n_mid to 4-bit, the rest to 2-bit.
Score ties always break toward the lower channel index, so two policies
fed identical scores produce identical assignments.

resolve_assignment is the one function that maps a policy and a block's
scores to a PrecisionAssignment; every cache flush calls it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, check_array, check_count, check_real, check_type
from .quant import BitWidth, _as_bitwidth
from .salience import salience_score

__all__ = [
    "PolicyKind",
    "AllocationPolicy",
    "PrecisionAssignment",
    "resolve_assignment",
]


def check_thresholds(tau_full, tau_mid) -> tuple[float, float]:
    """Validate a (tau_full, tau_mid) pair and return it as floats.

    Raises InvalidInput for a threshold that is not a number (a numeric
    string or a bool included), a NaN threshold, or tau_mid > tau_full
    (the tiers would overlap). Infinite thresholds are legal sentinels.
    """
    tau_full, tau_mid = check_real(tau_full, "tau_full"), check_real(tau_mid, "tau_mid")
    if tau_mid > tau_full:
        raise InvalidInput(
            f"lower threshold {tau_mid} exceeds upper threshold {tau_full}"
        )
    return tau_full, tau_mid


@dataclass(frozen=True)
class PrecisionAssignment:
    """Per-channel storage widths for one flushed block of keys.

    `bits` holds 16, 4, or 2 per channel; any other entry, a fraction
    included, raises InvalidInput, as does an empty vector. Every
    assignment, each flush's included, is built by this constructor.
    """

    bits: np.ndarray

    def __post_init__(self):
        arr = check_array(self.bits, "bits", 1)
        if arr.size == 0:
            raise InvalidInput("assignment must cover at least one channel")
        if not ((arr == 2) | (arr == 4) | (arr == 16)).all():
            raise InvalidInput("channel widths must be 2, 4, or 16")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def dim(self) -> int:
        return self.bits.shape[0]

    def channels_at(self, width) -> np.ndarray:
        """Sorted channel indices stored at the given width, read-only like `bits`."""
        channels = np.flatnonzero(self.bits == int(width))
        channels.setflags(write=False)
        return channels

    def tier_counts(self) -> tuple[int, int, int]:
        """(n_full, n_mid, n_low) channel counts."""
        return (
            int(np.count_nonzero(self.bits == 16)),
            int(np.count_nonzero(self.bits == 4)),
            int(np.count_nonzero(self.bits == 2)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrecisionAssignment):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash(self.bits.tobytes())


class PolicyKind(enum.Enum):
    SALIENCE = "salience"
    ERROR_ONLY = "error-only"
    FIXED_UNIFORM = "fixed-uniform"
    FULL_PRECISION = "full-precision"


@dataclass(frozen=True)
class AllocationPolicy:
    """A policy kind plus its parameters.

    `kind` is a PolicyKind or its value ("salience", ...). `bits` applies
    only to FIXED_UNIFORM. `budget` switches SALIENCE and ERROR_ONLY from
    threshold mode to top-k mode.
    """

    kind: PolicyKind
    bits: BitWidth | None = None
    budget: tuple[int, int] | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", PolicyKind(self.kind))
        except ValueError:
            raise InvalidInput(f"unknown policy kind {self.kind!r}") from None
        if self.kind == PolicyKind.FIXED_UNIFORM:
            if self.bits is None:
                raise InvalidInput("fixed-uniform policy needs a bit width")
            width = _as_bitwidth(self.bits)
            if width == BitWidth.FULL:
                raise InvalidInput("use the full-precision policy instead of fixed-uniform 16")
            object.__setattr__(self, "bits", width)
        elif self.bits is not None:
            raise InvalidInput(f"{self.kind.value} policy does not take a bit width")
        if self.budget is not None:
            if self.kind not in (PolicyKind.SALIENCE, PolicyKind.ERROR_ONLY):
                raise InvalidInput(f"{self.kind.value} policy does not take a budget")
            try:
                n_full, n_mid = self.budget
            except (TypeError, ValueError):
                raise InvalidInput(f"budget is a pair (n_full, n_mid), got {self.budget!r}") from None
            budget = (check_count(n_full, "n_full", 0), check_count(n_mid, "n_mid", 0))
            object.__setattr__(self, "budget", budget)

    @property
    def label(self) -> str:
        """Short stable name used in reports."""
        if self.kind == PolicyKind.FIXED_UNIFORM:
            return f"fixed-uniform-{int(self.bits)}"
        return self.kind.value

    @classmethod
    def salience(cls, budget: tuple[int, int] | None = None) -> "AllocationPolicy":
        return cls(PolicyKind.SALIENCE, budget=budget)

    @classmethod
    def error_only(cls, budget: tuple[int, int] | None = None) -> "AllocationPolicy":
        return cls(PolicyKind.ERROR_ONLY, budget=budget)

    @classmethod
    def fixed_uniform(cls, bits) -> "AllocationPolicy":
        return cls(PolicyKind.FIXED_UNIFORM, bits=bits)

    @classmethod
    def full_precision(cls) -> "AllocationPolicy":
        return cls(PolicyKind.FULL_PRECISION)


def _tier_bits(salience: np.ndarray, tau_full: float, tau_mid: float) -> np.ndarray:
    """uint8 widths of the tier rule, elementwise over checked scores of any shape.

    2 bits, then 4 above tau_mid, then 16 above tau_full.
    """
    bits = np.full(salience.shape, 2, dtype=np.uint8)
    bits[salience > tau_mid] = 4
    bits[salience > tau_full] = 16
    return bits


def _topk_bits(scores: np.ndarray, budget: tuple[int, int]) -> np.ndarray:
    n_full, n_mid = budget
    if n_full + n_mid > scores.size:
        raise InvalidInput(
            f"budget {n_full}+{n_mid} exceeds the {scores.size} available channels"
        )
    # Stable sort on the negated scores: equal scores keep index order, so
    # ties always resolve to the lower channel.
    order = np.argsort(-scores, kind="stable")
    bits = np.full(scores.size, 2, dtype=np.uint8)
    bits[order[:n_full]] = 16
    bits[order[n_full : n_full + n_mid]] = 4
    return bits


def resolve_assignment(
    policy: AllocationPolicy,
    importance,
    sensitivity,
    thresholds: tuple[float, float],
) -> PrecisionAssignment:
    """Produce the per-channel assignment a policy implies for one block.

    `importance` and `sensitivity` are the block's I and S vectors;
    `thresholds` is the (tau_full, tau_mid) pair used in threshold mode.
    SALIENCE scores channels by salience_score(I, S) and ERROR_ONLY by
    salience_score(1, S), which is S; the scores are cut by the tier
    rule in threshold mode and ranked in budget mode. The other kinds
    store every channel at one width (16 for FULL_PRECISION), ignoring
    both scores and thresholds. A `policy` that is not an
    AllocationPolicy, a `thresholds` argument that is not a pair, an
    empty or non-finite `sensitivity`, a negative score under SALIENCE
    or ERROR_ONLY, a salience beyond float64, or a budget of more
    channels than `sensitivity` has raises InvalidInput. It returns
    PrecisionAssignment(bits), checked as any other.
    """
    check_type(policy, "policy", AllocationPolicy)
    try:
        tau_full, tau_mid = thresholds
    except (TypeError, ValueError):
        raise InvalidInput(f"thresholds is a pair (tau_full, tau_mid), got {thresholds!r}") from None
    sens = check_array(sensitivity, "sensitivity", 1)
    if policy.kind in (PolicyKind.FULL_PRECISION, PolicyKind.FIXED_UNIFORM):
        bits = np.full(sens.size, int(policy.bits or BitWidth.FULL), dtype=np.uint8)
    else:
        if policy.kind == PolicyKind.ERROR_ONLY:
            importance = np.ones(sens.size)
        scores = salience_score(importance, sens)
        if policy.budget is None:
            bits = _tier_bits(scores, *check_thresholds(tau_full, tau_mid))
        else:
            bits = _topk_bits(scores, policy.budget)
    return PrecisionAssignment(bits)
