"""Precision-allocation policies for key channels.

Four policy kinds cover the method under study and its baselines:

- SALIENCE ranks channels by importance * sensitivity (the query-aware
  score), either thresholded or as a budgeted top-k;
- ERROR_ONLY ranks by sensitivity alone, ignoring the queries entirely
  (the magnitude-only ablation);
- FIXED_UNIFORM stores every channel at one width (2 or 4 bits), the
  uniform-quantization baseline run through the same cache machinery;
- FULL_PRECISION disables quantization altogether.

Budgeted policies take (n_full, n_mid): the top n_full channels by the
policy's score go to 16-bit, the next n_mid to 4-bit, the rest to 2-bit.
Score ties always break toward the lower channel index, so two policies
fed identical scores produce identical assignments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, check_array, check_count
from .quant import BitWidth, _as_bitwidth
from .salience import PrecisionAssignment, _tier_bits, check_thresholds, salience_score

__all__ = [
    "PolicyKind",
    "AllocationPolicy",
    "resolve_assignment",
]


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
    A `policy` that is not an AllocationPolicy, or a `thresholds`
    argument that is not a pair, raises InvalidInput.
    """
    if not isinstance(policy, AllocationPolicy):
        raise InvalidInput(f"policy must be an AllocationPolicy, got {type(policy).__name__}")
    try:
        tau_full, tau_mid = thresholds
    except (TypeError, ValueError):
        raise InvalidInput(f"thresholds is a pair (tau_full, tau_mid), got {thresholds!r}") from None
    sens = check_array(sensitivity, "sensitivity", 1)
    if sens.size == 0:
        raise InvalidInput("assignment must cover at least one channel")
    if policy.kind == PolicyKind.SALIENCE:
        importance = check_array(importance, "importance", 1)
        salience_score(importance, sens)  # for its checks of the pair
    if policy.kind in (PolicyKind.SALIENCE, PolicyKind.ERROR_ONLY) and policy.budget is None:
        tau_full, tau_mid = check_thresholds(tau_full, tau_mid)
    return _resolve(policy, importance, sens, (tau_full, tau_mid))


def _resolve(
    policy: AllocationPolicy,
    importance: np.ndarray,
    sensitivity: np.ndarray,
    thresholds: tuple[float, float],
) -> PrecisionAssignment:
    """resolve_assignment for checked vectors and thresholds.

    A cache's flush calls it directly: the cache computes importance and
    sensitivity itself (finite, non-negative, one entry per channel) and
    checked its thresholds with its config. Only a salience that
    overflows float64 is rejected here, with InvalidInput.
    """
    if policy.kind == PolicyKind.FULL_PRECISION:
        bits = np.full(sensitivity.size, 16, dtype=np.uint8)
    elif policy.kind == PolicyKind.FIXED_UNIFORM:
        bits = np.full(sensitivity.size, int(policy.bits), dtype=np.uint8)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            scores = sensitivity if policy.kind == PolicyKind.ERROR_ONLY else importance * sensitivity
        if not np.isfinite(scores).all():
            raise InvalidInput("salience contains non-finite elements")
        if policy.budget is None:
            bits = _tier_bits(scores, *thresholds)
        else:
            bits = _topk_bits(scores, policy.budget)
    return PrecisionAssignment._of(bits)
