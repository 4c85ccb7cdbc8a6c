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
from .salience import PrecisionAssignment, assign_precision, salience_score

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

    `bits` applies only to FIXED_UNIFORM. `budget` switches SALIENCE and
    ERROR_ONLY from threshold mode to top-k mode.
    """

    kind: PolicyKind
    bits: BitWidth | None = None
    budget: tuple[int, int] | None = None

    def __post_init__(self):
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


def _topk_assignment(scores, budget: tuple[int, int]) -> PrecisionAssignment:
    vec = check_array(scores, "scores", 1)
    if vec.size == 0:
        raise InvalidInput("scores must be a non-empty vector")
    n_full, n_mid = budget
    if n_full + n_mid > vec.size:
        raise InvalidInput(
            f"budget {n_full}+{n_mid} exceeds the {vec.size} available channels"
        )
    # Stable sort on the negated scores: equal scores keep index order, so
    # ties always resolve to the lower channel.
    order = np.argsort(-vec, kind="stable")
    bits = np.full(vec.size, 2, dtype=np.uint8)
    bits[order[:n_full]] = 16
    bits[order[n_full : n_full + n_mid]] = 4
    return PrecisionAssignment(bits)


def resolve_assignment(
    policy: AllocationPolicy,
    importance,
    sensitivity,
    thresholds: tuple[float, float],
) -> PrecisionAssignment:
    """Produce the per-channel assignment a policy implies for one block.

    `importance` and `sensitivity` are the block's I and S vectors;
    `thresholds` is the (tau_full, tau_mid) pair used in threshold mode.
    A `thresholds` argument that is not a pair raises InvalidInput.
    """
    try:
        tau_full, tau_mid = thresholds
    except (TypeError, ValueError):
        raise InvalidInput(f"thresholds is a pair (tau_full, tau_mid), got {thresholds!r}") from None
    sens = check_array(sensitivity, "sensitivity", 1)
    if policy.kind == PolicyKind.FULL_PRECISION:
        return PrecisionAssignment(np.full(sens.size, 16, dtype=np.uint8))
    if policy.kind == PolicyKind.FIXED_UNIFORM:
        return PrecisionAssignment(np.full(sens.size, int(policy.bits), dtype=np.uint8))
    if policy.kind == PolicyKind.ERROR_ONLY:
        scores = sens
    else:
        scores = salience_score(importance, sens)
    if policy.budget is not None:
        return _topk_assignment(scores, policy.budget)
    return assign_precision(scores, tau_full, tau_mid)
