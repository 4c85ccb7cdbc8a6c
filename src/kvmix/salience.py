"""Query-aware channel salience scoring and precision-tier assignment.

The score of a key channel d combines two ingredients:

    importance   I_d = mean over accumulated query rows of |Q[i, d]|
    sensitivity  S_d = (max_t K[t, d] - min_t K[t, d]) / 3
    salience     A_d = I_d * S_d

Importance is a property of the whole query history (a running mean, never
reset within a sequence); sensitivity is a property of the block of keys
about to be quantized; their product estimates how much quantization noise
in channel d leaks into attention logits. Channels are then placed into
three precision tiers by two thresholds:

    A_d >  tau_full            -> full precision (16-bit)
    tau_mid < A_d <= tau_full  -> 4-bit
    A_d <= tau_mid             -> 2-bit

Both comparisons against a threshold value itself resolve to the cheaper
tier: a channel sitting exactly on tau_full gets 4 bits, exactly on
tau_mid gets 2 bits.

Scores are meaningful only on post-rotation tensors: callers must apply
the rotary map (see apply_rope) to queries and keys before feeding them
here, because that is the form in which keys are cached and attended to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyWindow,
    InvalidInput,
    InvalidThresholds,
    check_array,
    check_count,
    check_real,
)

__all__ = [
    "QueryAccumulator",
    "PrecisionAssignment",
    "sensitivity_score",
    "salience_score",
    "assign_precision",
    "apply_rope",
]


def _as_matrix(x, name: str) -> np.ndarray:
    """A checked 2-D matrix, or a checked 1-D row as a one-row matrix."""
    return np.atleast_2d(check_array(x, name, (1, 2)))


class QueryAccumulator:
    """Running per-channel mean of absolute query activations.

    Rows are folded into the sum in arrival order by the left-to-right
    recurrence sum_i = sum_{i-1} + |q_i|, which np.add.accumulate computes
    for a whole block in one call. That makes the accumulator exactly
    invariant to how a fixed row stream is split into blocks (float
    addition is not associative, so a pairwise or blocked reduction would
    not be), which the streaming cache relies on for bit-identical replay.
    """

    __slots__ = ("_abs_sum", "_count")

    def __init__(self, dim: int):
        dim = check_count(dim, "accumulator dimension", 1)
        self._abs_sum = np.zeros(dim, dtype=np.float64)
        self._count = 0

    @property
    def dim(self) -> int:
        return self._abs_sum.shape[0]

    @property
    def count(self) -> int:
        """Number of query rows folded in so far."""
        return self._count

    @property
    def abs_sum(self) -> np.ndarray:
        """Per-channel sum of |Q| (a copy)."""
        return self._abs_sum.copy()

    def add(self, q_block) -> "QueryAccumulator":
        """Fold a row or a block of rows into the accumulator.

        An empty block is a no-op. Dimension mismatch, non-numeric or non-finite
        entries, or a |Q| sum beyond float64 raise InvalidInput, changing nothing.
        """
        q = _as_matrix(q_block, "q_block")
        if q.shape[1] != self.dim:
            raise InvalidInput(
                f"q_block has {q.shape[1]} channels, accumulator expects {self.dim}"
            )
        if q.size == 0:
            return self
        folded = np.abs(q)
        with np.errstate(over="ignore"):
            folded[0] += self._abs_sum
            np.add.accumulate(folded, axis=0, out=folded)
        # the fold only grows, so an overflow anywhere shows in the last row
        if not np.isfinite(folded[-1]).all():
            raise InvalidInput("the running |Q| sum overflows float64")
        self._abs_sum = folded[-1].copy()
        self._count += q.shape[0]
        return self

    def importance(self) -> np.ndarray:
        """Per-channel mean |Q| over everything folded in so far."""
        if self._count == 0:
            raise EmptyWindow("no query rows accumulated")
        return self._abs_sum / self._count

    def copy(self) -> "QueryAccumulator":
        dup = QueryAccumulator(self.dim)
        dup._abs_sum = self._abs_sum.copy()
        dup._count = self._count
        return dup


def sensitivity_score(key_block) -> np.ndarray:
    """Per-channel 2-bit quantization step (max - min) / 3.

    `key_block` is T x D (at least one row). The reference width is 2
    bits regardless of the tier a channel later lands in, so that the
    score reflects the worst quantization the channel could get. Raises
    InvalidInput for a non-numeric or non-finite block, or a channel
    range that overflows float64.
    """
    keys = _as_matrix(key_block, "key_block")
    if keys.shape[0] == 0 or keys.size == 0:
        raise InvalidInput("key block must contain at least one row")
    with np.errstate(over="ignore"):
        span = keys.max(axis=0) - keys.min(axis=0)
    if not np.all(np.isfinite(span)):
        raise InvalidInput("key block has a channel range that overflows float64")
    return span / 3


def salience_score(importance, sensitivity) -> np.ndarray:
    """Elementwise product I_d * S_d; InvalidInput if it overflows float64."""
    imp = check_array(importance, "importance", 1)
    sens = check_array(sensitivity, "sensitivity", 1)
    if imp.shape != sens.shape:
        raise InvalidInput("importance and sensitivity must be of equal length")
    if np.any(imp < 0) or np.any(sens < 0):
        raise InvalidInput("scores are non-negative by construction")
    with np.errstate(over="ignore"):
        scores = imp * sens
    if not np.isfinite(scores).all():
        raise InvalidInput("salience overflows float64")
    return scores


def check_thresholds(tau_full, tau_mid) -> tuple[float, float]:
    """Validate a (tau_full, tau_mid) pair and return it as floats.

    Raises InvalidInput for a threshold that is not a number (a numeric
    string included), and InvalidThresholds for a NaN threshold or
    tau_mid > tau_full (the tiers would overlap). Infinite thresholds are
    legal sentinels.
    """
    tau_full, tau_mid = check_real(tau_full, "tau_full"), check_real(tau_mid, "tau_mid")
    if math.isnan(tau_full) or math.isnan(tau_mid):
        raise InvalidThresholds("thresholds must not be NaN")
    if tau_mid > tau_full:
        raise InvalidThresholds(
            f"lower threshold {tau_mid} exceeds upper threshold {tau_full}"
        )
    return tau_full, tau_mid


@dataclass(frozen=True)
class PrecisionAssignment:
    """Per-channel storage widths for one flushed block of keys.

    `bits` holds 16, 4, or 2 per channel; any other entry, a fraction
    included, raises InvalidInput.
    """

    bits: np.ndarray

    def __post_init__(self):
        arr = check_array(self.bits, "bits", 1)
        if arr.size == 0:
            raise InvalidInput("assignment must cover at least one channel")
        if not np.all(np.isin(arr, (2, 4, 16))):
            raise InvalidInput("channel widths must be 2, 4, or 16")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @classmethod
    def _of(cls, bits: np.ndarray) -> "PrecisionAssignment":
        """Wrap a non-empty uint8 vector of 2/4/16 that the library built itself.

        The checks of the constructor are skipped; the vector is taken
        over and made read-only.
        """
        bits.setflags(write=False)
        assignment = object.__new__(cls)
        object.__setattr__(assignment, "bits", bits)
        return assignment

    @property
    def dim(self) -> int:
        return self.bits.shape[0]

    def channels_at(self, width) -> np.ndarray:
        """Sorted channel indices stored at the given width."""
        return np.flatnonzero(self.bits == int(width))

    def tier_counts(self) -> tuple[int, int, int]:
        """(n_full, n_mid, n_low) channel counts."""
        return (
            int(np.count_nonzero(self.bits == 16)),
            int(np.count_nonzero(self.bits == 4)),
            int(np.count_nonzero(self.bits == 2)),
        )

    def mean_bits(self) -> float:
        """Average storage width per key element under this assignment."""
        return float(self.bits.astype(np.float64).mean())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrecisionAssignment):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash(self.bits.tobytes())


def _tier_bits(salience: np.ndarray, tau_full: float, tau_mid: float) -> np.ndarray:
    """uint8 widths of the tier rule, elementwise over checked scores of any shape.

    2 bits, then 4 above tau_mid, then 16 above tau_full.
    """
    bits = np.full(salience.shape, 2, dtype=np.uint8)
    bits[salience > tau_mid] = 4
    bits[salience > tau_full] = 16
    return bits


def assign_precision(salience, tau_full: float, tau_mid: float) -> PrecisionAssignment:
    """Split channels into 16/4/2-bit tiers by two salience thresholds.

    Raises InvalidThresholds when tau_mid > tau_full (the tiers would
    overlap). Infinite thresholds are legal sentinels: (-inf, -inf) sends
    every channel to full precision, (+inf, +inf) to 2-bit.
    """
    scores = check_array(salience, "salience", 1)
    if scores.size == 0:
        raise InvalidInput("salience must be a non-empty vector")
    return PrecisionAssignment._of(_tier_bits(scores, *check_thresholds(tau_full, tau_mid)))


def apply_rope(x, positions, theta_base: float = 10000.0) -> np.ndarray:
    """Rotate channel pairs (2j, 2j+1) of each row by its position angle.

    Row i is rotated by angles positions[i] * theta_base**(-2j / D) for
    pair index j. The channel count D must be even, `positions` must
    supply one finite entry per row, and theta_base must be finite and
    positive; anything else raises InvalidInput.
    """
    mat = _as_matrix(x, "x")
    rows, dim = mat.shape
    if dim % 2 != 0:
        raise InvalidInput("rotary transform requires an even channel count")
    pos = check_array(positions, "positions", (0, 1)).reshape(-1)
    if pos.shape[0] != rows:
        raise InvalidInput(f"{rows} rows need {rows} positions, got {pos.shape[0]}")
    theta = check_array(theta_base, "theta_base", 0)
    if theta <= 0:
        raise InvalidInput("theta_base must be positive")

    pair_exp = np.arange(dim // 2, dtype=np.float64) * (-2.0 / dim)
    angles = pos[:, None] * (theta ** pair_exp)[None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = mat[:, 0::2], mat[:, 1::2]
    out = np.empty_like(mat)
    out[:, 0::2] = even * cos - odd * sin
    out[:, 1::2] = even * sin + odd * cos
    return out
