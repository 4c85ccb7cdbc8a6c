"""Query-aware channel salience scores and the rotary transform.

The score of a key channel d combines two ingredients:

    importance   I_d = mean over accumulated query rows of |Q[i, d]|
    sensitivity  S_d = (max_t K[t, d] - min_t K[t, d]) / 3
    salience     A_d = I_d * S_d

Importance is a property of the whole query history (a running mean, never
reset within a sequence); sensitivity is a property of the block of keys
about to be quantized; their product estimates how much quantization noise
in channel d leaks into attention logits. kvmix.policies cuts the scores
into precision tiers.

Scores are meaningful only on post-rotation tensors: callers must apply
the rotary map (apply_rope, at RoFormer's fixed base 10000) to queries
and keys before feeding them here, because that is the form in which
keys are cached and attended to.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, UndefinedMetric, check_array, check_count

__all__ = [
    "QueryAccumulator",
    "sensitivity_score",
    "salience_score",
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
        folded = np.vstack([self._abs_sum, np.abs(q)])
        with np.errstate(over="ignore"):
            np.add.accumulate(folded, axis=0, out=folded)
        # the fold only grows, so an overflow anywhere shows in the last row
        if not np.isfinite(folded[-1]).all():
            raise InvalidInput("the running |Q| sum overflows float64")
        self._abs_sum = folded[-1].copy()
        self._count += q.shape[0]
        return self

    def importance(self) -> np.ndarray:
        """Per-channel mean |Q| over the rows folded in; UndefinedMetric before any."""
        if self._count == 0:
            raise UndefinedMetric("no query rows accumulated")
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
    if keys.size == 0:
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
    if (imp < 0).any() or (sens < 0).any():
        raise InvalidInput("scores are non-negative by construction")
    with np.errstate(over="ignore"):
        scores = imp * sens
    if not np.isfinite(scores).all():
        raise InvalidInput("salience overflows float64")
    return scores


def apply_rope(x, positions) -> np.ndarray:
    """Rotate channel pairs (2j, 2j+1) of each row by its position angle.

    Row i is rotated by angles positions[i] * 10000**(-2j / D) for pair
    index j, RoFormer's base. The channel count D must be even and
    `positions` must supply one finite entry per row; anything else raises
    InvalidInput. No angle exceeds its position, so only a rotated entry
    beyond float64 can overflow, and that raises InvalidInput too.
    """
    mat = _as_matrix(x, "x")
    rows, dim = mat.shape
    if dim % 2 != 0:
        raise InvalidInput("rotary transform requires an even channel count")
    pos = check_array(positions, "positions", (0, 1)).reshape(-1)
    if pos.shape[0] != rows:
        raise InvalidInput(f"{rows} rows need {rows} positions, got {pos.shape[0]}")

    pair_exp = np.arange(dim // 2, dtype=np.float64) * (-2.0 / dim)
    even, odd = mat[:, 0::2], mat[:, 1::2]
    out = np.empty_like(mat)
    with np.errstate(over="ignore", invalid="ignore"):
        angles = pos[:, None] * (10000.0 ** pair_exp)[None, :]
        cos, sin = np.cos(angles), np.sin(angles)
        out[:, 0::2] = even * cos - odd * sin
        out[:, 1::2] = even * sin + odd * cos
    # finite positions give finite angles, so only an overflowing product is infinite
    if not np.isfinite(out).all():
        raise InvalidInput("rotated entries overflow float64")
    return out
