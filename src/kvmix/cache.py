"""Streaming mixed-precision KV cache with a residual-buffer protocol.

Incoming (key, value, query) rows accumulate in a full-precision residual
buffer: three float64 arrays (keys, values, queries) of up to
`residual_len` rows plus a fill count. The first row after a flush
allocates them, they grow by doubling, and each flush releases them, so
no buffer is reused. When the buffer reaches `residual_len` tokens it is
flushed: the buffered queries are folded into the running query
statistics, the buffered keys are scored (sensitivity from the buffered
block itself, importance from the whole query history), each key channel
is assigned a precision tier by the active policy, and the block is
frozen into immutable, read-only storage:

- full-precision channels become dense outlier columns, whose sorted
  channel list is read off the assignment;
- 4-bit and 2-bit channels are quantized per channel in runs of
  `group_size` consecutive tokens, each run with its own (zero, scale);
  each tier holds a packed uint8 code array and (run, channel) zero and
  scale arrays, and `KeyBlock.groups` is an object view of them;
- values are quantized per token, in runs of `group_size` consecutive
  elements along the hidden dimension, so no (zero, scale) pair ever
  spans two tokens; held the same way, `ValueBlock.rows` is their view.

The first `sink_len` tokens of the sequence are exempt: at flush time they
are split off into their own full-precision block and never quantized or
scored. A final partial block simply stays in the residual buffer; callers
may force it out with flush().

Once flushed, a block never changes, so reconstructions of tokens [0, t]
are stable under further appends. Flush boundaries, accumulator folds, and
packing are all deterministic, which makes token-at-a-time feeding and
block-at-a-time feeding of the same rows bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NothingToFlush, UndefinedMetric, check_array, check_count
from .policies import (
    AllocationPolicy,
    PolicyKind,
    PrecisionAssignment,
    check_thresholds,
    resolve_assignment,
)

# quantize_group and dequantize_group are bound here, unused, so that tools
# which wrap them where the cache looks them up keep names to patch. Blocks
# are built and decoded by the batch forms _quantize_column_runs and
# _dequantize_column_runs, which give bit-identical groups and values.
from .quant import (  # noqa: F401
    _QUANT_WIDTHS,
    BitWidth,
    QuantizedGroup,
    _as_bitwidth,
    _column_groups,
    _dequantize_column_runs,
    _quantize_column_runs,
    dequantize_group,
    quantize_group,
)
from .salience import QueryAccumulator, sensitivity_score

__all__ = ["CacheConfig", "KeyBlock", "ValueBlock", "MixedKVCache"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and scoring parameters of the cache.

    dim                 key/query channel count D
    value_dim           value channel count (defaults to dim)
    group_size          tokens (keys) or elements (values) per quant group
    residual_len        residual-buffer capacity; must divide into groups
    sink_len            leading tokens always kept full-precision
    tau_full, tau_mid   salience thresholds for the 16/4/2-bit tiers
    value_bits          value storage width; FULL disables value quantization
    """

    dim: int
    value_dim: int | None = None
    group_size: int = 32
    residual_len: int = 128
    sink_len: int = 32
    tau_full: float = 1.0
    tau_mid: float = 0.5
    value_bits: BitWidth = BitWidth.UINT2

    def __post_init__(self):
        if self.value_dim is None:
            object.__setattr__(self, "value_dim", self.dim)
        for name, minimum in (
            ("dim", 1),
            ("value_dim", 1),
            ("group_size", 1),
            ("residual_len", 1),
            ("sink_len", 0),
        ):
            object.__setattr__(self, name, check_count(getattr(self, name), name, minimum))
        if self.residual_len % self.group_size != 0:
            raise InvalidInput(
                f"residual_len {self.residual_len} is not a multiple of "
                f"group_size {self.group_size}"
            )
        tau_full, tau_mid = check_thresholds(self.tau_full, self.tau_mid)
        object.__setattr__(self, "tau_full", tau_full)
        object.__setattr__(self, "tau_mid", tau_mid)
        object.__setattr__(self, "value_bits", _as_bitwidth(self.value_bits))

    @property
    def thresholds(self) -> tuple[float, float]:
        return (self.tau_full, self.tau_mid)


@dataclass(eq=False)
class KeyBlock:
    """One immutable flushed block of keys.

    Sink blocks carry `keys_exact` and no assignment. Quantized blocks
    carry the assignment, the columns of its 16-bit channels, and for
    each 4-/2-bit tier the arrays that _quantize_column_runs returns for
    that tier's channels (ascending), in token runs of the configured
    group size. `outlier_channels` and `groups` are views of them.
    """

    start: int
    length: int
    keys_exact: np.ndarray | None = None
    assignment: PrecisionAssignment | None = None
    outlier_columns: np.ndarray | None = None
    _runs: dict[BitWidth, list] | None = field(default=None, repr=False)
    _dense: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _freeze(self.keys_exact, self.outlier_columns, *_run_arrays(self._runs))

    @property
    def is_sink(self) -> bool:
        return self.keys_exact is not None

    @property
    def outlier_channels(self) -> np.ndarray | None:
        """The assignment's 16-bit channels, ascending and read-only; None for a sink."""
        return None if self.is_sink else self.assignment.channels_at(BitWidth.FULL)

    @property
    def groups(self) -> dict[int, tuple[QuantizedGroup, ...]] | None:
        """{channel: its groups} by ascending channel, built on each call; None for a sink."""
        if self.is_sink:
            return None
        by_channel = {}
        for width, runs in self._runs.items():
            channels = self.assignment.channels_at(width).tolist()
            by_channel.update(zip(channels, _column_groups(runs, width)))
        return {channel: by_channel[channel] for channel in sorted(by_channel)}

    def dense(self) -> np.ndarray:
        """Reconstructed (length, dim) block; cached and read-only."""
        if self._dense is None:
            if self.is_sink:
                self._dense = self.keys_exact
            else:
                out = np.empty((self.length, self.assignment.dim), dtype=np.float64)
                out[:, self.outlier_channels] = self.outlier_columns
                for width, runs in self._runs.items():
                    channels = self.assignment.channels_at(width)
                    out[:, channels] = _dequantize_column_runs(runs, width).T
                _freeze(out)
                self._dense = out
        return self._dense


@dataclass(eq=False)
class ValueBlock:
    """One immutable flushed block of values, quantized per token.

    Exact blocks carry `values_exact`; quantized ones the arrays of the
    transposed block (one column per token) under the value width, of
    which `rows` is a view.
    """

    start: int
    length: int
    values_exact: np.ndarray | None = None
    _runs: dict[BitWidth, list] | None = field(default=None, repr=False)
    _dense: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _freeze(self.values_exact, *_run_arrays(self._runs))

    @property
    def is_exact(self) -> bool:
        return self.values_exact is not None

    @property
    def rows(self) -> tuple[tuple[QuantizedGroup, ...], ...] | None:
        """Each token's groups, built on each call; None for an exact block."""
        if self.is_exact:
            return None
        ((width, runs),) = self._runs.items()
        return tuple(_column_groups(runs, width))

    def dense(self) -> np.ndarray:
        """Reconstructed (length, dim) block; cached and read-only."""
        if self._dense is None:
            if self.is_exact:
                self._dense = self.values_exact
            else:
                ((width, runs),) = self._runs.items()
                out = _dequantize_column_runs(runs, width)
                _freeze(out)
                self._dense = out
        return self._dense


def _run_arrays(runs: dict[BitWidth, list] | None) -> list[np.ndarray]:
    """The packed, zero and scale arrays of every run length of every tier."""
    if runs is None:
        return []
    return [arr for tier in runs.values() for _, *arrays in tier for arr in arrays]


def _freeze(*arrays: np.ndarray | None) -> None:
    """Make each array read-only, since a flushed block never changes."""
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)


def _reconstruct(blocks, residual: np.ndarray | None, dim: int) -> np.ndarray:
    """Every block's dense rows, then the residual rows, as one matrix."""
    parts = [blk.dense() for blk in blocks]
    if residual is not None:
        parts.append(residual)
    if not parts:
        return np.zeros((0, dim), dtype=np.float64)
    return np.vstack(parts)


class MixedKVCache:
    """Streaming KV cache quantized under an allocation policy.

    Rows must arrive post-rotation (the cache stores keys in the form they
    are attended to, and scores queries in that same form). Under the
    FULL_PRECISION policy nothing is quantized, values included. A top-k
    budget of more than config.dim channels raises InvalidInput.
    """

    def __init__(self, config: CacheConfig, policy: AllocationPolicy | None = None):
        if not isinstance(config, CacheConfig):
            raise InvalidInput(f"config must be a CacheConfig, got {type(config).__name__}")
        if not isinstance(policy, (AllocationPolicy, type(None))):
            raise InvalidInput(f"policy must be an AllocationPolicy, got {type(policy).__name__}")
        self.config = config
        self.policy = policy if policy is not None else AllocationPolicy.salience()
        if self.policy.budget is not None and sum(self.policy.budget) > config.dim:
            raise InvalidInput(f"budget {self.policy.budget} exceeds the {config.dim} channels")
        self._running = QueryAccumulator(config.dim)
        # flushed (key block, value block) pairs, in token order
        self._blocks: list[tuple[KeyBlock, ValueBlock]] = []
        # (keys, values, queries) arrays whose first _fill rows are the
        # residual buffer; None while the buffer is empty
        self._res: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._fill = 0

    # -- inspection ---------------------------------------------------

    @property
    def key_blocks(self) -> tuple[KeyBlock, ...]:
        return tuple(key_block for key_block, _ in self._blocks)

    @property
    def value_blocks(self) -> tuple[ValueBlock, ...]:
        return tuple(value_block for _, value_block in self._blocks)

    @property
    def assignments(self) -> tuple[PrecisionAssignment | None, ...]:
        """Per-key-block assignment history; None marks sink blocks."""
        return tuple(key_block.assignment for key_block, _ in self._blocks)

    @property
    def num_tokens(self) -> int:
        return self.flushed_tokens + self._fill

    @property
    def flushed_tokens(self) -> int:
        """End of the last flushed block, 0 before the first flush."""
        if not self._blocks:
            return 0
        last, _ = self._blocks[-1]
        return last.start + last.length

    @property
    def residual_tokens(self) -> int:
        return self._fill

    @property
    def query_accumulator(self) -> QueryAccumulator:
        """A copy of the sequence-wide accumulator, residual queries folded in.

        Flushes fold the queries of the rows they freeze; the copy adds the
        rows still buffered, so it covers every query fed so far, and adding
        to it does not change the cache.
        """
        acc = self._running.copy()
        if self._fill:
            acc.add(self._residual(2))
        return acc

    def _residual(self, index: int) -> np.ndarray | None:
        """The buffered keys (0), values (1) or queries (2); None when empty."""
        return self._res[index][: self._fill] if self._fill else None

    # -- feeding ------------------------------------------------------

    def _check_tokens(self, keys, values, queries, lead: int):
        """Checked (keys, values, queries) of one token (lead 0) or L (lead 1)."""
        cfg = self.config
        k = check_array(keys, "keys", lead + 1)
        v = check_array(values, "values", lead + 1)
        q = check_array(queries, "queries", lead + 1)
        tokens = k.shape[:lead]
        for name, arr, width in (("keys", k, cfg.dim), ("values", v, cfg.value_dim), ("queries", q, cfg.dim)):
            if arr.shape != tokens + (width,):
                raise InvalidInput(f"{name} must have shape {tokens + (width,)}, got {arr.shape}")
        return k, v, q

    def append(self, k_row, v_row, q_row, position: int | None = None) -> None:
        """Feed one token; auto-flushes when the residual buffer fills.

        `k_row` and `q_row` are (dim,), `v_row` is (value_dim,); the
        query row feeds the importance statistics. An explicit `position`
        is checked against the append counter.
        A rejected append, including one whose flush fails, leaves the
        cache unchanged and the error propagates.
        """
        if position is not None and check_count(position, "position", 0) != self.num_tokens:
            raise InvalidInput(
                f"position {position} out of order, next token is {self.num_tokens}"
            )
        self._feed(*(row[None] for row in self._check_tokens(k_row, v_row, q_row, lead=0)))

    def _feed(self, keys: np.ndarray, values: np.ndarray, queries: np.ndarray) -> None:
        """Feed checked (L, ·) blocks of rows in order, all or none.

        Rows are copied into the residual arrays one segment at a time,
        each segment ending at the next flush boundary. Only a flush can
        fail once the rows are checked. Saving references is enough: a
        flush replaces the accumulator and the residual arrays without
        mutating them, rows past the saved fill count are ignored, and
        blocks are append-only, so restoring them is a truncation.
        """
        cap = self.config.residual_len
        total = keys.shape[0]
        saved = (self._running, self._res, self._fill, len(self._blocks))
        try:
            lo = 0
            while lo < total:
                hi = min(total, lo + cap - self._fill)
                self._store(keys[lo:hi], values[lo:hi], queries[lo:hi])
                lo = hi
                if self._fill == cap:
                    self.flush()
        except BaseException:
            self._running, self._res, self._fill, n_blocks = saved
            del self._blocks[n_blocks:]
            raise

    def _store(self, *segment: np.ndarray) -> None:
        """Copy a (keys, values, queries) segment behind the buffered rows.

        The copy never aliases the caller's arrays. Arrays too short for
        the segment are replaced by new ones of at least twice the fill
        (at most residual_len rows); the old ones are left as they were.
        """
        fill = self._fill
        end = fill + segment[0].shape[0]
        if self._res is None or self._res[0].shape[0] < end:
            size = min(self.config.residual_len, max(end, 2 * fill))
            grown = tuple(np.empty((size, part.shape[1])) for part in segment)
            if fill:
                for new, old in zip(grown, self._res):
                    new[:fill] = old[:fill]
            self._res = grown
        for buf, part in zip(self._res, segment):
            buf[fill:end] = part
        self._fill = end

    def extend(self, keys, values, queries) -> None:
        """Feed a block of tokens in segments up to each flush boundary.

        `keys` and `queries` are (L, dim), `values` is (L, value_dim). A
        successful extend is equivalent, bit for bit, to L append() calls.
        A rejected extend, whether its block fails the input check or one
        of its flushes fails, leaves the cache unchanged.
        """
        self._feed(*self._check_tokens(keys, values, queries, lead=1))

    # -- flushing -----------------------------------------------------

    def flush(self) -> None:
        """Freeze the residual buffer into immutable block storage.

        Folds the buffered queries into the running statistics, splits off
        any sink-region rows, then scores and quantizes the rest under the
        active policy. Every block and the new accumulator are built before
        any is stored, so a rejected flush leaves the cache unchanged.
        Raises NothingToFlush when the residual buffer is empty.
        """
        if not self._fill:
            raise NothingToFlush("residual buffer is empty")
        # views: every array a block keeps is a copy of its rows
        keys, values, queries = (self._residual(i) for i in range(3))
        running = self._running.copy().add(queries)
        start = self.flushed_tokens
        length = keys.shape[0]
        pairs: list[tuple[KeyBlock, ValueBlock]] = []

        sink_cut = min(max(self.config.sink_len - start, 0), length)
        if sink_cut > 0:
            # Copies, so the sink rows do not pin the whole flushed matrix.
            pairs.append((
                KeyBlock(start=start, length=sink_cut, keys_exact=keys[:sink_cut].copy()),
                ValueBlock(start=start, length=sink_cut, values_exact=values[:sink_cut].copy()),
            ))

        if sink_cut < length:
            pairs.append(self._freeze_scored(
                keys[sink_cut:], values[sink_cut:], start + sink_cut, running.importance()
            ))

        self._blocks.extend(pairs)
        self._running = running
        self._res = None
        self._fill = 0

    def _freeze_scored(
        self, keys: np.ndarray, values: np.ndarray, start: int, importance: np.ndarray
    ) -> tuple[KeyBlock, ValueBlock]:
        cfg = self.config
        length = keys.shape[0]
        # only scored kinds read it, so only they reject a range beyond float64
        scored = self.policy.kind in (PolicyKind.SALIENCE, PolicyKind.ERROR_ONLY)
        sensitivity = sensitivity_score(keys) if scored else np.zeros(cfg.dim)
        assignment = resolve_assignment(self.policy, importance, sensitivity, cfg.thresholds)

        runs = {}
        for width in _QUANT_WIDTHS:
            channels = assignment.channels_at(width)
            if channels.size:
                runs[width] = _quantize_column_runs(keys[:, channels], width, cfg.group_size)
        key_block = KeyBlock(
            start=start,
            length=length,
            assignment=assignment,
            outlier_columns=keys[:, assignment.channels_at(BitWidth.FULL)].copy(),
            _runs=runs,
        )

        if cfg.value_bits == BitWidth.FULL or self.policy.kind == PolicyKind.FULL_PRECISION:
            value_block = ValueBlock(start=start, length=length, values_exact=values.copy())
        else:
            value_runs = _quantize_column_runs(values.T, cfg.value_bits, cfg.group_size)
            value_block = ValueBlock(start=start, length=length, _runs={cfg.value_bits: value_runs})
        return key_block, value_block

    # -- reconstruction -----------------------------------------------

    def reconstruct_keys(self) -> np.ndarray:
        """Dequantized view of every stored key row, residual included."""
        return _reconstruct(self.key_blocks, self._residual(0), self.config.dim)

    def reconstruct_values(self) -> np.ndarray:
        """Dequantized view of every stored value row, residual included."""
        return _reconstruct(self.value_blocks, self._residual(1), self.config.value_dim)

    # -- accounting ---------------------------------------------------

    def effective_bitwidth(self) -> float:
        """Mean stored bits per key element, sink and residual at 16.

        Quantization metadata (zero points and scales) is excluded; see
        metadata_counts(). Raises UndefinedMetric before the first flush.
        """
        if not self._blocks:
            raise UndefinedMetric("no block has been flushed yet")
        dim = self.config.dim
        total_bits = self._fill * dim * 16
        for blk in self.key_blocks:
            row_bits = dim * 16 if blk.is_sink else int(blk.assignment.bits.sum(dtype=np.int64))
            total_bits += blk.length * row_bits
        # integer sums, so their order does not change the quotient
        return total_bits / (self.num_tokens * dim)

    def metadata_counts(self) -> dict[str, int]:
        """Count of stored (zero, scale) scalars, keys and values apart."""
        counts = {}
        for name, blocks in (("key_scalars", self.key_blocks), ("value_scalars", self.value_blocks)):
            tiers = [runs for blk in blocks if blk._runs is not None for runs in blk._runs.values()]
            counts[name] = sum(2 * zero.size for runs in tiers for _, _, zero, _ in runs)
        return counts
