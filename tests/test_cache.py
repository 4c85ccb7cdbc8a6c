"""Streaming cache tests: residual protocol, sink handling, tier storage,
reconstruction guarantees, and bit accounting.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kvmix.quant

from kvmix import (
    AllocationPolicy,
    BitWidth,
    CacheConfig,
    InvalidInput,
    InvalidThresholds,
    MixedKVCache,
    NothingToFlush,
    UndefinedMetric,
    sensitivity_score,
)
from test_quant import quantize_group_oracle


def feed_random(cache: MixedKVCache, n: int, seed: int = 0, scale: float = 1.0):
    """Append n random tokens; returns the exact (keys, values, queries)."""
    rng = np.random.default_rng(seed)
    dim, vdim = cache.config.dim, cache.config.value_dim
    keys = rng.normal(size=(n, dim)) * scale
    values = rng.normal(size=(n, vdim)) * scale
    queries = rng.normal(size=(n, dim))
    for i in range(n):
        cache.append(keys[i], values[i], queries[i])
    return keys, values, queries


def cache_state(cache: MixedKVCache) -> tuple:
    """Every public field a rejected feed must leave as it was."""
    acc = cache.query_accumulator
    return (
        cache.num_tokens,
        cache.residual_tokens,
        cache.flushed_tokens,
        len(cache.key_blocks),
        len(cache.value_blocks),
        acc.count,
        acc.abs_sum.tolist(),
        cache.reconstruct_keys().tolist(),
        cache.reconstruct_values().tolist(),
    )


def small_config(**overrides) -> CacheConfig:
    base = dict(dim=8, group_size=4, residual_len=8, sink_len=2)
    base.update(overrides)
    return CacheConfig(**base)


class TestCacheConfig:
    def test_residual_must_be_group_multiple(self):
        with pytest.raises(InvalidInput):
            CacheConfig(dim=4, group_size=3, residual_len=8)

    def test_threshold_ordering(self):
        with pytest.raises(InvalidThresholds):
            CacheConfig(dim=4, tau_full=0.2, tau_mid=0.9)

    def test_nan_threshold_rejected(self):
        with pytest.raises(InvalidThresholds):
            CacheConfig(dim=4, tau_full=float("nan"))

    def test_negative_sink_rejected(self):
        with pytest.raises(InvalidInput):
            CacheConfig(dim=4, sink_len=-1)

    def test_unknown_value_bits_is_a_typed_error(self):
        with pytest.raises(InvalidInput):
            CacheConfig(dim=4, value_bits=3)
        with pytest.raises(InvalidInput):
            CacheConfig(dim=4, value_bits=None)

    def test_value_dim_defaults_to_dim(self):
        cfg = CacheConfig(dim=6)
        assert cfg.value_dim == 6

    def test_thresholds_property(self):
        cfg = CacheConfig(dim=4, tau_full=1.5, tau_mid=0.25)
        assert cfg.thresholds == (1.5, 0.25)

    def test_defaults(self):
        cfg = CacheConfig(dim=64)
        assert cfg.group_size == 32
        assert cfg.residual_len == 128
        assert cfg.sink_len == 32


class TestResidualProtocol:
    def test_no_flush_below_capacity(self):
        cache = MixedKVCache(small_config())
        feed_random(cache, 7)
        assert cache.flushed_tokens == 0
        assert cache.residual_tokens == 7
        assert len(cache.key_blocks) == 0

    def test_auto_flush_at_capacity(self):
        cache = MixedKVCache(small_config())
        feed_random(cache, 8)
        assert cache.flushed_tokens == 8
        assert cache.residual_tokens == 0
        assert len(cache.key_blocks) >= 1

    def test_partial_tail_stays_in_residual(self):
        cache = MixedKVCache(small_config())
        feed_random(cache, 11)
        assert cache.flushed_tokens == 8
        assert cache.residual_tokens == 3
        assert cache.num_tokens == 11

    def test_manual_flush_freezes_partial_tail(self):
        cache = MixedKVCache(small_config())
        feed_random(cache, 11)
        cache.flush()
        assert cache.flushed_tokens == 11
        assert cache.residual_tokens == 0

    def test_flush_on_empty_buffer_raises(self):
        cache = MixedKVCache(small_config())
        with pytest.raises(NothingToFlush):
            cache.flush()
        feed_random(cache, 8)
        with pytest.raises(NothingToFlush):
            cache.flush()

    def test_position_argument_checked(self):
        cache = MixedKVCache(small_config())
        row = np.zeros(8)
        cache.append(row, row, row, position=0)
        with pytest.raises(InvalidInput):
            cache.append(row, row, row, position=5)

    def test_row_shape_checked(self):
        cache = MixedKVCache(small_config())
        with pytest.raises(InvalidInput):
            cache.append(np.zeros(5), np.zeros(8), np.zeros(8))
        with pytest.raises(InvalidInput):
            cache.append(np.zeros(8), np.zeros(8), np.zeros((3, 8)))

    def test_non_finite_row_rejected(self):
        cache = MixedKVCache(small_config())
        bad = np.full(8, np.nan)
        with pytest.raises(InvalidInput):
            cache.append(bad, np.zeros(8), np.zeros(8))

    def test_fed_rows_do_not_alias_the_callers_arrays(self):
        rng = np.random.default_rng(3)
        keys, values, queries = (rng.normal(size=(11, 8)) for _ in range(3))
        by_block, by_row = MixedKVCache(small_config()), MixedKVCache(small_config())
        by_block.extend(keys, values, queries)
        for k, v, q in zip(keys, values, queries):
            by_row.append(k, v, q)
        want = (by_block.reconstruct_keys(), by_block.reconstruct_values())
        keys[:] = 0.0
        values[:] = 0.0
        for cache in (by_block, by_row):
            assert cache.residual_tokens == 3
            assert np.array_equal(cache.reconstruct_keys(), want[0])
            assert np.array_equal(cache.reconstruct_values(), want[1])

    @pytest.mark.parametrize("sink_len", [0, 1])
    @given(
        group_size=st.sampled_from([1, 2, 4]),
        runs=st.integers(min_value=1, max_value=3),
        earlier_flushes=st.integers(min_value=0, max_value=2),
        target=st.sampled_from(["keys", "values"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_failed_flush_leaves_cache_unchanged(
        self, sink_len, group_size, runs, earlier_flushes, target, seed
    ):
        residual = group_size * runs
        # the overflowing pair must land in one scored block, and a value
        # pair in one value group
        assume(residual >= sink_len + 2)
        assume(target == "keys" or group_size >= 2)
        cfg = CacheConfig(
            dim=3, value_dim=4, group_size=group_size, residual_len=residual, sink_len=sink_len
        )
        cache = MixedKVCache(cfg, AllocationPolicy.salience())
        rng = np.random.default_rng(seed)

        def row():
            # |q| <= 1 keeps importance * sensitivity finite for a 0.9e308 key
            return rng.normal(size=3), rng.normal(size=4), rng.uniform(-1.0, 1.0, size=3)

        for _ in range(earlier_flushes * residual + residual - 2):
            cache.append(*row())
        # the pair spans 1.8e308, which overflows float64: as a key channel
        # it cannot be scored, as a value group it cannot be quantized
        k, v, q = row()
        bad_k, bad_v, bad_q = row()
        if target == "keys":
            k[1], bad_k[1] = -0.9e308, 0.9e308
        else:
            bad_v[0], bad_v[1] = -0.9e308, 0.9e308
        cache.append(k, v, q)

        before = cache_state(cache)
        with pytest.raises(InvalidInput):
            cache.append(bad_k, bad_v, bad_q)
        assert cache_state(cache) == before
        # the buffer still flushes at capacity, then keeps doing so
        cache.append(*row())
        assert cache.residual_tokens == 0
        assert cache.flushed_tokens == (earlier_flushes + 1) * residual
        for _ in range(residual):
            cache.append(*row())
        assert cache.residual_tokens == 0
        assert cache.flushed_tokens == (earlier_flushes + 2) * residual

    @pytest.mark.parametrize("sink_len", [0, 1])
    @given(
        group_size=st.sampled_from([1, 2, 4]),
        runs=st.integers(min_value=1, max_value=3),
        earlier_flushes=st.integers(min_value=0, max_value=2),
        target=st.sampled_from(["keys", "values"]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_failed_extend_leaves_cache_unchanged(
        self, sink_len, group_size, runs, earlier_flushes, target, data
    ):
        residual = group_size * runs
        assume(target == "keys" or group_size >= 2)
        cfg = CacheConfig(
            dim=3, value_dim=4, group_size=group_size, residual_len=residual, sink_len=sink_len
        )
        cache = MixedKVCache(cfg, AllocationPolicy.salience())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))

        def block(n):
            # |q| <= 1 keeps importance * sensitivity finite for a 0.9e308 key
            return (
                rng.normal(size=(n, 3)),
                rng.normal(size=(n, 4)),
                rng.uniform(-1.0, 1.0, size=(n, 3)),
            )

        lead = data.draw(st.integers(0, residual - 1), label="lead")
        cache.extend(*block(earlier_flushes * residual + lead))
        # the block crosses three flush boundaries, and the bad rows sit in
        # the scored part of the block of one of them
        keys, values, queries = block(3 * residual - lead + data.draw(st.integers(0, residual)))
        first = cache.num_tokens
        flush = earlier_flushes + data.draw(st.integers(0, 2), label="failing flush")
        lo = max(flush * residual, first, sink_len)
        hi = (flush + 1) * residual - (2 if target == "keys" else 1)
        assume(lo <= hi)
        row = data.draw(st.integers(lo, hi), label="bad row") - first
        # the pair spans 1.8e308, which overflows float64: as a key channel
        # it cannot be scored, as a value group it cannot be quantized
        if target == "keys":
            keys[row, 1], keys[row + 1, 1] = -0.9e308, 0.9e308
        else:
            values[row, 0], values[row, 1] = -0.9e308, 0.9e308

        before = cache_state(cache)
        with pytest.raises(InvalidInput):
            cache.extend(keys, values, queries)
        assert cache_state(cache) == before
        # the buffer still flushes at capacity
        cache.extend(*block(residual - lead))
        assert cache.residual_tokens == 0
        assert cache.flushed_tokens == (earlier_flushes + 1) * residual


def stored_fields(blk) -> list:
    """Everything a flushed key or value block stores, in a fixed order."""
    fields = [type(blk).__name__, blk.start, blk.length]
    for name in ("keys_exact", "values_exact", "outlier_channels", "outlier_columns"):
        fields.append(getattr(blk, name, None))
    assignment = getattr(blk, "assignment", None)
    fields.append(None if assignment is None else assignment.bits)
    for width, tier in sorted((blk._runs or {}).items()):
        fields.append(int(width))
        for size, *arrays in tier:
            fields.append(size)
            fields.extend(arrays)
    return fields


def assert_same_state(got: MixedKVCache, want: MixedKVCache) -> None:
    """Equal blocks, reconstructions, assignments and query statistics, bit for bit."""
    assert (got.num_tokens, got.flushed_tokens, got.residual_tokens) == (
        want.num_tokens,
        want.flushed_tokens,
        want.residual_tokens,
    )
    assert len(got.key_blocks) == len(want.key_blocks)
    assert len(got.value_blocks) == len(want.value_blocks)
    # the key blocks tile [0, flushed_tokens) in order, value blocks alongside
    end = 0
    for key_blk, value_blk in zip(got.key_blocks, got.value_blocks, strict=True):
        assert key_blk.start == end
        assert (value_blk.start, value_blk.length) == (key_blk.start, key_blk.length)
        end = key_blk.start + key_blk.length
    assert end == got.flushed_tokens
    for mine, theirs in zip(got.key_blocks + got.value_blocks, want.key_blocks + want.value_blocks):
        a, b = stored_fields(mine), stored_fields(theirs)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert (x is None) == (y is None)
            assert x is None or np.array_equal(x, y)
    assert got.assignments == want.assignments
    assert np.array_equal(got.reconstruct_keys(), want.reconstruct_keys())
    assert np.array_equal(got.reconstruct_values(), want.reconstruct_values())
    acc, ref = got.query_accumulator, want.query_accumulator
    assert acc.count == ref.count
    assert np.array_equal(acc.abs_sum, ref.abs_sum)


class TestSegmentFeed:
    @given(
        sink_len=st.integers(min_value=0, max_value=10),
        runs=st.integers(min_value=1, max_value=3),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_feed_matches_row_feed(self, sink_len, runs, data, seed):
        # one row stream, split into random append/extend calls of 0..3R
        # rows, against one append per row; manual flushes at the same token
        # counts on both sides; compared after every call, mid-residual too
        residual = 4 * runs
        cfg = small_config(
            dim=5, value_dim=6, group_size=4, residual_len=residual, sink_len=sink_len
        )
        policy = AllocationPolicy.salience(budget=(1, 2))
        split, by_row = MixedKVCache(cfg, policy), MixedKVCache(cfg, policy)
        calls = data.draw(
            st.lists(
                st.one_of(
                    st.just(("append", 1)),
                    st.just(("flush", 0)),
                    st.tuples(st.just("extend"), st.integers(0, 3 * residual)),
                ),
                min_size=1,
                max_size=12,
            ),
            label="calls",
        )
        total = sum(n for _, n in calls)
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(total, 5)) * 10.0 ** rng.uniform(-3, 3, size=(total, 5))
        values = rng.normal(size=(total, 6))
        queries = rng.normal(size=(total, 5)) * 10.0 ** rng.uniform(-3, 3, size=(total, 5))
        fed = 0
        folded = np.zeros(5)  # the query statistic, folded one row at a time
        for kind, n in calls:
            if kind == "flush":
                if split.residual_tokens:
                    split.flush()
                    by_row.flush()
                else:
                    with pytest.raises(NothingToFlush):
                        split.flush()
            else:
                if kind == "extend":
                    split.extend(keys[fed : fed + n], values[fed : fed + n], queries[fed : fed + n])
                else:
                    split.append(keys[fed], values[fed], queries[fed])
                for t in range(fed, fed + n):
                    by_row.append(keys[t], values[t], queries[t])
                    folded += np.abs(queries[t])
                fed += n
            assert_same_state(split, by_row)
            assert np.array_equal(split.query_accumulator.abs_sum, folded)
        assert fed == total

    def test_unbounded_residual_allocates_as_rows_arrive(self):
        # a residual far larger than memory: its arrays grow with the rows
        # fed, so one append and a manual flush must work
        cache = MixedKVCache(CacheConfig(dim=64, group_size=32, residual_len=2**34, sink_len=0))
        rng = np.random.default_rng(2)
        k, v, q = rng.normal(size=(3, 64))
        cache.append(k, v, q)
        assert cache.residual_tokens == 1
        np.testing.assert_array_equal(cache.reconstruct_keys(), k[None])
        cache.flush()
        assert (cache.flushed_tokens, cache.residual_tokens) == (1, 0)
        assert cache.query_accumulator.count == 1
        assert cache.reconstruct_keys().shape == (1, 64)


class TestSinkHandling:
    def test_sink_rows_reconstruct_exactly(self):
        cache = MixedKVCache(small_config(sink_len=2))
        keys, values, _ = feed_random(cache, 8, seed=1)
        rec = cache.reconstruct_keys()
        np.testing.assert_array_equal(rec[:2], keys[:2])

    def test_sink_block_has_no_assignment(self):
        cache = MixedKVCache(small_config(sink_len=2))
        feed_random(cache, 8)
        assert cache.key_blocks[0].is_sink
        assert cache.assignments[0] is None
        assert cache.assignments[1] is not None

    def test_sink_rows_own_their_bytes(self):
        # a view would keep the whole flushed (residual_len, dim) matrix alive
        cache = MixedKVCache(small_config(sink_len=2))
        feed_random(cache, 8)
        assert cache.key_blocks[0].keys_exact.base is None
        assert cache.value_blocks[0].values_exact.base is None

    def test_full_sink_block_when_sink_equals_residual(self):
        cache = MixedKVCache(small_config(sink_len=8))
        keys, values, _ = feed_random(cache, 8, seed=2)
        assert len(cache.key_blocks) == 1
        assert cache.key_blocks[0].is_sink
        np.testing.assert_array_equal(cache.reconstruct_keys(), keys)
        np.testing.assert_array_equal(cache.reconstruct_values(), values)

    def test_second_flush_has_no_sink_rows(self):
        cache = MixedKVCache(small_config(sink_len=2))
        feed_random(cache, 16)
        # blocks: sink(2) + scored(6) + scored(8)
        assert [blk.is_sink for blk in cache.key_blocks] == [True, False, False]
        assert [blk.length for blk in cache.key_blocks] == [2, 6, 8]

    def test_sink_spanning_multiple_flushes(self):
        cache = MixedKVCache(small_config(sink_len=12))
        feed_random(cache, 16)
        # first flush entirely sink, second flush split 4 sink + 4 scored
        assert [blk.is_sink for blk in cache.key_blocks] == [True, True, False]
        assert [blk.length for blk in cache.key_blocks] == [8, 4, 4]

    def test_zero_sink(self):
        cache = MixedKVCache(small_config(sink_len=0))
        feed_random(cache, 8)
        assert [blk.is_sink for blk in cache.key_blocks] == [False]


class TestTierStorage:
    def test_all_channels_promoted_reconstructs_exactly(self):
        cfg = small_config(tau_full=-1.0, tau_mid=-1.0)
        cache = MixedKVCache(cfg)
        keys, values, _ = feed_random(cache, 8, seed=3)
        np.testing.assert_array_equal(cache.reconstruct_keys(), keys)

    def test_all_low_tier_error_within_half_step(self):
        cfg = small_config(sink_len=0, tau_full=np.inf, tau_mid=np.inf)
        cache = MixedKVCache(cfg)
        keys, _, _ = feed_random(cache, 8, seed=4)
        assignment = cache.assignments[0]
        assert assignment.bits.tolist() == [2] * 8
        rec = cache.reconstruct_keys()
        step = sensitivity_score(keys)
        # groups are token runs inside the block, so the block-level step
        # bounds every group's step
        assert np.all(np.abs(rec - keys) <= step[None, :] / 2 + 1e-12)

    def test_quiet_channel_demoted_despite_huge_scale(self):
        # channel 0 has a wild key range but its queries are always zero,
        # so its salience is zero and it lands in the cheapest tier
        cfg = small_config(sink_len=0, tau_full=10.0, tau_mid=1e-6)
        cache = MixedKVCache(cfg)
        rng = np.random.default_rng(5)
        for _ in range(8):
            k = rng.normal(size=8)
            k[0] *= 1e6
            q = rng.normal(size=8)
            q[0] = 0.0
            cache.append(k, rng.normal(size=8), q)
        assignment = cache.assignments[0]
        assert assignment.bits[0] == 2

    def test_mixed_block_storage_layout(self):
        cfg = small_config(sink_len=0)
        cache = MixedKVCache(cfg, AllocationPolicy.salience(budget=(2, 3)))
        feed_random(cache, 8, seed=6)
        blk = cache.key_blocks[0]
        assert blk.outlier_channels.tolist() == sorted(blk.outlier_channels.tolist())
        # the outlier channels are read off the assignment, not stored beside it
        assert np.array_equal(blk.outlier_channels, blk.assignment.channels_at(16))
        assert blk.outlier_columns.shape == (8, 2)
        assert len(blk.groups) == 6
        # each channel column of 8 tokens splits into two runs of 4
        assert all(len(runs) == 2 for runs in blk.groups.values())
        assert all(len(run) == 4 for runs in blk.groups.values() for run in runs)

    def test_flushed_blocks_stable_under_later_appends(self):
        cache = MixedKVCache(small_config())
        feed_random(cache, 8, seed=7)
        before = cache.reconstruct_keys().copy()
        feed_random(cache, 8, seed=8)
        after = cache.reconstruct_keys()
        np.testing.assert_array_equal(after[:8], before)

    def test_extend_matches_append_bit_for_bit(self):
        rng = np.random.default_rng(9)
        n = 20
        keys = rng.normal(size=(n, 8))
        values = rng.normal(size=(n, 8))
        queries = rng.normal(size=(n, 8))
        one = MixedKVCache(small_config())
        for i in range(n):
            one.append(keys[i], values[i], queries[i])
        two = MixedKVCache(small_config())
        two.extend(keys, values, queries)
        np.testing.assert_array_equal(one.reconstruct_keys(), two.reconstruct_keys())
        np.testing.assert_array_equal(
            one.reconstruct_values(), two.reconstruct_values()
        )
        assert one.assignments == two.assignments
        for a, b in zip(one.key_blocks, two.key_blocks):
            if a.groups is not None:
                for ch in a.groups:
                    for ga, gb in zip(a.groups[ch], b.groups[ch]):
                        assert ga.codes.data == gb.codes.data
                        assert ga.zero_point == gb.zero_point
                        assert ga.scale == gb.scale


    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sink_len=2),  # 6-token scored block: one full run, one partial
            dict(sink_len=0, value_dim=10, value_bits=BitWidth.UINT4),
            dict(sink_len=3, group_size=8, residual_len=8, value_dim=6),
        ],
    )
    def test_flushed_groups_equal_scalar_reference(self, overrides):
        # the flush quantizes whole tiers at once; every group it stores
        # must equal the written-out quantizer on that group's own slice
        cfg = small_config(**overrides)
        cache = MixedKVCache(cfg, AllocationPolicy.salience(budget=(2, 3)))
        keys, values, _ = feed_random(cache, 20, seed=23)
        cache.flush()
        g = cfg.group_size
        scored = [blk for blk in cache.key_blocks if not blk.is_sink]
        assert scored
        for blk in scored:
            bits = blk.assignment.bits
            assert list(blk.groups) == np.flatnonzero(bits != 16).tolist()
            block_keys = keys[blk.start : blk.start + blk.length]
            for channel, runs in blk.groups.items():
                column = block_keys[:, channel]
                assert runs == tuple(
                    quantize_group_oracle(column[lo : lo + g], int(bits[channel]))
                    for lo in range(0, blk.length, g)
                )
        for blk in cache.value_blocks:
            if blk.is_exact:
                continue
            for t, runs in enumerate(blk.rows):
                row = values[blk.start + t]
                assert runs == tuple(
                    quantize_group_oracle(row[lo : lo + g], cfg.value_bits)
                    for lo in range(0, cfg.value_dim, g)
                )

    def test_storage_builds_no_group_objects(self, monkeypatch):
        # blocks hold each tier as arrays; only the groups/rows views build
        # QuantizedGroup and PackedBuffer objects, never a feed or a read
        cfg = small_config(sink_len=3)
        policy = AllocationPolicy.salience(budget=(2, 3))
        keys, values, queries = np.random.default_rng(31).normal(size=(3, 30, 8))
        reference = MixedKVCache(cfg, policy)
        reference.extend(keys, values, queries)
        reference.flush()

        def refuse(*args, **kwargs):
            raise AssertionError("storage built a group object")

        monkeypatch.setattr(kvmix.quant, "QuantizedGroup", refuse)
        monkeypatch.setattr(kvmix.quant, "PackedBuffer", refuse)
        cache = MixedKVCache(cfg, policy)
        # a sink split in the first of three flushes, then 6 residual rows
        cache.extend(keys, values, queries)
        assert cache.flushed_tokens == 24 and cache.key_blocks[0].is_sink
        cache.flush()  # a partial block: one run of 4 tokens, one of 2
        assert {2, 4, 16} <= {int(b) for a in cache.assignments[1:] for b in a.bits}
        np.testing.assert_array_equal(cache.reconstruct_keys(), reference.reconstruct_keys())
        np.testing.assert_array_equal(
            cache.reconstruct_values(), reference.reconstruct_values()
        )
        assert cache.metadata_counts() == reference.metadata_counts()
        assert cache.metadata_counts()["value_scalars"] > 0
        assert cache.effective_bitwidth() == reference.effective_bitwidth()
        with pytest.raises(AssertionError, match="group object"):
            cache.key_blocks[1].groups


class TestValueStorage:
    def test_values_quantized_per_token(self):
        # perturbing one token's value row must leave every other row's
        # stored bytes identical: no (zero, scale) pair spans tokens
        cfg = small_config(sink_len=0)
        rng = np.random.default_rng(10)
        values = rng.normal(size=(8, 8))
        keys = rng.normal(size=(8, 8))
        queries = rng.normal(size=(8, 8))

        def run(vals):
            cache = MixedKVCache(cfg)
            for i in range(8):
                cache.append(keys[i], vals[i], queries[i])
            return cache.value_blocks[0]

        base = run(values)
        bumped = values.copy()
        bumped[3] *= 100.0
        other = run(bumped)
        for t in range(8):
            if t == 3:
                continue
            for ga, gb in zip(base.rows[t], other.rows[t]):
                assert ga.codes.data == gb.codes.data
                assert ga.zero_point == gb.zero_point
                assert ga.scale == gb.scale

    def test_value_groups_along_hidden_dim(self):
        cfg = small_config(sink_len=0, value_dim=10, group_size=4, residual_len=8)
        cache = MixedKVCache(cfg)
        feed_random(cache, 8, seed=11)
        rows = cache.value_blocks[0].rows
        assert len(rows) == 8
        # 10 elements in runs of 4: lengths 4, 4, 2
        assert [len(g) for g in rows[0]] == [4, 4, 2]

    def test_full_width_values_pass_through(self):
        cfg = small_config(sink_len=0, value_bits=BitWidth.FULL)
        cache = MixedKVCache(cfg)
        _, values, _ = feed_random(cache, 8, seed=12)
        assert cache.value_blocks[0].is_exact
        assert cache.value_blocks[0].rows is None
        np.testing.assert_array_equal(cache.reconstruct_values(), values)

    def test_full_precision_policy_bypasses_value_quantization(self):
        cfg = small_config(sink_len=0)
        cache = MixedKVCache(cfg, AllocationPolicy.full_precision())
        keys, values, _ = feed_random(cache, 8, seed=13)
        np.testing.assert_array_equal(cache.reconstruct_keys(), keys)
        np.testing.assert_array_equal(cache.reconstruct_values(), values)

    def test_value_error_within_half_step(self):
        cfg = small_config(sink_len=0, value_bits=BitWidth.UINT4)
        cache = MixedKVCache(cfg)
        _, values, _ = feed_random(cache, 8, seed=14)
        rec = cache.reconstruct_values()
        for t in range(8):
            for g, (lo, hi) in zip(
                cache.value_blocks[0].rows[t], ((0, 4), (4, 8))
            ):
                assert np.max(np.abs(rec[t, lo:hi] - values[t, lo:hi])) <= g.scale / 2 + 1e-12


class TestBitAccounting:
    def test_undefined_before_first_flush(self):
        cache = MixedKVCache(small_config())
        with pytest.raises(UndefinedMetric):
            cache.effective_bitwidth()
        feed_random(cache, 3)
        with pytest.raises(UndefinedMetric):
            cache.effective_bitwidth()

    def test_analytic_mix_three_bits(self):
        # 5 full + 15 mid + 80 low of 100 channels:
        # (5*16 + 15*4 + 80*2) / 100 = 3.0 exactly
        cfg = CacheConfig(dim=100, group_size=8, residual_len=16, sink_len=0)
        cache = MixedKVCache(cfg, AllocationPolicy.salience(budget=(5, 15)))
        feed_random(cache, 16, seed=15)
        assert cache.residual_tokens == 0
        assert abs(cache.effective_bitwidth() - 3.0) < 1e-9

    def test_all_low_tier_is_exactly_two(self):
        cfg = small_config(sink_len=0, tau_full=np.inf, tau_mid=np.inf)
        cache = MixedKVCache(cfg)
        feed_random(cache, 8, seed=16)
        assert cache.effective_bitwidth() == 2.0

    def test_sink_and_residual_count_as_full(self):
        cfg = small_config(sink_len=8, tau_full=np.inf, tau_mid=np.inf)
        cache = MixedKVCache(cfg)
        feed_random(cache, 12, seed=17)
        # 8 sink tokens at 16 bits, 4 residual tokens at 16 bits
        assert cache.effective_bitwidth() == 16.0

    def test_mixed_sink_and_quantized(self):
        cfg = small_config(sink_len=4, tau_full=np.inf, tau_mid=np.inf)
        cache = MixedKVCache(cfg)
        feed_random(cache, 8, seed=18)
        # 4 tokens * 8 ch * 16 bits + 4 tokens * 8 ch * 2 bits over 64 elems
        expect = (4 * 8 * 16 + 4 * 8 * 2) / (8 * 8)
        assert abs(cache.effective_bitwidth() - expect) < 1e-9

    def test_tier_accounting_matches_assignment(self):
        cfg = small_config(sink_len=0)
        cache = MixedKVCache(cfg, AllocationPolicy.salience(budget=(1, 3)))
        feed_random(cache, 8, seed=19)
        n_full, n_mid, n_low = cache.assignments[0].tier_counts()
        expect = (n_full * 16 + n_mid * 4 + n_low * 2) / 8
        assert abs(cache.effective_bitwidth() - expect) < 1e-9

    def test_metadata_counts(self):
        cfg = small_config(sink_len=0)
        cache = MixedKVCache(cfg, AllocationPolicy.salience(budget=(2, 3)))
        feed_random(cache, 8, seed=20)
        counts = cache.metadata_counts()
        # keys: 6 quantized channels * 2 runs -> 12 groups -> 24 scalars
        assert counts["key_scalars"] == 24
        # values: 8 tokens * 2 runs -> 16 groups -> 32 scalars
        assert counts["value_scalars"] == 32

    def test_metadata_zero_for_full_precision(self):
        cache = MixedKVCache(small_config(), AllocationPolicy.full_precision())
        feed_random(cache, 8, seed=21)
        counts = cache.metadata_counts()
        assert counts == {"key_scalars": 0, "value_scalars": 0}


class TestImportanceRouting:
    def test_running_importance_spans_whole_sequence(self):
        # default mode: block 2's assignment sees queries from block 1 too
        cfg = small_config(sink_len=0, tau_full=3.0, tau_mid=1.0)
        cache = MixedKVCache(cfg)
        rng = np.random.default_rng(22)
        # first block: loud queries on channel 0
        for _ in range(8):
            q = np.abs(rng.normal(size=8)) * 0.1
            q[0] = 50.0
            cache.append(rng.normal(size=8), rng.normal(size=8), q)
        # second block: silent queries everywhere
        for _ in range(8):
            cache.append(
                rng.normal(size=8), rng.normal(size=8), np.full(8, 1e-6)
            )
        running = cache.query_accumulator.importance()
        assert running[0] > 10.0
        # channel 0 keeps its promoted tier in the second block
        assert cache.assignments[1].bits[0] == 16
