"""End-to-end acceptance suite.

Every check here is a hard product guarantee with an explicit tolerance
and a runtime ceiling. Each prints one machine-greppable line:

    ACCEPTANCE <name>: PASS | FAIL

Run with -s (or read the captured-output section) to see the lines.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from kvmix import (
    AllocationPolicy,
    BitWidth,
    CacheConfig,
    MixedKVCache,
    PlantedSpec,
    decode_simulation,
    evaluate_grid,
    pareto_frontier,
    resolve_assignment,
)
from kvmix.quant import dequantize_group, pack_codes, quantize_group, unpack_codes


@contextmanager
def criterion(name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - started:.1f}s)")


# Shared workload geometry for the simulator-level checks. The planted
# generator's boosts/damping and the 0.7 dominance ratio below were
# calibrated once against a brute-force sweep and then frozen; see the
# generator's docstring for the planted structure.
SIM_CONFIG = CacheConfig(dim=32, group_size=8, residual_len=32, sink_len=4)
SIM_SPEC = PlantedSpec(dim=32, length=64, n_outlier_scale=4, n_outlier_query=4, overlap=0)


def test_reconstruction_error_bounded_by_half_scale():
    """10,000 random groups: every element within s/2 of its original."""
    with criterion("error-bound"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        widths = (BitWidth.UINT2, BitWidth.UINT4)
        checked = 0
        for i in range(10_000):
            length = int(rng.integers(1, 257))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            loc = rng.normal() * scale
            x = rng.normal(loc=loc, scale=scale, size=length)
            g = quantize_group(x, widths[i % 2])
            x_hat = dequantize_group(g)
            slack = 8 * np.spacing(np.maximum(np.abs(x), np.abs(x_hat)))
            assert np.all(np.abs(x - x_hat) <= g.scale / 2 + slack), (
                f"group {i}: violation at width {int(widths[i % 2])}"
            )
            checked += length
        assert checked >= 10_000
        assert time.perf_counter() - started < 10.0


def test_pack_unpack_exhaustive_round_trip():
    """All short code sequences and every tail-padding case, bit-exact."""
    with criterion("pack-round-trip"):
        started = time.perf_counter()

        def check(codes, width):
            buf = pack_codes(codes, width)
            assert len(buf.data) == (len(codes) * int(width) + 7) // 8
            assert unpack_codes(buf).tolist() == list(codes)

        # exhaustive short sequences
        for length in range(1, 7):
            for codes in itertools.product(range(4), repeat=length):
                check(codes, BitWidth.UINT2)
        for length in range(1, 4):
            for codes in itertools.product(range(16), repeat=length):
                check(codes, BitWidth.UINT4)
        # every residual-bit pattern for longer sequences
        rng = np.random.default_rng(7)
        for width, symbols in ((BitWidth.UINT2, 4), (BitWidth.UINT4, 16)):
            for length in range(1, 18):
                for value in range(symbols):
                    check([value] * length, width)
                check([i % symbols for i in range(length)], width)
                for _ in range(20):
                    check(rng.integers(0, symbols, size=length).tolist(), width)
        assert time.perf_counter() - started < 5.0


def _same_group(a, b) -> bool:
    return (
        a.codes.data == b.codes.data
        and a.codes.bit_width == b.codes.bit_width
        and a.zero_point == b.zero_point
        and a.scale == b.scale
    )


def _assert_same_cache_state(a: MixedKVCache, b: MixedKVCache) -> None:
    assert a.num_tokens == b.num_tokens
    assert a.flushed_tokens == b.flushed_tokens
    assert a.assignments == b.assignments
    assert len(a.key_blocks) == len(b.key_blocks)
    for blk_a, blk_b in zip(a.key_blocks, b.key_blocks):
        assert (blk_a.start, blk_a.length) == (blk_b.start, blk_b.length)
        assert blk_a.is_sink == blk_b.is_sink
        if blk_a.is_sink:
            np.testing.assert_array_equal(blk_a.keys_exact, blk_b.keys_exact)
        else:
            np.testing.assert_array_equal(
                blk_a.assignment.channels_at(16), blk_b.assignment.channels_at(16)
            )
            np.testing.assert_array_equal(blk_a.outlier_columns, blk_b.outlier_columns)
            assert blk_a.groups.keys() == blk_b.groups.keys()
            for ch in blk_a.groups:
                assert len(blk_a.groups[ch]) == len(blk_b.groups[ch])
                assert all(
                    _same_group(ga, gb)
                    for ga, gb in zip(blk_a.groups[ch], blk_b.groups[ch])
                )
    for blk_a, blk_b in zip(a.value_blocks, b.value_blocks):
        assert blk_a.is_exact == blk_b.is_exact
        if blk_a.is_exact:
            np.testing.assert_array_equal(blk_a.values_exact, blk_b.values_exact)
        else:
            for row_a, row_b in zip(blk_a.rows, blk_b.rows):
                assert all(_same_group(ga, gb) for ga, gb in zip(row_a, row_b))
    np.testing.assert_array_equal(a.reconstruct_keys(), b.reconstruct_keys())
    np.testing.assert_array_equal(a.reconstruct_values(), b.reconstruct_values())


def test_streaming_feed_matches_batch_feed():
    """51 seeded sequences: per-token, whole-batch, and irregular-chunk
    feeding freeze bit-identical storage."""
    with criterion("streaming-equivalence"):
        started = time.perf_counter()
        config = CacheConfig(dim=16, group_size=8, residual_len=32, sink_len=4)
        R = config.residual_len
        cases = [(seed, mult) for seed in range(17) for mult in (1, 2, 3)]
        assert len(cases) >= 50
        for seed, mult in cases:
            n = mult * R
            rng = np.random.default_rng(seed)
            keys = rng.normal(size=(n, config.dim))
            values = rng.normal(size=(n, config.dim))
            queries = rng.normal(size=(n, config.dim))

            token_wise = MixedKVCache(config)
            for i in range(n):
                token_wise.append(keys[i], values[i], queries[i])

            batch = MixedKVCache(config)
            batch.extend(keys, values, queries)

            chunked = MixedKVCache(config)
            cursor = 0
            for step in itertools.cycle((7, 1, 13, 5, 24)):
                if cursor >= n:
                    break
                stop = min(cursor + step, n)
                chunked.extend(keys[cursor:stop], values[cursor:stop], queries[cursor:stop])
                cursor = stop

            _assert_same_cache_state(token_wise, batch)
            _assert_same_cache_state(token_wise, chunked)
        assert time.perf_counter() - started < 30.0


def test_lossless_policy_reproduces_attention_exactly():
    """Unquantized storage must change nothing downstream."""
    with criterion("lossless-identity"):
        policy = AllocationPolicy.full_precision()
        for seed in range(20):
            report = decode_simulation(SIM_SPEC, SIM_CONFIG, policy, seed=seed)
            assert report.output_error_frobenius < 1e-9, f"seed {seed}"
            assert report.e_attn_frobenius < 1e-9, f"seed {seed}"


def test_query_aware_allocation_beats_magnitude_only():
    """200 planted instances, matched bit budgets: ranking channels by
    importance*sensitivity must beat ranking by sensitivity alone."""
    with criterion("query-aware-dominance"):
        started = time.perf_counter()
        budget = (4, 4)
        wins = 0
        ratios = []
        for seed in range(200):
            sal = decode_simulation(
                SIM_SPEC, SIM_CONFIG, AllocationPolicy.salience(budget), seed=seed
            )
            err = decode_simulation(
                SIM_SPEC, SIM_CONFIG, AllocationPolicy.error_only(budget), seed=seed
            )
            # identical top-k budgets must cost identical storage
            assert abs(sal.effective_bits - err.effective_bits) <= 0.05
            assert err.e_attn_frobenius > 0.0
            if sal.e_attn_frobenius < err.e_attn_frobenius:
                wins += 1
            ratios.append(sal.e_attn_frobenius / err.e_attn_frobenius)
        assert wins >= 190, f"query-aware allocation won only {wins}/200"
        median_ratio = float(np.median(ratios))
        assert median_ratio <= 0.7, f"median error ratio {median_ratio:.3f}"
        assert time.perf_counter() - started < 120.0


def test_wider_uniform_storage_is_more_faithful():
    """fixed 4-bit beats fixed 2-bit on at least 95 of 100 instances."""
    with criterion("bit-width-monotonicity"):
        wins = 0
        for seed in range(100):
            four = decode_simulation(
                SIM_SPEC, SIM_CONFIG, AllocationPolicy.fixed_uniform(4), seed=seed
            )
            two = decode_simulation(
                SIM_SPEC, SIM_CONFIG, AllocationPolicy.fixed_uniform(2), seed=seed
            )
            if four.e_attn_frobenius < two.e_attn_frobenius:
                wins += 1
        assert wins >= 95, f"4-bit beat 2-bit on only {wins}/100"


def test_effective_bitwidth_matches_analytic_mixes():
    """Hand-computable tier mixes must come out exact."""
    with criterion("bit-accounting"):
        # 5 + 15 + 80 channels at 16/4/2 bits -> exactly 3.0
        config = CacheConfig(dim=100, group_size=8, residual_len=16, sink_len=0)
        cache = MixedKVCache(config, AllocationPolicy.salience(budget=(5, 15)))
        rng = np.random.default_rng(0)
        for _ in range(16):
            cache.append(
                rng.normal(size=100), rng.normal(size=100), rng.normal(size=100)
            )
        assert cache.residual_tokens == 0
        assert abs(cache.effective_bitwidth() - 3.0) <= 1e-9

        # everything at the lowest tier, no sink, no residual -> exactly 2.0
        config = CacheConfig(
            dim=24, group_size=8, residual_len=16, sink_len=0,
            tau_full=np.inf, tau_mid=np.inf,
        )
        cache = MixedKVCache(config)
        for _ in range(16):
            cache.append(rng.normal(size=24), rng.normal(size=24), rng.normal(size=24))
        assert cache.effective_bitwidth() == 2.0

        # a mixed split with sink rows, against the closed form
        config = CacheConfig(dim=10, group_size=4, residual_len=8, sink_len=4)
        cache = MixedKVCache(config, AllocationPolicy.salience(budget=(2, 3)))
        for _ in range(8):
            cache.append(rng.normal(size=10), rng.normal(size=10), rng.normal(size=10))
        expect = (4 * 10 * 16 + 4 * (2 * 16 + 3 * 4 + 5 * 2)) / (8 * 10)
        assert abs(cache.effective_bitwidth() - expect) <= 1e-9


def test_threshold_search_frontier_is_nondominated():
    """10x10 grid, 20 seeds per candidate: the frontier survives a brute
    force dominance scan and keeps the all-full-precision corner."""
    with criterion("pareto-correctness"):
        started = time.perf_counter()
        instances = [SIM_SPEC.materialize(seed) for seed in range(20)]
        log = evaluate_grid(instances, SIM_CONFIG, lo=0.1, hi=2.0, grid_points=10)
        front = pareto_frontier(log)
        front_set = {(p.tau_full, p.tau_mid) for p in front}

        def dominates(q, p):
            return (
                q.b_eff <= p.b_eff
                and q.fidelity <= p.fidelity
                and (q.b_eff < p.b_eff or q.fidelity < p.fidelity)
            )

        for p in front:
            for q in log:
                assert not dominates(q, p), (
                    f"frontier point ({p.tau_full}, {p.tau_mid}) dominated"
                )
        for p in log:
            if (p.tau_full, p.tau_mid) not in front_set:
                assert any(dominates(q, p) for q in front), (
                    f"dropped point ({p.tau_full}, {p.tau_mid}) is nondominated"
                )
        # the tightest-threshold corner promotes every channel: zero error
        # at full storage cost, which no quantized point can dominate
        corner = [p for p in log if p.tau_full == 0.1 and p.tau_mid == 0.1]
        assert len(corner) == 1
        assert corner[0].fidelity == 0.0
        assert corner[0].b_eff == 16.0
        assert any(
            p.b_eff == corner[0].b_eff and p.fidelity == corner[0].fidelity
            for p in front
        )
        assert time.perf_counter() - started < 180.0


def test_constant_importance_collapses_to_magnitude_ranking():
    """With importance flat across channels the two rankings coincide."""
    with criterion("degenerate-equivalence"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            sens = rng.uniform(0.0, 4.0, size=20)
            c = float(rng.uniform(0.5, 5.0))
            budget = (int(rng.integers(0, 10)), int(rng.integers(0, 10)))
            flat_importance = np.full(sens.size, c)
            thresholds = (1.0, 0.5)  # unused in top-k mode
            assert resolve_assignment(
                AllocationPolicy.salience(budget), flat_importance, sens, thresholds
            ) == resolve_assignment(
                AllocationPolicy.error_only(budget), flat_importance, sens, thresholds
            )


def test_scores_on_tier_boundaries_take_the_cheaper_tier():
    """Equality with a threshold never promotes."""

    def tiers(scores, tau_full, tau_mid):
        # the error-only policy cuts its sensitivity argument alone
        return resolve_assignment(AllocationPolicy.error_only(), None, scores, (tau_full, tau_mid))

    with criterion("tier-boundaries"):
        a = tiers(np.array([1.0, 0.5]), tau_full=1.0, tau_mid=0.5)
        assert a.bits.tolist() == [4, 2]
        for tau in (0.3, 1.0, 2.5, 1e-3, 1e3):
            at_full = tiers(np.array([tau]), tau_full=tau, tau_mid=0.0)
            assert at_full.bits.tolist() == [4]
            at_mid = tiers(np.array([tau]), tau_full=2 * tau, tau_mid=tau)
            assert at_mid.bits.tolist() == [2]
        # and strictly above each boundary promotes
        up = np.nextafter(1.0, np.inf)
        a = tiers(np.array([up, np.nextafter(0.5, 1.0)]), 1.0, 0.5)
        assert a.bits.tolist() == [16, 4]
