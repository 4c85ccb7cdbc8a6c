"""Threshold grid search and Pareto frontier tests.

The frontier routine is checked against a literal O(n^2) dominance scan
on synthetic point clouds, then end to end on a tiny real search. The
ingest-once grid is checked against evaluate_candidate, one replay per
candidate: thresholds and b_eff exactly, and each instance's squared
fidelity to within 1e-12 times an envelope of its rounding error,
at most the Cauchy-Schwarz bound.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvmix.attention
import kvmix.search
from kvmix import (
    AllocationPolicy,
    AttentionInstance,
    BudgetInfeasible,
    CacheConfig,
    InvalidInput,
    MixedKVCache,
    ParetoPoint,
    PlantedSpec,
    QueryAccumulator,
    apply_rope,
    decode_simulation,
    evaluate_grid,
    pareto_frontier,
    select_under_budget,
    sensitivity_score,
    threshold_grid,
)
from kvmix.search import evaluate_candidate


def mk(b_eff: float, fidelity: float) -> ParetoPoint:
    return ParetoPoint(tau_full=0.0, tau_mid=0.0, b_eff=b_eff, fidelity=fidelity)


def coords(points) -> set:
    return {(p.b_eff, p.fidelity) for p in points}


class TestThresholdGrid:
    def test_upper_triangle_count(self):
        grid = threshold_grid(0.1, 2.0, 5)
        assert len(grid) == 5 * 6 // 2
        # pairs are kept by index, so a range whose axis repeats values
        # still gives the upper triangle
        assert len(threshold_grid(1.0, 1.0, 3)) == 3 * 4 // 2
        assert len(threshold_grid(1.0, np.nextafter(1.0, 2.0), 4)) == 4 * 5 // 2

    def test_every_pair_ordered(self):
        for tf, tm in threshold_grid(0.5, 1.5, 7):
            assert tm <= tf

    def test_endpoints_present(self):
        grid = threshold_grid(0.1, 2.0, 4)
        assert (0.1, 0.1) in grid
        assert (2.0, 2.0) in grid
        assert (2.0, 0.1) in grid

    def test_single_point_grid(self):
        assert threshold_grid(1.0, 1.0, 1) == [(1.0, 1.0)]

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidInput):
            threshold_grid(2.0, 1.0, 4)

    def test_infinite_bound_rejected(self):
        with pytest.raises(InvalidInput):
            threshold_grid(0.1, np.inf, 3)


class TestDominance:
    def test_componentwise_better_dominates(self):
        # (3,1) dominates (4,2): at least as good on both, better on one
        front = pareto_frontier([mk(3, 1), mk(4, 2)])
        assert coords(front) == {(3, 1)}

    def test_tradeoff_points_are_incomparable(self):
        front = pareto_frontier([mk(3, 2), mk(4, 1)])
        assert coords(front) == {(3, 2), (4, 1)}

    def test_equal_on_one_axis_still_dominates(self):
        front = pareto_frontier([mk(3, 1), mk(3, 2)])
        assert coords(front) == {(3, 1)}

    def test_exact_duplicates_survive_together(self):
        front = pareto_frontier([mk(3, 1), mk(3, 1)])
        assert len(front) == 2

    def test_sorted_by_ascending_storage(self):
        front = pareto_frontier([mk(4, 1), mk(2, 5), mk(3, 2)])
        assert [p.b_eff for p in front] == [2, 3, 4]

    def test_fidelity_nonincreasing_along_frontier(self):
        rng = np.random.default_rng(0)
        pts = [mk(b, f) for b, f in rng.uniform(0, 10, size=(50, 2))]
        front = pareto_frontier(pts)
        fids = [p.fidelity for p in front]
        assert all(a >= b for a, b in zip(fids, fids[1:]))

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = [mk(b, f) for b, f in rng.uniform(0, 5, size=(40, 2))]
            front = pareto_frontier(pts)
            surviving = coords(front)
            for p in pts:
                dominated = any(
                    (q.b_eff <= p.b_eff and q.fidelity <= p.fidelity)
                    and (q.b_eff < p.b_eff or q.fidelity < p.fidelity)
                    for q in pts
                )
                assert ((p.b_eff, p.fidelity) in surviving) == (not dominated)

    def test_invariant_to_input_order(self):
        rng = np.random.default_rng(2)
        pts = [mk(b, f) for b, f in rng.uniform(0, 5, size=(30, 2))]
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert coords(pareto_frontier(pts)) == coords(pareto_frontier(shuffled))

    def test_invariant_to_duplication(self):
        rng = np.random.default_rng(3)
        pts = [mk(b, f) for b, f in rng.uniform(0, 5, size=(20, 2))]
        assert coords(pareto_frontier(pts + pts)) == coords(pareto_frontier(pts))

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidInput):
            pareto_frontier([])


class TestSelectUnderBudget:
    FRONT = [mk(2.3, 5.0), mk(2.7, 3.0), mk(3.4, 1.0)]

    def test_picks_best_feasible(self):
        chosen = select_under_budget(self.FRONT, 2.8)
        assert (chosen.b_eff, chosen.fidelity) == (2.7, 3.0)

    def test_tight_budget_infeasible(self):
        with pytest.raises(BudgetInfeasible):
            select_under_budget(self.FRONT, 2.0)

    def test_loose_budget_takes_global_minimum(self):
        chosen = select_under_budget(self.FRONT, 100.0)
        assert (chosen.b_eff, chosen.fidelity) == (3.4, 1.0)

    def test_budget_boundary_is_inclusive(self):
        chosen = select_under_budget(self.FRONT, 2.3)
        assert chosen.b_eff == 2.3

    def test_fidelity_tie_resolves_to_cheaper_point(self):
        chosen = select_under_budget([mk(3.0, 1.0), mk(2.0, 1.0)], 10.0)
        assert chosen.b_eff == 2.0

    def test_infinite_budget_takes_global_minimum(self):
        chosen = select_under_budget(self.FRONT, float("inf"))
        assert (chosen.b_eff, chosen.fidelity) == (3.4, 1.0)


class TestSearchSpec:
    """The inputs of one search: its instances and its threshold range."""

    CFG = CacheConfig(dim=16, group_size=8, residual_len=16, sink_len=2)

    def test_requires_instances(self):
        with pytest.raises(InvalidInput):
            evaluate_grid((), self.CFG)

    def test_rejects_inverted_range(self):
        with pytest.raises(InvalidInput):
            inst = PlantedSpec(dim=16, length=16).materialize(0)
            evaluate_grid([inst], self.CFG, lo=2.0, hi=0.1)


class TestEvaluation:
    CFG = CacheConfig(dim=16, group_size=8, residual_len=16, sink_len=2)
    SPEC = PlantedSpec(dim=16, length=32, n_outlier_scale=2, n_outlier_query=2)

    def test_inverted_thresholds_rejected(self):
        inst = self.SPEC.materialize(0)
        with pytest.raises(InvalidInput):
            evaluate_candidate(0.5, 1.0, [inst], self.CFG)

    def test_candidate_averages_over_instances(self):
        insts = [self.SPEC.materialize(s) for s in (0, 1)]
        point = evaluate_candidate(1.0, 0.5, insts, self.CFG)
        singles = [evaluate_candidate(1.0, 0.5, [i], self.CFG) for i in insts]
        assert point.fidelity == pytest.approx(
            np.mean([s.fidelity for s in singles])
        )
        assert point.b_eff == pytest.approx(np.mean([s.b_eff for s in singles]))

    def test_tiny_end_to_end_search(self):
        insts = [self.SPEC.materialize(s) for s in (0, 1)]
        log = evaluate_grid(insts, self.CFG, lo=0.05, hi=3.0, grid_points=4)
        assert len(log) == 4 * 5 // 2
        front = pareto_frontier(evaluate_grid(insts, self.CFG, lo=0.05, hi=3.0, grid_points=4))
        assert front == pareto_frontier(log)
        evaluated = coords(log)
        assert coords(front) <= evaluated
        # nothing on the frontier is dominated by anything evaluated
        for p in front:
            for q in log:
                assert not (
                    (q.b_eff <= p.b_eff and q.fidelity <= p.fidelity)
                    and (q.b_eff < p.b_eff or q.fidelity < p.fidelity)
                )

    def test_looser_thresholds_cost_fidelity_but_save_bits(self):
        insts = [self.SPEC.materialize(s) for s in (0, 1, 2)]
        tight = evaluate_candidate(0.05, 0.05, insts, self.CFG)
        loose = evaluate_candidate(50.0, 50.0, insts, self.CFG)
        assert tight.b_eff > loose.b_eff
        assert tight.fidelity <= loose.fidelity


def per_candidate(instances, config, lo, hi, grid_points):
    """The grid as evaluate_candidate scores it, one replay per candidate."""
    return [evaluate_candidate(tf, tm, instances, config) for tf, tm in threshold_grid(lo, hi, grid_points)]


def prefix(inst, steps):
    """`inst` cut to its first `steps` rows, all of them for None."""
    return AttentionInstance(inst.queries[:steps], inst.keys[:steps], inst.values[:steps])


def envelope(inst, cache) -> float:
    """Rounding scale of a replay's squared logit error.

    The sum of (|q_t| . |delta_j|)^2 over each step t and token j that step
    t sees flushed, t >= (j // R + 1) * R - 1. It is at most the
    Cauchy-Schwarz bound sum_j |delta_j|^2 sum_{t >= f_j} |q_t|^2, and
    unlike that bound it does not change when a channel's keys and queries
    are scaled by reciprocal factors, which leaves every logit as it is.
    """
    queries, keys = inst.queries, inst.keys
    residual = cache.config.residual_len
    delta = keys - cache.reconstruct_keys()
    first = (np.arange(len(keys)) // residual + 1) * residual - 1
    seen = np.arange(len(queries))[:, None] >= first[None, :]
    return float(np.sum(np.where(seen, np.abs(queries) @ np.abs(delta).T, 0.0) ** 2))


def assert_grid_matches_replay(instances, config, lo, hi, grid_points):
    """evaluate_grid against a replay per candidate.

    Thresholds and b_eff are equal. On each instance alone, a candidate's
    squared fidelity is within 1e-12 E of its replay's, E the envelope of
    the replay's cache; over several, the grid averages those fidelities
    in instance order, as evaluate_candidate does.
    """
    singles = [evaluate_grid([inst], config, lo, hi, grid_points) for inst in instances]
    for inst, points in zip(instances, singles):
        for point in points:
            candidate = replace(config, tau_full=point.tau_full, tau_mid=point.tau_mid)
            report, cache = decode_simulation(inst, candidate, AllocationPolicy.salience(), return_cache=True)
            assert point.b_eff == report.effective_bits
            gap = abs(point.fidelity**2 - report.e_attn_frobenius**2)
            assert gap <= 1e-12 * envelope(inst, cache)
    points = evaluate_grid(instances, config, lo, hi, grid_points)
    replays = per_candidate(instances, config, lo, hi, grid_points)
    assert [(p.tau_full, p.tau_mid, p.b_eff) for p in points] == [
        (p.tau_full, p.tau_mid, p.b_eff) for p in replays
    ]
    assert [p.fidelity for p in points] == [
        sum(single[i].fidelity for single in singles) / len(instances) for i in range(len(points))
    ]


def raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)
    return None


EXPONENTS = [0, 0, 0, 0, -170, -100, 100, 170]


@st.composite
def search_cases(draw):
    group = draw(st.integers(1, 4))
    residual = group * draw(st.integers(1, 4))
    rope = draw(st.booleans())
    config = CacheConfig(
        # the rotary transform rotates channel pairs
        dim=2 * draw(st.integers(1, 3)) if rope else draw(st.integers(1, 6)),
        value_dim=draw(st.integers(1, 6)),
        group_size=group,
        residual_len=residual,
        # sink lengths that split a run, and sinks past the whole instance
        sink_len=draw(st.integers(0, 3 * residual)),
        value_bits=draw(st.sampled_from([2, 4, 16])),
    )
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    steps = draw(st.one_of(st.none(), st.integers(1, min(lengths))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instances = []
    for length in lengths:
        # per-channel key ranges spread the salience across all three tiers
        keys = rng.normal(size=(length, config.dim)) * rng.uniform(0.1, 10.0, config.dim)
        queries = rng.normal(size=(length, config.dim))
        values = rng.normal(size=(length, config.value_dim))
        if rope:
            queries, keys = (apply_rope(x, np.arange(length)) for x in (queries, keys))
        # channels whose keys and queries are scaled by reciprocal factors,
        # up to 1e340 apart: no logit changes, whatever the other channels hold
        exponents = st.lists(st.sampled_from(EXPONENTS), min_size=config.dim, max_size=config.dim)
        ratio = 10.0 ** np.array(draw(exponents))
        keys, queries = keys * ratio, queries / ratio
        # the first `steps` rows, the prefix a replay of `steps` steps reads
        instances.append(AttentionInstance(queries[:steps], keys[:steps], values[:steps]))
    lo = draw(st.floats(0.0, 2.0))
    hi = lo + draw(st.floats(0.0, 6.0))
    return instances, config, lo, hi, draw(st.integers(1, 4))


class TestIngestOnceGrid:
    """evaluate_grid matches one evaluate_candidate replay per candidate."""

    CFG = CacheConfig(dim=16, group_size=8, residual_len=16, sink_len=2)
    SPEC = PlantedSpec(dim=16, length=40, n_outlier_scale=2, n_outlier_query=2)

    @given(search_cases())
    @settings(max_examples=60, deadline=None)
    def test_grid_equals_per_candidate_replay(self, case):
        assert_grid_matches_replay(*case)

    @pytest.mark.parametrize("query_scale", [1e-10, 0.0, 1.5e-308])
    def test_channel_that_overflows_once_quantized(self, query_scale, monkeypatch):
        # Key channel 0 spans [0, float max]: its sensitivity is finite, but
        # quantizing it at 2 or 4 bits overflows. With queries of 1e-10 its
        # salience is above the range, every candidate keeps it at 16 bits,
        # and the grid scores it from its two ingests, replaying nothing.
        # With zero queries its salience is 0 and every candidate quantizes
        # it; with 1.5e-308 its salience is about 0.9, inside the range, and
        # all candidates but (0.1, 0.1) quantize it. Then both paths raise.
        rng = np.random.default_rng(0)
        instances = [AttentionInstance(*(rng.normal(size=(40, 4)) for _ in range(3))) for _ in range(2)]
        instances[0].keys[:, 0] = np.where(np.arange(40) % 2, np.finfo(np.float64).max, 0.0)
        instances[0].queries[:, 0] = query_scale
        config = CacheConfig(dim=4, group_size=4, residual_len=8, sink_len=2)
        outcomes = [
            raised(lambda: evaluate_candidate(tf, tm, instances, config))
            for tf, tm in threshold_grid(0.1, 2.0, 3)
        ]
        quantizing = {1e-10: 0, 0.0: 6, 1.5e-308: 5}[query_scale]
        assert (outcomes.count(InvalidInput), outcomes.count(None)) == (quantizing, 6 - quantizing)
        replays = []
        replay = kvmix.search.decode_simulation
        monkeypatch.setattr(
            kvmix.search, "decode_simulation", lambda *a, **k: replays.append(1) or replay(*a, **k)
        )
        if quantizing:
            assert raised(lambda: evaluate_grid(instances, config, 0.1, 2.0, 3)) is InvalidInput
        else:
            evaluate_grid(instances, config, 0.1, 2.0, 3)
        # the grid never falls back to a replay per candidate
        assert replays == []
        if not quantizing:
            monkeypatch.undo()
            assert_grid_matches_replay(instances, config, 0.1, 2.0, 3)

    def test_grid_ends_on_a_block_salience(self):
        # lo and hi sit exactly on the salience of some (block, channel), so
        # the two ingests, at (hi, hi) and (hi, lo), see scores equal to
        # their thresholds; a tie takes the cheaper tier in every cache
        inst = self.SPEC.materialize(3)
        cache = MixedKVCache(self.CFG)
        cache.extend(inst.keys, inst.values, inst.queries)
        acc = QueryAccumulator(self.CFG.dim)
        scores = []
        for blk in cache.key_blocks:
            if blk.is_sink:
                continue
            end = blk.start + blk.length
            acc.add(inst.queries[acc.count : end])
            scores.extend(acc.importance() * sensitivity_score(inst.keys[blk.start : end]))
        scores = sorted(scores)
        lo, hi = scores[1], scores[-2]
        grid = threshold_grid(lo, hi, 4)
        assert min(tm for _, tm in grid) == lo and max(tf for tf, _ in grid) == hi
        assert_grid_matches_replay([inst], self.CFG, lo, hi, 4)

    @pytest.mark.parametrize(
        "case",
        [
            "no_instances",
            "inverted_range",
            "geometry_mismatch",
            "not_an_instance",
            "planted_spec",
        ],
    )
    def test_errors_match_per_candidate_path(self, case):
        inst = self.SPEC.materialize(0)
        args = {
            "no_instances": ((), self.CFG, 0.1, 2.0, 3),
            "inverted_range": ([inst], self.CFG, 2.0, 0.1, 3),
            "geometry_mismatch": ([inst], CacheConfig(dim=8, group_size=8, residual_len=16), 0.1, 2.0, 3),
            "not_an_instance": ([inst, "trace"], self.CFG, 0.1, 2.0, 3),
            # a spec is not read as its seed-0 instance by either path
            "planted_spec": ([self.SPEC], self.CFG, 0.1, 2.0, 3),
        }[case]
        expected = raised(lambda: per_candidate(*args))
        assert expected is not None and issubclass(expected, InvalidInput)
        assert raised(lambda: evaluate_grid(*args)) is expected

    def test_ingest_count_does_not_grow_with_the_grid(self, monkeypatch):
        calls = []
        extend = MixedKVCache.extend

        def counting(cache, *rows):
            calls.append(cache)
            return extend(cache, *rows)

        monkeypatch.setattr(MixedKVCache, "extend", counting)
        counts = []
        for grid_points in (2, 6):
            calls.clear()
            evaluate_grid([self.SPEC.materialize(0)], self.CFG, 0.05, 3.0, grid_points)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_reconstruction_matches_the_candidate_cache(self, monkeypatch):
        # the two reference reconstructions and the tier table the Gram form
        # reads assemble, per candidate, into that candidate's own K - K_hat
        inst = self.SPEC.materialize(2)
        grid = threshold_grid(0.05, 3.0, 4)
        caches, tables = [], []
        reconstruct, tier_bits = MixedKVCache.reconstruct_keys, kvmix.search._tier_bits
        monkeypatch.setattr(MixedKVCache, "reconstruct_keys", lambda c: caches.append(c) or reconstruct(c))
        monkeypatch.setattr(kvmix.search, "_tier_bits", lambda *a: tables.append(tier_bits(*a)) or tables[-1])
        evaluate_grid([inst], self.CFG, 0.05, 3.0, 4)
        low, mid = caches
        assert (low.config.tau_full, low.config.tau_mid, mid.config.tau_mid) == (3.0, 3.0, 0.05)
        (tiers,) = tables
        d2, d4 = (inst.keys - reconstruct(c) for c in (low, mid))
        scored = [blk for blk in low.key_blocks if not blk.is_sink]
        assert tiers.shape == (len(grid), len(scored), self.CFG.dim)
        for (tf, tm), rows in zip(grid, tiers):
            delta = np.zeros_like(inst.keys)
            for blk, bits in zip(scored, rows):
                span = slice(blk.start, blk.start + blk.length)
                delta[span] = np.where(bits == 2, d2[span], np.where(bits == 4, d4[span], 0.0))
            cache = MixedKVCache(replace(self.CFG, tau_full=tf, tau_mid=tm))
            cache.extend(inst.keys, inst.values, inst.queries)
            assert np.array_equal(delta, inst.keys - reconstruct(cache))

    def test_search_reads_keys_only(self, monkeypatch):
        # candidates are scored on the logit error: no value is
        # reconstructed and no softmax taken on the ingest-once path
        def refuse(*args, **kwargs):
            raise AssertionError("the search read values or took a softmax")

        monkeypatch.setattr(MixedKVCache, "reconstruct_values", refuse)
        monkeypatch.setattr(kvmix.attention, "_softmax_rows", refuse)
        points = evaluate_grid([self.SPEC.materialize(0)], self.CFG, 0.05, 3.0, 4)
        assert len(points) == len(threshold_grid(0.05, 3.0, 4))

    @pytest.mark.parametrize("value_scale", [0.0, 1e300])
    def test_grid_does_not_depend_on_values(self, value_scale):
        inst = self.SPEC.materialize(0)
        swapped = AttentionInstance(inst.queries, inst.keys, inst.values * value_scale)
        points = evaluate_grid([inst], self.CFG, 0.05, 3.0, 4)
        assert evaluate_grid([swapped], self.CFG, 0.05, 3.0, 4) == points

    def test_value_overflow_raises_in_the_replay_alone(self):
        # row 10's value group spans 3.4e308: a candidate's replay cannot
        # quantize it, but the grid, which reads no value, scores it as if
        # the values were zero
        rng = np.random.default_rng(0)
        queries, keys, values = (rng.normal(size=(40, 4)) for _ in range(3))
        values[10, 0], values[10, 1] = 1.7e308, -1.7e308
        inst = AttentionInstance(queries, keys, values)
        config = CacheConfig(dim=4, group_size=4, residual_len=8, sink_len=2)
        assert raised(lambda: evaluate_candidate(1.0, 0.5, [inst], config)) is InvalidInput
        zeroed = AttentionInstance(queries, keys, np.zeros_like(values))
        points = evaluate_grid([zeroed], config, 0.1, 2.0, 3)
        assert evaluate_grid([inst], config, 0.1, 2.0, 3) == points

    @pytest.mark.parametrize("chunk, steps", [(7, None), (7, 33), (8, None), (1, 20)])
    def test_grid_equals_per_candidate_replay_across_chunks(self, chunk, steps):
        # 40 rows, or the first `steps` of them, replayed in chunks of `chunk`
        # query rows: chunks of 7 end in a partial chunk, the others in a full one
        instances = [prefix(self.SPEC.materialize(seed), steps) for seed in (0, 1)]
        with mock.patch.object(kvmix.attention, "_DECODE_CHUNK", chunk):
            assert_grid_matches_replay(instances, self.CFG, 0.05, 3.0, 4)

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_grid_does_not_depend_on_the_decode_chunk(self, chunk):
        instances = [prefix(self.SPEC.materialize(seed), 33) for seed in (0, 1)]
        points = evaluate_grid(instances, self.CFG, 0.05, 3.0, 6)
        with mock.patch.object(kvmix.attention, "_DECODE_CHUNK", chunk):
            assert evaluate_grid(instances, self.CFG, 0.05, 3.0, 6) == points

    def test_grid_ignores_reciprocal_powers_of_two_on_channels(self):
        # channel 0's keys times 2**565 and queries times 2**-565, channel 5
        # the reverse: every logit, salience and tier stays exactly as it was,
        # and so does every point of the grid
        inst = self.SPEC.materialize(0)
        scale = np.ones(self.CFG.dim)
        scale[[0, 5]] = 2.0**565, 2.0**-565
        scaled = AttentionInstance(inst.queries / scale, inst.keys * scale, inst.values)
        points = evaluate_grid([inst], self.CFG, 0.05, 3.0, 6)
        assert evaluate_grid([scaled], self.CFG, 0.05, 3.0, 6) == points
        assert len({p.fidelity for p in points}) > 2

    def test_equal_tier_maps_give_equal_fidelities(self):
        # candidates whose caches assign every block the same tiers score
        # bit-equal fidelities, the exact ties the frontier keeps together
        inst = self.SPEC.materialize(0)
        points = evaluate_grid([inst], self.CFG, 0.05, 3.0, 8)
        by_map = {}
        for point in points:
            cache = MixedKVCache(replace(self.CFG, tau_full=point.tau_full, tau_mid=point.tau_mid))
            cache.extend(inst.keys, inst.values, inst.queries)
            tiers = tuple(blk.assignment.bits.tobytes() for blk in cache.key_blocks if not blk.is_sink)
            by_map.setdefault(tiers, set()).add(point.fidelity)
        assert len(by_map) < len(points)
        assert all(len(fidelities) == 1 for fidelities in by_map.values())
