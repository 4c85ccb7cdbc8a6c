"""Threshold grid search and Pareto frontier tests.

The frontier routine is checked against a literal O(n^2) dominance scan
on synthetic point clouds, then end to end on a tiny real search. The
ingest-once grid is checked against evaluate_candidate, one replay per
candidate, for exact equality.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvmix.attention
import kvmix.search
from kvmix import (
    AttentionInstance,
    BudgetInfeasible,
    CacheConfig,
    InvalidInput,
    InvalidThresholds,
    MixedKVCache,
    ParetoPoint,
    PlantedSpec,
    QueryAccumulator,
    evaluate_candidate,
    evaluate_grid,
    pareto_frontier,
    select_under_budget,
    sensitivity_score,
    threshold_grid,
)


def mk(b_eff: float, fidelity: float) -> ParetoPoint:
    return ParetoPoint(tau_full=0.0, tau_mid=0.0, b_eff=b_eff, fidelity=fidelity)


def coords(points) -> set:
    return {(p.b_eff, p.fidelity) for p in points}


class TestThresholdGrid:
    def test_upper_triangle_count(self):
        grid = threshold_grid(0.1, 2.0, 5)
        assert len(grid) == 5 * 6 // 2

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
        with pytest.raises(InvalidThresholds):
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


def per_candidate(instances, config, lo, hi, grid_points, steps=None):
    """The grid as evaluate_candidate scores it, one replay per candidate."""
    return [
        evaluate_candidate(tf, tm, instances, config, steps=steps)
        for tf, tm in threshold_grid(lo, hi, grid_points)
    ]


def raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)
    return None


@st.composite
def search_cases(draw):
    group = draw(st.integers(1, 4))
    residual = group * draw(st.integers(1, 4))
    config = CacheConfig(
        dim=draw(st.integers(1, 6)),
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
        instances.append(AttentionInstance(queries, keys, values))
    lo = draw(st.floats(0.0, 2.0))
    hi = lo + draw(st.floats(0.0, 6.0))
    return instances, config, lo, hi, draw(st.integers(1, 4)), steps


class TestIngestOnceGrid:
    """evaluate_grid equals one evaluate_candidate replay per candidate."""

    CFG = CacheConfig(dim=16, group_size=8, residual_len=16, sink_len=2)
    SPEC = PlantedSpec(dim=16, length=40, n_outlier_scale=2, n_outlier_query=2)

    @given(search_cases())
    @settings(max_examples=60, deadline=None)
    def test_grid_equals_per_candidate_replay(self, case):
        instances, config, lo, hi, grid_points, steps = case
        assert evaluate_grid(instances, config, lo, hi, grid_points, steps) == per_candidate(
            instances, config, lo, hi, grid_points, steps
        )

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
        if not quantizing:
            expected = per_candidate(instances, config, 0.1, 2.0, 3)
        replays = []
        replay = kvmix.search.decode_simulation
        monkeypatch.setattr(
            kvmix.search, "decode_simulation", lambda *a, **k: replays.append(1) or replay(*a, **k)
        )
        if quantizing:
            assert raised(lambda: evaluate_grid(instances, config, 0.1, 2.0, 3)) is InvalidInput
        else:
            assert evaluate_grid(instances, config, 0.1, 2.0, 3) == expected
        # the grid never falls back to a replay per candidate
        assert replays == []

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
        assert evaluate_grid([inst], self.CFG, lo, hi, 4) == per_candidate([inst], self.CFG, lo, hi, 4)

    @pytest.mark.parametrize(
        "case",
        ["no_instances", "inverted_range", "geometry_mismatch", "steps_past_length", "not_an_instance"],
    )
    def test_errors_match_per_candidate_path(self, case):
        inst = self.SPEC.materialize(0)
        args = {
            "no_instances": ((), self.CFG, 0.1, 2.0, 3, None),
            "inverted_range": ([inst], self.CFG, 2.0, 0.1, 3, None),
            "geometry_mismatch": ([inst], CacheConfig(dim=8, group_size=8, residual_len=16), 0.1, 2.0, 3, None),
            "steps_past_length": ([inst], self.CFG, 0.1, 2.0, 3, 41),
            "not_an_instance": ([inst, "trace"], self.CFG, 0.1, 2.0, 3, None),
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
        # the assembled K - K_hat of each candidate is the candidate cache's own
        inst = self.SPEC.materialize(2)
        grid = threshold_grid(0.05, 3.0, 4)
        captured = []
        original = kvmix.search._logit_error

        def capture(q, delta, cut, pending):
            captured.append(delta)
            return original(q, delta, cut, pending)

        monkeypatch.setattr(kvmix.search, "_logit_error", capture)
        evaluate_grid([inst], self.CFG, 0.05, 3.0, 4)
        assert len(captured) == len(grid)
        for (tf, tm), delta in zip(grid, captured):
            cache = MixedKVCache(CacheConfig(dim=16, group_size=8, residual_len=16, sink_len=2, tau_full=tf, tau_mid=tm))
            cache.extend(inst.keys, inst.values, inst.queries)
            assert np.array_equal(delta, inst.keys - cache.reconstruct_keys())

    def test_search_reads_keys_only(self, monkeypatch):
        # candidates are scored on the logit error: no value is
        # reconstructed and no softmax taken on the ingest-once path
        def refuse(*args, **kwargs):
            raise AssertionError("the search read values or took a softmax")

        monkeypatch.setattr(MixedKVCache, "reconstruct_values", refuse)
        monkeypatch.setattr(kvmix.attention, "_softmax_rows", refuse)
        points = evaluate_grid([self.SPEC.materialize(0)], self.CFG, 0.05, 3.0, 4)
        assert len(points) == len(threshold_grid(0.05, 3.0, 4))

    @pytest.mark.parametrize("chunk, steps", [(7, None), (7, 33), (8, None), (1, 20)])
    def test_grid_equals_per_candidate_replay_across_chunks(self, chunk, steps):
        # 40 rows, or `steps` of them, in chunks of `chunk` query rows:
        # chunks of 7 end in a partial chunk, the others in a full one
        instances = [self.SPEC.materialize(seed) for seed in (0, 1)]
        with mock.patch.object(kvmix.attention, "_DECODE_CHUNK", chunk):
            assert evaluate_grid(instances, self.CFG, 0.05, 3.0, 4, steps) == per_candidate(
                instances, self.CFG, 0.05, 3.0, 4, steps
            )
