"""Threshold grid search and Pareto frontier tests.

The frontier routine is checked against a literal O(n^2) dominance scan
on synthetic point clouds, then end to end on a tiny real search.
"""

import numpy as np
import pytest

from kvmix import (
    BudgetInfeasible,
    CacheConfig,
    InvalidInput,
    InvalidThresholds,
    ParetoPoint,
    PlantedSpec,
    evaluate_candidate,
    evaluate_grid,
    pareto_frontier,
    select_under_budget,
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
