"""Exhaustive threshold search over the fidelity / bit-budget trade-off.

Every candidate is a threshold pair (tau_full, tau_mid) with
tau_mid <= tau_full, drawn from an even grid over a closed interval.
A candidate is scored by replaying a fixed set of instances through the
cache under the salience policy and averaging the logit-error Frobenius
norm (fidelity, lower is better) and the effective key bit width
(b_eff, lower is cheaper). Both objectives are minimized; the result of
the search is the nondominated set, plus a selector that picks the most
faithful point under a bit budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import decode_simulation
from .cache import CacheConfig
from .errors import BudgetInfeasible, InvalidInput, check_array, check_count
from .policies import AllocationPolicy

__all__ = [
    "ParetoPoint",
    "threshold_grid",
    "evaluate_candidate",
    "evaluate_grid",
    "pareto_frontier",
    "select_under_budget",
]


@dataclass(frozen=True)
class ParetoPoint:
    """One evaluated threshold pair and its two objective values."""

    tau_full: float
    tau_mid: float
    b_eff: float
    fidelity: float


def threshold_grid(lo: float, hi: float, grid_points: int) -> list[tuple[float, float]]:
    """All (tau_full, tau_mid) grid pairs with tau_mid <= tau_full.

    The grid is an even linspace per axis over a finite [lo, hi]; only
    the ordered (upper triangle) pairs are kept, enumerated
    tau_full-major, ascending. A range bound that is not a finite real
    number, lo > hi, or a grid_points below 1 raises InvalidInput.
    """
    check_count(grid_points, "grid_points", 1)
    lo, hi = float(check_array(lo, "lo", 0)), float(check_array(hi, "hi", 0))
    if lo > hi:
        raise InvalidInput(f"empty threshold range [{lo}, {hi}]")
    axis = np.linspace(lo, hi, grid_points)
    return [
        (float(tf), float(tm))
        for tf in axis
        for tm in axis
        if tm <= tf
    ]


def evaluate_candidate(
    tau_full: float,
    tau_mid: float,
    instances,
    config: CacheConfig,
    steps: int | None = None,
) -> ParetoPoint:
    """Score one threshold pair: mean fidelity and mean b_eff over instances."""
    instances = tuple(instances)
    if not instances:
        raise InvalidInput("need at least one instance to evaluate")
    candidate_config = replace(config, tau_full=tau_full, tau_mid=tau_mid)
    policy = AllocationPolicy.salience()
    fidelity = 0.0
    b_eff = 0.0
    for inst in instances:
        report = decode_simulation(inst, candidate_config, policy, steps=steps)
        fidelity += report.e_attn_frobenius
        b_eff += report.effective_bits
    n = len(instances)
    return ParetoPoint(
        tau_full=float(tau_full),
        tau_mid=float(tau_mid),
        b_eff=b_eff / n,
        fidelity=fidelity / n,
    )


def evaluate_grid(
    instances,
    config: CacheConfig,
    lo: float = 0.1,
    hi: float = 2.0,
    grid_points: int = 20,
    steps: int | None = None,
) -> list[ParetoPoint]:
    """Evaluate every threshold_grid(lo, hi, grid_points) candidate.

    Each candidate is scored by evaluate_candidate on the same instances;
    the result is the full log, in grid order.
    """
    instances = tuple(instances)
    return [
        evaluate_candidate(tau_full, tau_mid, instances, config, steps=steps)
        for tau_full, tau_mid in threshold_grid(lo, hi, grid_points)
    ]


def _dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    return (
        a.fidelity <= b.fidelity
        and a.b_eff <= b.b_eff
        and (a.fidelity < b.fidelity or a.b_eff < b.b_eff)
    )


def pareto_frontier(points) -> list[ParetoPoint]:
    """Nondominated subset, sorted by ascending b_eff.

    A point is dominated when some other point is no worse on both
    objectives and strictly better on at least one. Exact objective ties
    survive together. The result is invariant to input order.
    """
    pts = list(points)
    if not pts:
        raise InvalidInput("cannot take the frontier of an empty set")
    front = [
        p
        for p in pts
        if not any(_dominates(q, p) for q in pts)
    ]
    return sorted(front, key=lambda p: (p.b_eff, p.fidelity, p.tau_full, p.tau_mid))


def select_under_budget(frontier, max_b_eff: float) -> ParetoPoint:
    """Most faithful frontier point with b_eff <= max_b_eff.

    Raises BudgetInfeasible when every point exceeds the budget. Fidelity
    ties resolve to the cheaper point.
    """
    feasible = [p for p in frontier if p.b_eff <= max_b_eff]
    if not feasible:
        raise BudgetInfeasible(
            f"no evaluated point stores keys at <= {max_b_eff} bits per element"
        )
    return min(feasible, key=lambda p: (p.fidelity, p.b_eff, p.tau_full, p.tau_mid))
