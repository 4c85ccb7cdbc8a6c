"""Exhaustive threshold search over the fidelity / bit-budget trade-off.

Every candidate is a threshold pair (tau_full, tau_mid) with
tau_mid <= tau_full, drawn from an even grid over a closed interval.
A candidate is scored by replaying a fixed set of instances through the
cache under the salience policy and averaging the logit-error Frobenius
norm (fidelity, lower is better) and the effective key bit width
(b_eff, lower is cheaper). Both objectives are minimized; the result of
the search is the nondominated set, plus a selector that picks the most
faithful point under a bit budget.

Only the logit error is scored, and the thresholds reach it only
through each block's tiers. The block layout, the salience of every key
channel and its 2- and 4-bit reconstruction do not depend on them. So
evaluate_grid ingests each instance at two of the grid's own candidates,
(top, top) and (top, bottom), which store every channel at each width
some candidate gives it, then re-selects the tiers per candidate and
assembles the key reconstruction from those parts, reconstructing no
values. Its scores equal evaluate_candidate's, a replay per candidate,
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .attention import _decode_rows, _flushed_chunks, _logit_error, decode_simulation
from .cache import CacheConfig, MixedKVCache
from .errors import BudgetInfeasible, InvalidInput, check_array, check_count, check_real
from .policies import AllocationPolicy
from .salience import QueryAccumulator, _tier_bits, sensitivity_score

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
    number, lo > hi, hi - lo beyond float64, or a grid_points below 1
    raises InvalidInput.
    """
    check_count(grid_points, "grid_points", 1)
    lo, hi = float(check_array(lo, "lo", 0)), float(check_array(hi, "hi", 0))
    if lo > hi or not math.isfinite(hi - lo):
        raise InvalidInput(f"threshold range [{lo}, {hi}] is empty or wider than float64")
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

    The result is the full log, in grid order, and each point equals
    evaluate_candidate's on the same instances bit for bit. Each instance
    is ingested at (top, top) and (top, bottom), the largest tau_full and
    smallest tau_mid, rather than once per candidate; each candidate then
    re-selects the tiers of every block from the blocks' salience and is
    scored on the logit error of the assembled key reconstruction alone,
    without values or a softmax. It raises where some candidate's would.
    """
    instances = tuple(instances)
    grid = threshold_grid(lo, hi, grid_points)
    if not instances:
        raise InvalidInput("need at least one instance to evaluate")
    fidelity = [0.0] * len(grid)
    b_eff = [0.0] * len(grid)
    # summed in instance order, then averaged, as evaluate_candidate does
    for inst in instances:
        for i, (f, b) in enumerate(_score_instance(inst, config, grid, steps)):
            fidelity[i] += f
            b_eff[i] += b
    n = len(instances)
    return [
        ParetoPoint(tau_full=tf, tau_mid=tm, b_eff=b / n, fidelity=f / n)
        for (tf, tm), f, b in zip(grid, fidelity, b_eff)
    ]


def _score_instance(inst, config: CacheConfig, grid, steps) -> list[tuple[float, float]]:
    """(fidelity, b_eff) of each candidate on one instance."""
    queries, keys, values = _decode_rows(inst, config, steps)
    # (top, top) stores at 2 bits, and (top, bottom) at 4, every channel some
    # candidate stores at that width, as bottom <= tau_mid <= tau_full <= top;
    # so they overflow exactly when some candidate's own cache would.
    top, bottom = max(tf for tf, _ in grid), min(tm for _, tm in grid)
    low, mid = (
        MixedKVCache(replace(config, tau_full=top, tau_mid=tau_mid)) for tau_mid in (top, bottom)
    )
    low.extend(keys, values, queries)
    mid.extend(keys, values, queries)

    # Each scored block's salience, from the queries up to its end folded
    # left to right as the cache folds them. Row 0 (+inf, above every
    # finite grid threshold) stands for the sink and residual tokens,
    # which every candidate keeps at 16 bits.
    acc = QueryAccumulator(config.dim)
    salience = [np.full(config.dim, np.inf)]
    owner = np.zeros(keys.shape[0], dtype=np.intp)
    for blk in low.key_blocks:
        if blk.is_sink:
            continue
        end = blk.start + blk.length
        acc.add(queries[acc.count : end])
        salience.append(acc.importance() * sensitivity_score(keys[blk.start : end]))
        owner[blk.start : end] = len(salience) - 1
    salience = np.vstack(salience)

    # A channel at 16 bits reads the exact keys (error 0), at 4 or 2 bits
    # the mid or low cache's reconstruction; above top it is at 16 bits in
    # every candidate. The quantizer works column by column, so these equal
    # the rows the candidate's own cache reconstructs.
    d2, d4 = keys - low.reconstruct_keys(), keys - mid.reconstruct_keys()
    chunks = list(_flushed_chunks(keys.shape[0], config.residual_len))
    scores = []
    for tf, tm in grid:
        bits = _tier_bits(salience, tf, tm)[owner]
        delta = np.where(bits == 16, 0.0, np.where(bits == 4, d4, d2))
        sq_logit = 0.0
        for lo, hi, cut, pending in chunks:
            err = _logit_error(queries[lo:hi], delta[:hi], cut, pending)
            sq_logit += float(np.sum(err * err))
        # b_eff as effective_bitwidth counts it: integer bits over tokens * dim
        scores.append((math.sqrt(sq_logit), int(bits.sum(dtype=np.int64)) / keys.size))
    return scores


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

    Raises BudgetInfeasible when every point exceeds the budget, and
    InvalidInput for a budget that is not a number or is NaN; +inf
    selects the global minimum. Fidelity ties resolve to the cheaper
    point.
    """
    max_b_eff = check_real(max_b_eff, "max_b_eff")
    if math.isnan(max_b_eff):
        raise InvalidInput("max_b_eff must not be NaN")
    feasible = [p for p in frontier if p.b_eff <= max_b_eff]
    if not feasible:
        raise BudgetInfeasible(
            f"no evaluated point stores keys at <= {max_b_eff} bits per element"
        )
    return min(feasible, key=lambda p: (p.fidelity, p.b_eff, p.tau_full, p.tau_mid))
