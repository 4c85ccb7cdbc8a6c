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
channel and its 2- and 4-bit reconstruction do not depend on them, and
values do not enter it at all: evaluate_grid reads keys and queries
alone. It ingests each instance at the thresholds of two of the
grid's own candidates, (top, top) and (top, bottom), which store every
key channel at each width some candidate gives it. The squared logit error is then a quadratic
form in each block's key error: with G_b the sum of q_t q_t^T over the
steps from block b's flush on, and D_x the block's x-bit errors, a
candidate sums m_x^T (G_b o D_x^T D_y) m_y over x, y in {2, 4} and the
blocks, m_x its channels at x bits. That is O(T D^2) per instance plus
O(B D^2) per distinct tier map of B blocks, where evaluate_candidate's
replays cost O(C T^2 D) for C candidates. b_eff is equal; a squared
fidelity moves by rounding alone, by at most 1e-12 times the sum of
(|q_t| . |delta_j|)^2 over the steps t >= f_j that see token j's error
delta_j, which the Cauchy-Schwarz sum_j |delta_j|^2 sum_{t >= f_j}
|q_t|^2 bounds. Each channel's queries and errors are scaled by
reciprocal powers of two first, so scaling a channel's keys by 2**k and
its queries by 2**-k, which changes no logit, changes no point either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .attention import AttentionInstance, decode_simulation
from .cache import CacheConfig, MixedKVCache
from .errors import (
    BudgetInfeasible, InvalidInput, check_array, check_count, check_items, check_real, check_type
)
from .policies import AllocationPolicy, _tier_bits
from .quant import BitWidth
from .salience import QueryAccumulator, salience_score, sensitivity_score

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
    the upper triangle is kept, the grid_points * (grid_points + 1) / 2
    pairs (axis[i], axis[j]) with j <= i, enumerated tau_full-major,
    ascending. A range bound that is not a finite real number, lo > hi,
    hi - lo beyond float64, or a grid_points below 1 raises InvalidInput.
    """
    check_count(grid_points, "grid_points", 1)
    lo, hi = float(check_array(lo, "lo", 0)), float(check_array(hi, "hi", 0))
    if lo > hi or not math.isfinite(hi - lo):
        raise InvalidInput(f"threshold range [{lo}, {hi}] is empty or wider than float64")
    axis = np.linspace(lo, hi, grid_points).tolist()
    # by index, not by value: a degenerate range repeats axis values
    return [(tf, tm) for i, tf in enumerate(axis) for tm in axis[: i + 1]]


def evaluate_candidate(
    tau_full: float,
    tau_mid: float,
    instances,
    config: CacheConfig,
) -> ParetoPoint:
    """Score one threshold pair: mean fidelity and mean b_eff over AttentionInstances."""
    instances = check_items(instances, "instances")
    if not instances:
        raise InvalidInput("need at least one instance to evaluate")
    check_type(config, "config", CacheConfig)
    candidate_config = replace(config, tau_full=tau_full, tau_mid=tau_mid)
    policy = AllocationPolicy.salience()
    fidelity = 0.0
    b_eff = 0.0
    for inst in instances:
        check_type(inst, "instance", AttentionInstance)
        report = decode_simulation(inst, candidate_config, policy)
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
) -> list[ParetoPoint]:
    """Evaluate every threshold_grid(lo, hi, grid_points) candidate.

    The result is the full log, in grid order. Each instance is ingested
    at (top, top) and (top, bottom), the largest tau_full and smallest
    tau_mid, rather than once per candidate. Each candidate re-selects
    the tiers of every block from the blocks' salience and is scored on
    the logit error alone, from keys and queries, in the Gram form
    of the module docstring: O(T D^2) per instance and O(B D^2) per
    distinct tier map, not a replay's O(T^2 D) per candidate. Its b_eff
    and thresholds equal evaluate_candidate's; an instance's squared
    fidelity is within 1e-12 E of it, E the sum of (|q_t| . |delta_j|)^2
    over tokens j with error delta_j and the steps t >= f_j that see it
    flushed, and candidates with equal tier maps score equal fidelities.
    It raises InvalidInput where some candidate's key ingest or squared
    logit error overflows. A value quantization or an output error that
    alone overflows passes the grid but raises in evaluate_candidate.
    """
    instances = check_items(instances, "instances")
    grid = threshold_grid(lo, hi, grid_points)
    if not instances:
        raise InvalidInput("need at least one instance to evaluate")
    # summed in instance order, then averaged, as evaluate_candidate does
    mean = sum(_score_instance(inst, config, grid) for inst in instances) / len(instances)
    pairs = zip(grid, mean.T.tolist())
    return [ParetoPoint(tau_full=tf, tau_mid=tm, b_eff=b, fidelity=f) for (tf, tm), (f, b) in pairs]


def _score_instance(inst, config: CacheConfig, grid) -> np.ndarray:
    """The (2, candidates) float64 rows of fidelity and b_eff on one instance."""
    check_type(inst, "instance", AttentionInstance)
    check_type(config, "config", CacheConfig)
    queries, keys, values = inst.queries, inst.keys, inst.values
    # (top, top) stores at 2 bits, and (top, bottom) at 4, every key channel
    # some candidate stores at that width, as bottom <= tau_mid <= tau_full <=
    # top, so they overflow exactly when some candidate's own key cache would.
    top, bottom = max(tf for tf, _ in grid), min(tm for _, tm in grid)
    low = MixedKVCache(replace(config, tau_full=top, tau_mid=top, value_bits=BitWidth.FULL))
    mid = MixedKVCache(replace(config, tau_full=top, tau_mid=bottom, value_bits=BitWidth.FULL))
    low.extend(keys, values, queries)
    mid.extend(keys, values, queries)

    # Each scored block's salience, from the queries up to its end folded
    # left to right as the cache folds them. Sink and residual tokens, which
    # every candidate keeps at 16 bits, read back exactly and add no error.
    acc = QueryAccumulator(config.dim)
    spans, salience = [], []
    for blk in low.key_blocks:
        if blk.is_sink:
            continue
        end = blk.start + blk.length
        acc.add(queries[acc.count : end])
        salience.append(salience_score(acc.importance(), sensitivity_score(keys[blk.start : end])))
        spans.append((blk.start, end))
    if not spans:
        return np.repeat([[0.0], [16.0]], len(grid), axis=1)
    salience, taus = np.array(salience), np.array(grid).T[:, :, None, None]
    tiers = _tier_bits(np.broadcast_to(salience, (len(grid), *salience.shape)), *taus)
    # b_eff as effective_bitwidth counts it: integer bits over tokens * dim
    lengths = np.array([end - start for start, end in spans])
    bits = tiers.sum(axis=2, dtype=np.int64) @ lengths
    bits += 16 * config.dim * (len(keys) - lengths.sum())

    # A scored block is one flush, so its tokens' errors enter the logits from
    # step end - 1 on, when the flush that stores them lands. With
    # G_b the sum of q_t q_t^T over those steps and X_b the block's 2- and
    # 4-bit errors side by side, a candidate's squared logit error sums, over
    # blocks, the entries of [G_b G_b; G_b G_b] o X_b^T X_b whose row and
    # column channels it stores at those widths.
    lo, hi = spans[0][0], spans[-1][1]
    flushes = [end - 1 for _, end in spans] + [len(keys)]
    x = np.hstack([keys[lo:hi] - cache.reconstruct_keys()[lo:hi] for cache in (low, mid)])
    # Channel c's queries are scaled by 2**-a_c and its errors by 2**a_c, so
    # their largest entries share an exponent, or the nonzero side's is 0
    # where the other is all zero. Every entry of G o X keeps its exact
    # value, and G and X each hold about its square root, so neither over-
    # nor underflows where the channel's own terms do not.
    dim = config.dim
    q_max = np.abs(queries[flushes[0] :]).max(axis=0)
    x_max = np.abs(x).max(axis=0).reshape(2, dim).max(axis=0)
    q_exp, x_exp = np.frexp(q_max)[1], np.frexp(x_max)[1]
    shift = np.where((q_max > 0) & (x_max > 0), (q_exp - x_exp) // 2, q_exp - x_exp)
    np.ldexp(x, np.tile(shift, 2), out=x)
    # one sum per distinct tier map; candidates that share it share the sum
    flat = tiers.reshape(len(grid), -1)
    _, first, inverse = np.unique(
        flat.view(f"V{flat.shape[1]}").ravel(), return_index=True, return_inverse=True
    )
    # A map indexes each channel's 2- or 4-bit error, or a zero row and column
    # at 16 bits: selected, not multiplied by 0, so an all-16-bit map sums to
    # exactly 0.0 whatever the errors hold.
    channel = np.arange(dim)
    index = np.select([tiers[first] == 2, tiers[first] == 4], [channel, channel + dim], 2 * dim)
    form = np.zeros((2 * dim + 1, 2 * dim + 1))
    gram = np.zeros((dim, dim))
    sq_logit = np.zeros(len(first))
    with np.errstate(over="ignore", invalid="ignore"):
        # last block first, so G_b gathers the queries from its flush step on
        for b in reversed(range(len(spans))):
            window = np.ldexp(queries[flushes[b] : flushes[b + 1]], -shift)
            gram += window.T @ window
            xb = x[spans[b][0] - lo : spans[b][1] - lo]
            np.multiply(np.tile(gram, (2, 2)), xb.T @ xb, out=form[:-1, :-1])
            sq_logit += form[index[:, b, :, None], index[:, b, None, :]].sum(axis=(1, 2))
    # clamp a rounding-negative sum; NaN stays NaN and raises below
    sq_logit = np.maximum(sq_logit, 0.0)[inverse.ravel()]
    if not np.isfinite(sq_logit).all():
        raise InvalidInput("attention logits or errors overflow float64")
    return np.array([np.sqrt(sq_logit), bits / keys.size])


def _dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    return (
        a.fidelity <= b.fidelity
        and a.b_eff <= b.b_eff
        and (a.fidelity < b.fidelity or a.b_eff < b.b_eff)
    )


def _checked(points) -> tuple[ParetoPoint, ...]:
    pts = check_items(points, "points")
    for p in pts:
        check_type(p, "point", ParetoPoint)
        check_real(p.b_eff, "b_eff")
        check_real(p.fidelity, "fidelity")
    return pts


def pareto_frontier(points) -> list[ParetoPoint]:
    """Nondominated subset, sorted by ascending b_eff.

    A point is dominated when some other point is no worse on both
    objectives and strictly better on at least one. Exact objective ties
    survive together. The result is invariant to input order. An item
    that is not a ParetoPoint, or a point whose b_eff or fidelity is not
    a number or is NaN, raises InvalidInput.
    """
    pts = _checked(points)
    if not pts:
        raise InvalidInput("cannot take the frontier of an empty set")
    front = [p for p in pts if not any(_dominates(q, p) for q in pts)]
    return sorted(front, key=lambda p: (p.b_eff, p.fidelity, p.tau_full, p.tau_mid))


def select_under_budget(frontier, max_b_eff: float) -> ParetoPoint:
    """Most faithful frontier point with b_eff <= max_b_eff.

    Raises BudgetInfeasible when every point exceeds the budget, and
    InvalidInput for a budget, or a point's b_eff or fidelity, that is
    not a number or is NaN, or an item that is not a ParetoPoint; +inf
    selects the global minimum.
    Fidelity ties resolve to the cheaper point.
    """
    max_b_eff = check_real(max_b_eff, "max_b_eff")
    feasible = [p for p in _checked(frontier) if p.b_eff <= max_b_eff]
    if not feasible:
        raise BudgetInfeasible(f"no evaluated point stores keys at <= {max_b_eff} bits per element")
    return min(feasible, key=lambda p: (p.fidelity, p.b_eff, p.tau_full, p.tau_mid))
