"""
Searching the threshold plane
=============================

The two salience thresholds (tau_full, tau_mid) trade storage against
fidelity: tighter thresholds promote more channels, spending bits to
cut attention error. Neither objective has a free lunch, so the search
returns the whole Pareto frontier and lets a bit budget pick the
operating point.
"""

from kvmix import (
    BudgetInfeasible,
    CacheConfig,
    PlantedSpec,
    evaluate_grid,
    pareto_frontier,
    select_under_budget,
)

config = CacheConfig(dim=32, group_size=8, residual_len=32, sink_len=4)
spec = PlantedSpec(dim=32, length=64, n_outlier_scale=4, n_outlier_query=4, overlap=0)
instances = [spec.materialize(s) for s in range(5)]

# Evaluate every ordered pair on the grid (tau_mid <= tau_full). The
# thresholds only move channels between tiers, so each instance is
# ingested twice, at (top, top) and (top, bottom) for the grid's largest
# tau_full and smallest tau_mid. Every candidate then re-selects each
# block's tiers, and its logit error and b_eff are averaged over the
# instances.
# The planted channels carry salience around 10 and the background sits
# near 1, so the range 0.1..12 spans all-promoted to all-demoted.
log = evaluate_grid(instances, config, lo=0.1, hi=12.0, grid_points=8)
print(f"evaluated {len(log)} threshold pairs on {len(instances)} seeds each")

# Most candidates are dominated: some other pair is at least as good on
# both objectives and strictly better on one. The frontier is what's
# left, sorted by ascending storage.
front = pareto_frontier(log)
print(f"frontier: {len(front)} nondominated points\n")
print(f"{'tau_full':>9} {'tau_mid':>9} {'b_eff':>8} {'fidelity':>12}")
for p in front:
    print(f"{p.tau_full:9.3f} {p.tau_mid:9.3f} {p.b_eff:8.3f} {p.fidelity:12.6f}")

# Fidelity is nonincreasing along the frontier: paying more bits never
# hurts. The (0.1, 0.1) corner promotes every channel and sits at
# (b_eff 16, fidelity 0), the exact-storage anchor.

# A deployment has a bit budget. Pick the most faithful frontier point
# that fits.
for budget in (3.5, 6.0, 16.0):
    choice = select_under_budget(front, budget)
    print(
        f"\nbudget {budget:5.1f} bits -> thresholds "
        f"({choice.tau_full:.3f}, {choice.tau_mid:.3f}), "
        f"b_eff {choice.b_eff:.3f}, fidelity {choice.fidelity:.6f}"
    )

# Below the cheapest frontier point there is nothing to select: even
# all-2-bit storage keeps the sink and residual rows at 16 bits.
try:
    select_under_budget(front, 2.0)
except BudgetInfeasible as exc:
    print(f"\nbudget   2.0 bits -> infeasible: {exc}")
