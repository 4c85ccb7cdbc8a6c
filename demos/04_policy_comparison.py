"""
Allocation policies under a matched bit budget
==============================================

The question the simulator answers: given the same number of stored
bits, which channels should get them? Four policies compete:

    salience        top-k by importance * sensitivity (query-aware)
    error-only      top-k by sensitivity alone (query-blind)
    fixed-uniform   every channel at one width (2 or 4 bits)
    full-precision  nothing quantized (the zero-error reference)

The decode simulation measures what a decoder feeding the sequence token
by token would see: at each step the query attends over the prefix as
the cache holds it, flushed tokens reconstructed and the rest exact.
Flushed blocks never change, so it ingests the sequence once, builds one
reconstruction, and evaluates every step in a few matrix passes,
accumulating the pre-softmax logit error  E_attn = Q (K - K_hat)^T  and
the attended output error against exact attention.
"""

import numpy as np

from kvmix import AllocationPolicy, CacheConfig, PlantedSpec, decode_simulation

config = CacheConfig(dim=32, group_size=8, residual_len=32, sink_len=4)
spec = PlantedSpec(dim=32, length=64, n_outlier_scale=4, n_outlier_query=4, overlap=0)
budget = (4, 4)  # 4 channels at 16 bits, 4 at 4 bits, the rest at 2

policies = [
    AllocationPolicy.salience(budget),
    AllocationPolicy.error_only(budget),
    AllocationPolicy.fixed_uniform(4),
    AllocationPolicy.fixed_uniform(2),
    AllocationPolicy.full_precision(),
]

seeds = range(40)
print(f"{'policy':<18} {'b_eff':>7} {'|E_attn|_F':>12} {'output err':>12}")
results = {}
for policy in policies:
    reports = [decode_simulation(spec, config, policy, seed=s) for s in seeds]
    b = np.mean([r.effective_bits for r in reports])
    e = np.mean([r.e_attn_frobenius for r in reports])
    o = np.mean([r.output_error_frobenius for r in reports])
    results[policy.label] = [r.e_attn_frobenius for r in reports]
    print(f"{policy.label:<18} {b:7.3f} {e:12.5f} {o:12.5f}")

# The salience and error-only rows store the same number of bits (the
# same top-k budget), yet the query-aware ranking wins the pairwise
# comparison on nearly every seed.
sal = np.array(results["salience"])
err = np.array(results["error-only"])
wins = int((sal < err).sum())
print(f"\nsalience beats error-only on {wins}/{len(sal)} seeds "
      f"(median ratio {np.median(sal / err):.3f})")

# Why: error-only spends its 16-bit budget on the widest channels, but
# in this workload the widest channels face damped queries. Salience
# reads the queries and spends the budget where the logits feel it.

# Monotonicity sanity check along the uniform axis.
f4 = np.array(results["fixed-uniform-4"])
f2 = np.array(results["fixed-uniform-2"])
print(f"fixed 4-bit beats fixed 2-bit on {int((f4 < f2).sum())}/{len(f4)} seeds")
print(f"full precision error: {max(results['full-precision']):.1e} (identically zero)")
