"""
The streaming mixed-precision cache
===================================

Tokens arrive one at a time. Each (key, value, query) row lands in a
full-precision residual buffer; when the buffer reaches capacity it is
flushed: keys are scored, each channel gets a precision tier, and the
block freezes into immutable quantized storage. The first tokens of
the sequence (the attention sink) are never quantized at all.
"""

import numpy as np

from kvmix import CacheConfig, MixedKVCache, PlantedSpec

config = CacheConfig(
    dim=32,
    group_size=8,      # tokens per (zero, scale) pair within a channel
    residual_len=32,   # buffer capacity; flushes happen here
    sink_len=4,        # leading tokens stored exactly
    tau_full=4.0,
    tau_mid=1.0,
)
inst = PlantedSpec(
    dim=32, length=96, n_outlier_scale=4, n_outlier_query=4, overlap=0
).materialize(seed=1)

cache = MixedKVCache(config)
for t in range(inst.length):
    cache.append(inst.keys[t], inst.values[t], inst.queries[t])
    if cache.residual_tokens == 0:  # a flush just happened
        print(
            f"token {t + 1:3d}: flushed, blocks={len(cache.key_blocks)}, "
            f"b_eff={cache.effective_bitwidth():.3f}"
        )

print(f"\nfinal: {cache.num_tokens} tokens, "
      f"{cache.flushed_tokens} flushed + {cache.residual_tokens} residual")

# Block anatomy: the sink block is exact; scored blocks carry one tier
# vector each, decided from the query history at flush time.
for blk, assignment in zip(cache.key_blocks, cache.assignments):
    if assignment is None:
        print(f"  block @{blk.start:3d} len {blk.length:3d}: sink (exact)")
    else:
        n_full, n_mid, n_low = assignment.tier_counts()
        print(
            f"  block @{blk.start:3d} len {blk.length:3d}: "
            f"{n_full} full / {n_mid} mid / {n_low} low"
        )

# Reconstruction never mutates: flushed blocks are frozen, so the
# prefix you read today is the prefix you read tomorrow.
before = cache.reconstruct_keys()[:64].copy()
cache.append(inst.keys[0], inst.values[0], inst.queries[0])
after = cache.reconstruct_keys()[:64]
print("\nprefix stable under appends:", bool(np.array_equal(before, after)))

# Where does the error live? Exactly where the policy chose to save
# bits, and nowhere else.
rec = cache.reconstruct_keys()[:96]
err = np.abs(rec - inst.keys)
print(f"sink rows error:      {err[:4].max():.2e}  (exact)")
print(f"quantized rows error: {err[4:].max():.2e}  (bounded by tier steps)")

# The effective bit-width counts stored key bits per element, with the
# sink and the residual buffer at 16. Metadata (zero, scale) pairs are
# tallied separately.
print(f"\neffective key bits/element: {cache.effective_bitwidth():.3f}")
print("metadata scalars:", cache.metadata_counts())

# The whole protocol is chunking-invariant: feeding the same rows in
# one call produces bit-identical storage.
other = MixedKVCache(config)
other.extend(inst.keys, inst.values, inst.queries)
other.append(inst.keys[0], inst.values[0], inst.queries[0])
identical = np.array_equal(cache.reconstruct_keys(), other.reconstruct_keys())
print("token-wise feed == batch feed:", bool(identical))
