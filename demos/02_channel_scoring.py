"""
Query-aware channel scoring
===========================

Which key channels deserve precision? Not the ones with the widest
ranges: the ones whose quantization error the queries actually read.
The salience score is the product of two per-channel statistics:

    importance   I_d = mean |Q_d|   (how hard queries push on d)
    sensitivity  S_d = key range / 3  (the 2-bit quantization step)

A channel with a huge range but silent queries contributes nothing to
the attention logits, so it can live at 2 bits.
"""

import numpy as np

from kvmix import (
    AllocationPolicy,
    PlantedSpec,
    QueryAccumulator,
    resolve_assignment,
    salience_score,
    sensitivity_score,
)

# Build a synthetic workload with planted structure: 4 channels get
# 10x key ranges (scale outliers), 4 other channels get 10x query
# magnitudes, and the two sets are disjoint (overlap=0).
inst = PlantedSpec(
    dim=32, length=64, n_outlier_scale=4, n_outlier_query=4, overlap=0
).materialize(seed=0)
print("scale-outlier channels:", inst.planted.scale_channels)
print("query-outlier channels:", inst.planted.query_channels)

# Importance accumulates streamingly; feeding rows one at a time or in
# blocks gives bit-identical sums.
acc = QueryAccumulator(inst.dim)
for q_row in inst.queries:
    acc.add(q_row)
importance = acc.importance()
sensitivity = sensitivity_score(inst.keys)
salience = salience_score(importance, sensitivity)

# The two scores disagree by construction here: big keys where queries
# are quiet, loud queries where keys are ordinary.
pearson = np.corrcoef(importance, sensitivity)[0, 1]
print(f"\nPearson(importance, sensitivity) = {pearson:+.3f}  (decoupled)")

print("\nchannel  importance  sensitivity  salience   planted")
order = np.argsort(-salience)
for d in order[:8]:
    tag = ""
    if d in inst.planted.scale_channels:
        tag = "scale outlier"
    if d in inst.planted.query_channels:
        tag = "query outlier"
    print(
        f"  {d:4d}   {importance[d]:9.3f}  {sensitivity[d]:10.3f}"
        f"  {salience[d]:9.3f}   {tag}"
    )

# Thresholds cut the salience axis into three tiers. Scores above
# tau_full keep 16 bits, scores above tau_mid get 4, the rest get 2.
# Equality never promotes: a score exactly at a threshold takes the
# cheaper tier. The salience policy forms I * S from the two scores.
assignment = resolve_assignment(
    AllocationPolicy.salience(), importance, sensitivity, (4.0, 1.0)
)
n_full, n_mid, n_low = assignment.tier_counts()
print(f"\ntiers at (4.0, 1.0): {n_full} x 16-bit, {n_mid} x 4-bit, {n_low} x 2-bit")
print("mean stored bits per key element:", assignment.bits.mean())

# The query outliers take the expensive tiers; the scale outliers,
# whose queries were damped, mostly do not.
full = set(assignment.channels_at(16).tolist())
print("\n16-bit channels:        ", sorted(full))
print("query outliers promoted:",
      sorted(full & set(inst.planted.query_channels.tolist())))
print("scale outliers promoted:",
      sorted(full & set(inst.planted.scale_channels.tolist())))
