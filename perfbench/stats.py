"""Order statistics shared by the benchmark driver and its samples."""

from __future__ import annotations

import math

# Percentiles tried for a tail, in basis points (9990 is p99.9).
_TAIL_LADDER_BP = (9999, 9990, 9900, 9000, 5000)
_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; the maximum, reported as p100, when there are
    fewer than twenty samples."""
    n = len(values)
    for bp in _TAIL_LADDER_BP:
        if n * (10000 - bp) >= _MIN_BEYOND * 10000:
            return bp / 100.0, percentile(values, bp / 100.0)
    return 100.0, max(values)
