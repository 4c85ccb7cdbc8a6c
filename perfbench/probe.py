"""Machine-speed probe: a fixed reference task timed beside the program.

On a shared core the same code runs at about 1x to 1.6x its fastest
time, depending on what runs next to it, and that share changes from
run to run and by the hour. The probe measures it. Each tick runs one
fixed task that does not touch kvmix, a small mix of what kvmix spends
its time on (checks and arithmetic on single 128-wide rows, then a
quantizer-like pass over a 32 x 128 block), and records how long it
took. Workloads tick between their timed calls, so the ticks see the
machine in the same state as the calls they sit beside.

Ticks are timed warm. Right after kvmix code has run, the first task
takes about twice as long, because the program has evicted it from the
CPU caches; how much depends on the program. So each burst runs the
task once untimed, and the ticks measure the machine, not the program.
"""

from __future__ import annotations

import time

import numpy as np

clock = time.perf_counter_ns

_rng = np.random.default_rng(20251219)
_ROW = _rng.standard_normal(128)
_BLOCK = _rng.standard_normal((32, 128))


def reference_task() -> float:
    acc = np.zeros(128)
    for _ in range(4):
        row = np.asarray(_ROW, dtype=np.float64)
        if row.ndim != 1 or not np.isfinite(row).all():
            raise ValueError("bad reference row")
        acc += row * row
    lo = _BLOCK.min(axis=0)
    scale = (_BLOCK.max(axis=0) - lo) / 15.0
    codes = np.rint((_BLOCK - lo) / scale).astype(np.uint8)
    return float(codes.sum()) + float(acc.sum())


class Probe:
    """Durations of reference-task ticks, in ns."""

    def __init__(self):
        self.ticks: list[int] = []

    def burst(self, n: int) -> None:
        """One untimed warm-up task, then n ticks."""
        reference_task()
        for _ in range(n):
            a = clock()
            reference_task()
            self.ticks.append(clock() - a)
