"""One benchmark sample, run by run.py in a fresh interpreter.

Usage: sample.py MODE WORKLOAD SEED SPAWN_NS WORKDIR

MODE is `check` (untimed output checks and output metrics), `time` (one
timed pass, with the probe ticks it ran beside it) or `trace` (one timed
pass with every kvmix layer traced).
SPAWN_NS is the CLOCK_MONOTONIC time at which the parent started this
process, so that set-up time includes interpreter start and imports.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from pathlib import Path


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def environment() -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_seen": threads,
    }


_CALL_COUNTS = (
    "quant.quantize_group",
    "quant.dequantize_group",
    "salience.accumulator_add",
    "policies.resolve_assignment",
    "cache.append",
    "cache.flush",
    "cache.reconstruct",
    "cache.block_dense",
    "attention.attention_exact",
    "attention.attention_error",
    "search.evaluate_candidate",
    "io.write_records",
)
_SELF_TIMES = _CALL_COUNTS + (
    "quant.pack_codes",
    "quant.unpack_codes",
    "salience.sensitivity_score",
    "attention.decode_simulation",
    "search.pareto_frontier",
    "io.dump_read",
    "cli.main",
)
_MODULES = ("quant", "salience", "cache", "attention", "search", "io")


def layer_metrics(tracer) -> dict:
    from stats import median, tail

    summary = tracer.summary()

    def field(name, key, default=0):
        return summary[name][key] if name in summary else default

    out = {f"{name}.calls": field(name, "calls") for name in _CALL_COUNTS}
    out.update({f"{name}.self_s": field(name, "self_s", 0.0) for name in _SELF_TIMES})
    for module in _MODULES:
        out[f"{module}.self_s"] = sum(e["self_s"] for n, e in summary.items() if n.split(".")[0] == module)
    flushes = field("cache.flush", "durations_s", [])
    reads = field("cache.reconstruct", "durations_s", [])
    out["cache.flush.p50_ms"] = 1e3 * median(flushes) if flushes else 0.0
    out["cache.reconstruct.p50_ms"] = 1e3 * median(reads) if reads else 0.0
    out["cache.reconstruct.tail_ms"] = 1e3 * tail(reads)[1] if reads else 0.0
    resolves = field("policies.resolve_assignment", "calls")
    out["policies.distinct_tier_maps_per_call"] = len(tracer.tier_maps) / resolves if resolves else 0.0
    out["attention.computed_flops"] = tracer.flops
    out["search.decode_replays"] = tracer.count_children("search.evaluate_candidate", "attention.decode_simulation")
    out["io.bytes_written"] = tracer.bytes_written
    out["trace.spans"] = len(tracer.spans)
    return out


def main(argv) -> int:
    mode, name, seed, spawn_ns, workdir = argv[1], argv[2], int(argv[3]), int(argv[4]), Path(argv[5])
    from probe import Probe
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    result = {"mode": mode, "setup_s": (_now_ns() - spawn_ns) / 1e9}
    probe = Probe()
    try:
        if mode == "check":
            result.update(workload.check())
            result["env"] = environment()
        elif mode == "time":
            result.update(workload.run(probe))
            result["ticks_ns"] = probe.ticks
        else:
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
            try:
                result.update(workload.run(probe))
                result["layers"] = layer_metrics(tracer)
                if name == "decode":
                    # attention.scaling_exponent: log(t(T) / t(T/4)) / log 4
                    full = tracer.summary()["attention.decode_simulation"]["total_s"]
                    mark = len(tracer.spans)
                    workload.run(probe, steps=workload.inst.length // 4)
                    quarter = tracer.summary(mark)["attention.decode_simulation"]["total_s"]
                    result["layers"]["attention.scaling_exponent"] = math.log(full / quarter) / math.log(4)
                else:
                    result["layers"]["attention.scaling_exponent"] = 0.0
            finally:
                tracer.restore()
            tracer.write(workdir / f"trace-{name}.tsv")
    except Exception:
        result.update(attempted=result.get("attempted", 0) + 1, failed=1, error=traceback.format_exc())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
