"""kvmix benchmark: one workload, one seed, fixed measuring time.

Usage:
    python3 perfbench/run.py --workload {stream,decode,search} --seed N \
        --seconds S --trace {0,1}

Run from the root of a kvmix source tree; the library is imported from
its `src/`. Every sample runs in a fresh interpreter (sample.py) with
the BLAS thread count pinned before numpy is imported, one at a time:
first an untimed check sample that verifies the program's output, then
timed samples until S seconds have been spent. With --trace 0 the last
line of output is a JSON object with every end-to-end metric of
BENCHMARK.json, timings scaled by the machine-speed probe (probe.py); with --trace 1 traced and untraced samples alternate
and it carries every per-layer metric instead. Earlier lines give the
environment, any failed check and per-metric detail for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from stats import median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
WORKLOADS = ("stream", "decode", "search")
# One BLAS thread is no higher than nproc on any machine.
BLAS_THREADS = 1
_BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_TIMED_SAMPLES = 3
# The whole run must end within 180 s.
RUN_DEADLINE_S = 170.0
OUTPUT_RTOL = 1e-9
# Timings are rescaled to a machine on which one probe tick (probe.py)
# takes this long on average: time x REF_TICK_NS / mean tick of the
# same run. The mean is the time the fixed reference task takes right
# then, so the ratio cancels how fast the shared core happens to run.
REF_TICK_NS = 40_000.0


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def speed_scale(ticks) -> float:
    """REF_TICK_NS over the mean of the given probe ticks."""
    return REF_TICK_NS * len(ticks) / sum(ticks)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in _BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _failure(mode: str, error: str) -> dict:
    return {"mode": mode, "attempted": 1, "failed": 1, "error": error}


def spawn(mode: str, args, env: dict, deadline: float) -> dict:
    """Run one sample to completion and return its JSON result."""
    spawn_ns = _now_ns()
    cmd = [sys.executable, str(HERE / "sample.py"), mode, args.workload, str(args.seed), str(spawn_ns), str(WORKDIR)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        return _failure(mode, "sample timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _failure(mode, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return _failure(mode, f"unreadable result: {lines[-1][:200]}")
    return result


def same_output(a: dict, b: dict) -> bool:
    """Equal summaries; floats within OUTPUT_RTOL of each other."""
    if a.keys() != b.keys():
        return False
    for key, x in a.items():
        y = b[key]
        if isinstance(x, float) and isinstance(y, float):
            if not math.isclose(x, y, rel_tol=OUTPUT_RTOL, abs_tol=0.0):
                return False
        elif x != y:
            return False
    return True


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # A SIGTERM becomes an exception, on which subprocess.run kills and
    # reaps the running sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse_args(argv)
    if not (ROOT / "src" / "kvmix" / "__init__.py").is_file():
        print(f"error: no kvmix source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORKDIR.mkdir(exist_ok=True)
    env = child_env()
    deadline = time.monotonic() + RUN_DEADLINE_S

    check = spawn("check", args, env, deadline)
    if "checks" not in check:
        print(f"error: check sample failed: {check.get('error')}", file=sys.stderr)
        return 1
    print("env:", json.dumps(check["env"], sort_keys=True))
    attempted = len(check["checks"])
    failed = 0
    for item in check["checks"]:
        if not item["ok"]:
            failed += 1
            print(f"check failed: {item['name']} {item['detail']}")

    modes = ("trace", "time") if args.trace else ("time",)
    minimum = {"trace": 1, "time": 1 if args.trace else MIN_TIMED_SAMPLES}
    samples: dict[str, list[dict]] = {mode: [] for mode in modes}
    walls: dict[str, list[float]] = {mode: [] for mode in modes}
    start = time.monotonic()
    turn = 0
    while True:
        mode = modes[turn % len(modes)]
        turn += 1
        done = samples[mode]
        expected = median(walls[mode]) if walls[mode] else 0.0
        if all(len(walls[m]) >= minimum[m] for m in modes):
            if time.monotonic() - start + expected > args.seconds:
                break
        if time.monotonic() + expected > deadline:
            break
        began = time.monotonic()
        result = spawn(mode, args, env, deadline)
        walls[mode].append(time.monotonic() - began)
        attempted += result.get("attempted", 1) + 1  # + the output comparison
        failed += result.get("failed", 0)
        if "error" in result:
            print(f"{mode} sample failed: {result['error']}")
        elif not same_output(result["output"], check["output"]):
            failed += 1
            print(f"{mode} sample output differs: {result['output']} != {check['output']}")
        else:
            done.append(result)

    if not samples["time"] or (args.trace and not samples["trace"]):
        print("error: no successful timed sample", file=sys.stderr)
        return 1
    timed = samples["time"]
    if args.trace:
        traced = samples["trace"]
        values = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        values.update(check["accounting"])
        plain_s = median([r["busy_s"] for r in timed])
        traced_s = median([r["busy_s"] for r in traced])
        values["trace.overhead_s"] = traced_s - plain_s
        values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        declared = spec["per_layer"]
        print(f"traced samples {len(traced)}, untraced samples {len(timed)}, spans written to {WORKDIR}")
    else:
        ops = [ns for r in timed for ns in r["ops_ns"]]
        ticks = [ns for r in timed for ns in r["ticks_ns"]]
        scale = speed_scale(ticks)
        tail_p, tail_ns = tail(ops)
        work_per_s = sum(r["work"] for r in timed) / sum(r["busy_s"] for r in timed)
        values = {
            # Set-up runs before the sample's ticks; each is scaled by its own.
            "setup_s": median([r["setup_s"] * speed_scale(r["ticks_ns"]) for r in timed]),
            "work_per_s": work_per_s / scale,
            "op_p50_ms": median(ops) * scale / 1e6,
            "op_tail_ms": tail_ns * scale / 1e6,
        }
        values.update(check["metrics"])
        declared = spec["end_to_end"]
        print(f"timed samples {len(timed)}, timed calls {len(ops)}, op tail is p{tail_p:g}")
        print(
            f"probe: {len(ticks)} ticks, mean {REF_TICK_NS / scale / 1e3:.2f} us, timings scaled by {scale:.4f}; "
            f"unscaled: setup_s {median([r['setup_s'] for r in timed]):.4g}, work_per_s {work_per_s:.6g}, "
            f"op p50 {median(ops) / 1e6:.6g} ms, op tail {tail_ns / 1e6:.6g} ms"
        )
        print(f"output_error_frob {check['metrics']['output_error_frob']:.6g}")
        reads = [ns for r in timed for ns in r.get("reads_ns", ())]
        if reads:
            read_p, read_ns = tail(reads)
            print(
                f"reads (unscaled): p50 {median(reads) / 1e6:.4f} ms, "
                f"p{read_p:g} {read_ns / 1e6:.4f} ms over {len(reads)} reads"
            )

    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"{name:40s} {values[name]:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
