"""Regenerate goldens.json from untimed check samples.

Usage: python3 perfbench/write_goldens.py

Records, for the default and the held-out seed of every workload, the
output fields that check samples compare against. Run it only when a
change is meant to alter the program's output, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import time

import run

GOLDENS = run.HERE / "goldens.json"
# Seed 0 is the default seed of every run; seed 1 is held out, kept for
# confirming a claimed gain on a seed the change was not written against.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

FIELDS = {
    "stream": ("key_bits", "logit_error_frob", "output_error_frob"),
    "decode": ("key_bits", "logit_error_frob", "logit_error_max", "output_error_frob"),
    "search": ("candidates", "frontier_size", "tau_full", "tau_mid", "key_bits", "logit_error_frob"),
}


def main() -> None:
    run.WORKDIR.mkdir(exist_ok=True)
    env = run.child_env()
    goldens = {}
    for workload, fields in FIELDS.items():
        goldens[workload] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            args = argparse.Namespace(workload=workload, seed=seed)
            result = run.spawn("check", args, env, time.monotonic() + run.RUN_DEADLINE_S)
            if "output" not in result:
                raise SystemExit(f"{workload} seed {seed}: {result.get('error')}")
            values = {**result["output"], **result["metrics"]}
            goldens[workload][str(seed)] = {key: values[key] for key in fields}
    GOLDENS.write_text(json.dumps(goldens, indent=2) + "\n")


if __name__ == "__main__":
    main()
