"""Command-line interface: run, search, and stats subcommands.

run      replay seeded synthetic instances (or one trace dump) through
         the cache under one or more policies and write a fidelity
         report, one record per policy/seed, as CSV and JSON.
search   sweep the salience threshold grid, write the full evaluation
         log and its Pareto frontier, optionally pick the most faithful
         point under a bit budget. The grid sets the thresholds and
         keeps values at 16 bits, so search takes no --thresholds or
         --value-bits, and its JSON "config" holds the geometry alone:
         dim, value_dim, group_size, residual_len and sink_len.
stats    score the channels of one seeded synthetic instance (or one
         trace dump): importance / sensitivity / salience, and the tier
         the salience policy gives at --thresholds; write the
         per-channel table as CSV; the printed Pearson correlation
         summarizes how decoupled importance and sensitivity are.

A --dump trace replaces the synthetic instances, so --dim, --length,
--outliers, --seeds (run, search) and --seed (stats) exit 2 next to it.

A pair whose first number is negative follows its flag after "=":
--thresholds=-1,-2 and --range=-1,1 parse; "--range -1,1" exits 2.

run's --policy and --compare names and the policy label each writes
(--budget applies to the first two alone; on the others it exits 2):

    salience        salience
    error-only      error-only
    fixed2          fixed-uniform-2
    fixed4          fixed-uniform-4
    full-precision  full-precision

run's metadata_bits_per_key_element column counts each stored key zero
point and scale at 32 bits: not the float64 the cache holds, nor the 16
bits (fp16) that KIVI counts, which would halve the column.

Exit codes: 0 success, 3 missing dump file, 1 a file that cannot be read or
written ("io": a dump path that is a directory, an output in a missing
directory). A kvmix error exits with its type's exit_code, 2 for invalid
configuration or arguments and 1 for any other (a corrupt dump, including
an unknown magic, version or dtype code, or an infeasible budget). Every
failure prints one "error: <category>: <detail>" line to stderr, a kvmix
error its type's category (kvmix.errors). A command that exits non-zero
writes no report and prints nothing to stdout: search selects under
--budget before its first print or write.

For fixed seeds and flags the CSV/JSON outputs are byte-identical across
runs, with one documented exception: the wall_time_s column of run
reports is measured, not derived.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict

import numpy as np

from .attention import PlantedSpec, decode_simulation
from .cache import CacheConfig
from .errors import InvalidInput, KVMixError, check_count
from .io import (
    TensorDump,
    instance_from_dump,
    write_records_csv,
    write_records_json,
)
from .policies import AllocationPolicy, PolicyKind, resolve_assignment
from .salience import QueryAccumulator, salience_score, sensitivity_score
from .search import evaluate_grid, pareto_frontier, select_under_budget

__all__ = ["main", "build_parser"]

_POLICIES = {  # --policy name: the kind and bit width of its AllocationPolicy
    "salience": (PolicyKind.SALIENCE, None),
    "error-only": (PolicyKind.ERROR_ONLY, None),
    "fixed2": (PolicyKind.FIXED_UNIFORM, 2),
    "fixed4": (PolicyKind.FIXED_UNIFORM, 4),
    "full-precision": (PolicyKind.FULL_PRECISION, None),
}


def _parse_numbers(text: str, n: int, kind: type, what: str) -> tuple:
    """`n` comma-separated numbers of type `kind` (int or float)."""
    parts = text.split(",")
    noun = "integers" if kind is int else "numbers"
    message = f"{what} must be {n} comma-separated {noun}, got {text!r}"
    if len(parts) != n:
        raise InvalidInput(message)
    try:
        return tuple(kind(p) for p in parts)
    except ValueError:
        raise InvalidInput(message) from None


def _add_geometry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group-size", type=int, default=32, help="tokens or elements per quant group")
    parser.add_argument("--residual-len", type=int, default=128, help="residual buffer capacity")
    parser.add_argument("--sink-len", type=int, default=32, help="leading tokens kept full-precision")


class _Synthetic(argparse.Action):
    """Store a flag that shapes the synthetic instances, and note it as given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.synthetic_flags = (*namespace.synthetic_flags, self.option_strings[0])


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(synthetic_flags=())
    parser.add_argument("--dump", default=None, help="trace dump to use instead of synthetic data")
    parser.add_argument("--dim", type=int, default=64, action=_Synthetic, help="key/query channel count")
    parser.add_argument("--length", type=int, default=256, action=_Synthetic, help="tokens per synthetic instance")
    parser.add_argument("--outliers", default="4,4,0", action=_Synthetic, help="planted ns,nq,overlap channel counts")


def _config(args, inst, **tiering) -> CacheConfig:
    """The instance's dims and the geometry flags, plus run's `tiering` fields."""
    geometry = dict(group_size=args.group_size, residual_len=args.residual_len, sink_len=args.sink_len)
    return CacheConfig(dim=inst.dim, value_dim=inst.value_dim, **geometry, **tiering)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvmix",
        description="Mixed-precision KV-cache quantization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate decoding under one or more policies")
    run.add_argument("--policy", choices=_POLICIES, default="salience")
    run.add_argument("--compare", choices=_POLICIES, default=None,
                     help="second policy evaluated on the same instances")
    run.add_argument("--budget", default=None,
                     help="n_full,n_mid top-k channel budget (salience / error-only)")
    run.add_argument("--seeds", type=int, default=20, action=_Synthetic, help="synthetic instances: seeds 0..N-1")
    run.add_argument("--steps", type=int, default=None, help="decode steps (default: full length)")
    run.add_argument("--out", default="run_report", help="output base path (.csv and .json)")
    run.add_argument("--value-bits", type=int, choices=(2, 4, 16), default=2, help="value storage width (16 = none)")
    run.add_argument("--thresholds", default="1.0,0.5",
                     help="tau_full,tau_mid salience cutoffs (negative first: --thresholds=-1,-2)")
    _add_geometry_flags(run)
    _add_instance_flags(run)

    search = sub.add_parser("search", help="sweep the salience threshold grid")
    search.add_argument("--grid", type=int, default=20, help="grid points per threshold axis")
    search.add_argument("--range", dest="range_", default="0.1,2.0",
                        help="lo,hi threshold range (negative lo: --range=-1,1)")
    search.add_argument("--budget", type=float, default=None, help="pick min fidelity with b_eff <= budget")
    search.add_argument("--seeds", type=int, default=5, action=_Synthetic,
                        help="synthetic instances: seeds 0..N-1, each ingested twice for the whole grid")
    search.add_argument("--out", default="search_report", help="output base path")
    _add_geometry_flags(search)
    _add_instance_flags(search)

    stats = sub.add_parser("stats", help="per-channel importance/sensitivity/salience table")
    stats.add_argument("--seed", type=int, default=0, action=_Synthetic, help="seed of the synthetic instance")
    stats.add_argument("--thresholds", default="1.0,0.5",
                       help="tau_full,tau_mid tier cutoffs (negative first: --thresholds=-1,-2)")
    stats.add_argument("--out", default="channel_stats.csv", help="output CSV path")
    _add_instance_flags(stats)
    return parser


def _load_instances(args, seeds):
    """(seed, instance) pairs: the --dump trace as seed 0, or one planted instance per seed."""
    if args.dump is not None:
        if args.synthetic_flags:
            given = ", ".join(dict.fromkeys(args.synthetic_flags))
            raise InvalidInput(f"--dump replaces the synthetic instances; drop {given}")
        return [(0, instance_from_dump(TensorDump.read(args.dump)))]
    ns, nq, ov = _parse_numbers(args.outliers, 3, int, "--outliers")
    spec = PlantedSpec(
        dim=args.dim,
        length=args.length,
        n_outlier_scale=ns,
        n_outlier_query=nq,
        overlap=ov,
    )
    return [(seed, spec.materialize(seed)) for seed in seeds]


def _cmd_run(args) -> int:
    budget = None if args.budget is None else _parse_numbers(args.budget, 2, int, "--budget")
    names = [args.policy] if args.compare is None else [args.policy, args.compare]
    policies = [AllocationPolicy(*_POLICIES[name], budget=budget) for name in names]
    instances = _load_instances(args, range(check_count(args.seeds, "--seeds", 1)))
    tau_full, tau_mid = _parse_numbers(args.thresholds, 2, float, "--thresholds")
    config = _config(
        args, instances[0][1], tau_full=tau_full, tau_mid=tau_mid, value_bits=args.value_bits
    )

    records = []
    for policy in policies:
        for seed, inst in instances:
            started = time.perf_counter()
            report, cache = decode_simulation(
                inst, config, policy, steps=args.steps, return_cache=True
            )
            elapsed = time.perf_counter() - started
            meta = cache.metadata_counts()
            key_elems = cache.num_tokens * config.dim
            records.append(
                {
                    "policy": report.policy_label,
                    "seed": seed,
                    "tau_full": config.tau_full,
                    "tau_mid": config.tau_mid,
                    "budget_full": budget[0] if budget else "",
                    "budget_mid": budget[1] if budget else "",
                    "b_eff": report.effective_bits,
                    "e_attn_frobenius": report.e_attn_frobenius,
                    "e_attn_max": report.e_attn_max,
                    "output_error_frobenius": report.output_error_frobenius,
                    "metadata_bits_per_key_element": 32.0 * meta["key_scalars"] / key_elems,
                    "wall_time_s": elapsed,
                }
            )

    write_records_csv(f"{args.out}.csv", records)
    write_records_json(
        f"{args.out}.json",
        {"config": asdict(config), "records": records},
    )
    n = len(instances)  # each policy's records are n consecutive rows
    for i, policy in enumerate(policies):
        rows = records[i * n : (i + 1) * n]
        b = np.mean([r["b_eff"] for r in rows])
        e = np.mean([r["e_attn_frobenius"] for r in rows])
        o = np.mean([r["output_error_frobenius"] for r in rows])
        print(
            f"{policy.label}: mean b_eff {b:.3f}, mean |E_attn|_F {e:.6g}, "
            f"mean output err {o:.6g} ({len(rows)} runs)"
        )
    print(f"report: {args.out}.csv {args.out}.json")
    return 0


def _cmd_search(args) -> int:
    lo, hi = _parse_numbers(args.range_, 2, float, "--range")
    seeds = range(check_count(args.seeds, "--seeds", 1))
    instances = [inst for _, inst in _load_instances(args, seeds)]
    config = _config(args, instances[0])
    log = evaluate_grid(instances, config, lo, hi, args.grid)
    frontier = pareto_frontier(log)
    chosen = None if args.budget is None else select_under_budget(frontier, args.budget)
    names = ("dim", "value_dim", "group_size", "residual_len", "sink_len")
    geometry = {name: getattr(config, name) for name in names}

    grid_rows = [asdict(p) for p in log]
    frontier_rows = [asdict(p) for p in frontier]
    write_records_csv(f"{args.out}_grid.csv", grid_rows)
    write_records_json(f"{args.out}_grid.json", {"config": geometry, "points": grid_rows})
    write_records_csv(f"{args.out}_frontier.csv", frontier_rows)
    payload = {"config": geometry, "frontier": frontier_rows}

    print(f"evaluated {len(log)} candidates, frontier size {len(frontier)}")
    for p in frontier:
        print(
            f"  b_eff {p.b_eff:7.4f}  fidelity {p.fidelity:12.6g}  "
            f"thresholds ({p.tau_full:.4f}, {p.tau_mid:.4f})"
        )
    if chosen is not None:
        payload["selected"] = asdict(chosen)
        print(
            f"under budget {args.budget}: thresholds "
            f"({chosen.tau_full:.4f}, {chosen.tau_mid:.4f}), "
            f"b_eff {chosen.b_eff:.4f}, fidelity {chosen.fidelity:.6g}"
        )
    write_records_json(f"{args.out}_frontier.json", payload)
    print(f"report: {args.out}_grid.csv {args.out}_frontier.csv")
    return 0


def _cmd_stats(args) -> int:
    tau_full, tau_mid = _parse_numbers(args.thresholds, 2, float, "--thresholds")
    ((_, inst),) = _load_instances(args, [args.seed])

    importance = QueryAccumulator(inst.dim).add(inst.queries).importance()
    sensitivity = sensitivity_score(inst.keys)
    salience = salience_score(importance, sensitivity)
    assignment = resolve_assignment(
        AllocationPolicy.salience(), importance, sensitivity, (tau_full, tau_mid)
    )
    with np.errstate(invalid="ignore", divide="ignore"):  # a constant vector gives NaN
        pearson = float(np.corrcoef(importance, sensitivity)[0, 1])

    records = [
        {
            "channel": d,
            "importance": float(importance[d]),
            "sensitivity": float(sensitivity[d]),
            "salience": float(salience[d]),
            "tier": int(assignment.bits[d]),
            "pearson_importance_sensitivity": pearson,
        }
        for d in range(inst.dim)
    ]
    write_records_csv(args.out, records)
    n_full, n_mid, n_low = assignment.tier_counts()
    print(
        f"channels {inst.dim}: {n_full} full / {n_mid} mid / {n_low} low, "
        f"Pearson(importance, sensitivity) {pearson:.4f}"
    )
    print(f"report: {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "search":
            return _cmd_search(args)
        return _cmd_stats(args)
    except KVMixError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # TensorDump.read opens the --dump path as given, so a missing dump
        # raises with that path as its filename; any other file is "io"
        missing = isinstance(exc, FileNotFoundError) and args.dump is not None
        if missing and exc.filename == args.dump:
            print(f"error: missing-dump: {args.dump}", file=sys.stderr)
            return 3
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
