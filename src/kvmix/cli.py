"""Command-line interface: run, search, and stats subcommands.

run      replay seeded synthetic instances (or one trace dump) through
         the cache under one or more policies and write a fidelity
         report, one record per policy/seed, as CSV and JSON.
search   sweep the salience threshold grid, write the full evaluation
         log and its Pareto frontier, optionally pick the most faithful
         point under a bit budget.
stats    score the channels of one seeded synthetic instance (or one
         trace dump): importance / sensitivity / salience / tier; write
         the per-channel table as CSV; the printed Pearson correlation
         summarizes how decoupled importance and sensitivity are.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 missing
dump file, 1 any other failure. Every failure prints a single
"error: <category>: <detail>" line to stderr.

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
from .errors import (
    BudgetInfeasible,
    CorruptFile,
    InvalidInput,
    KVMixError,
    UnsupportedFormat,
    check_count,
)
from .io import (
    TensorDump,
    instance_from_dump,
    write_records_csv,
    write_records_json,
)
from .policies import AllocationPolicy
from .quant import BitWidth
from .salience import (
    QueryAccumulator,
    assign_precision,
    salience_score,
    sensitivity_score,
)
from .search import evaluate_grid, pareto_frontier, select_under_budget

__all__ = ["main", "build_parser"]

_POLICY_CHOICES = ("salience", "error-only", "fixed2", "fixed4", "full-precision")


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


def _make_policy(name: str, budget: tuple[int, int] | None) -> AllocationPolicy:
    if name == "salience":
        return AllocationPolicy.salience(budget)
    if name == "error-only":
        return AllocationPolicy.error_only(budget)
    if budget is not None:
        raise InvalidInput(f"--budget does not apply to the {name} policy")
    if name == "fixed2":
        return AllocationPolicy.fixed_uniform(2)
    if name == "fixed4":
        return AllocationPolicy.fixed_uniform(4)
    if name == "full-precision":
        return AllocationPolicy.full_precision()
    raise InvalidInput(f"unknown policy {name!r}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group-size", type=int, default=32, help="tokens or elements per quant group")
    parser.add_argument("--residual-len", type=int, default=128, help="residual buffer capacity")
    parser.add_argument("--sink-len", type=int, default=32, help="leading tokens kept full-precision")
    parser.add_argument("--value-bits", type=int, choices=(2, 4, 16), default=2, help="value storage width (16 = none)")
    parser.add_argument("--thresholds", default="1.0,0.5", help="tau_full,tau_mid salience cutoffs")


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=64, help="key/query channel count")
    parser.add_argument("--length", type=int, default=256, help="tokens per synthetic instance")
    parser.add_argument("--outliers", default="4,4,0", help="planted ns,nq,overlap channel counts")


def _config_from_args(args, dim: int, value_dim: int) -> CacheConfig:
    tau_full, tau_mid = _parse_numbers(args.thresholds, 2, float, "--thresholds")
    return CacheConfig(
        dim=dim,
        value_dim=value_dim,
        group_size=args.group_size,
        residual_len=args.residual_len,
        sink_len=args.sink_len,
        tau_full=tau_full,
        tau_mid=tau_mid,
        value_bits=BitWidth(args.value_bits),
    )


def _load_dump(path: str) -> TensorDump:
    try:
        return TensorDump.read(path)
    except FileNotFoundError:
        raise _MissingDump(path)


class _MissingDump(Exception):
    def __init__(self, path: str):
        super().__init__(path)
        self.path = path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvmix",
        description="Mixed-precision KV-cache quantization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate decoding under one or more policies")
    run.add_argument("--policy", choices=_POLICY_CHOICES, default="salience")
    run.add_argument("--compare", choices=_POLICY_CHOICES, default=None,
                     help="second policy evaluated on the same instances")
    run.add_argument("--budget", default=None,
                     help="n_full,n_mid top-k channel budget (salience / error-only)")
    run.add_argument("--seeds", type=int, default=20, help="synthetic instances: seeds 0..N-1")
    run.add_argument("--steps", type=int, default=None, help="decode steps (default: full length)")
    run.add_argument("--dump", default=None, help="trace dump to replay instead of synthetic data")
    run.add_argument("--out", default="run_report", help="output base path (.csv and .json)")
    _add_config_flags(run)
    _add_instance_flags(run)

    search = sub.add_parser("search", help="sweep the salience threshold grid")
    search.add_argument("--grid", type=int, default=20, help="grid points per threshold axis")
    search.add_argument("--range", dest="range_", default="0.1,2.0", help="lo,hi threshold range")
    search.add_argument("--budget", type=float, default=None, help="pick min fidelity with b_eff <= budget")
    search.add_argument("--seeds", type=int, default=5, help="synthetic instances per candidate")
    search.add_argument("--steps", type=int, default=None, help="decode steps per instance")
    search.add_argument("--dump", default=None, help="trace dump to evaluate instead of synthetic data")
    search.add_argument("--out", default="search_report", help="output base path")
    _add_config_flags(search)
    _add_instance_flags(search)

    stats = sub.add_parser("stats", help="per-channel importance/sensitivity/salience table")
    stats.add_argument("--seed", type=int, default=0, help="seed of the synthetic instance")
    stats.add_argument("--dump", default=None, help="trace dump to score instead of synthetic data")
    stats.add_argument("--thresholds", default="1.0,0.5", help="tau_full,tau_mid tier cutoffs")
    stats.add_argument("--out", default="channel_stats.csv", help="output CSV path")
    _add_instance_flags(stats)
    return parser


def _load_instances(args, seeds):
    """(seed, instance) pairs: the --dump trace as seed 0, or one planted instance per seed."""
    if args.dump is not None:
        return [(0, instance_from_dump(_load_dump(args.dump)))]
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
    budget = (
        _parse_numbers(args.budget, 2, int, "--budget") if args.budget is not None else None
    )
    policies = [_make_policy(args.policy, budget)]
    if args.compare is not None:
        policies.append(_make_policy(args.compare, budget))
    instances = _load_instances(args, range(check_count(args.seeds, "--seeds", 1)))
    first = instances[0][1]
    config = _config_from_args(args, first.dim, first.value_dim)

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
    for policy in policies:
        rows = [r for r in records if r["policy"] == policy.label]
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
    config = _config_from_args(args, instances[0].dim, instances[0].value_dim)
    log = evaluate_grid(instances, config, lo, hi, args.grid, args.steps)
    frontier = pareto_frontier(log)

    grid_rows = [asdict(p) for p in log]
    frontier_rows = [asdict(p) for p in frontier]
    write_records_csv(f"{args.out}_grid.csv", grid_rows)
    write_records_json(f"{args.out}_grid.json", {"config": asdict(config), "points": grid_rows})
    write_records_csv(f"{args.out}_frontier.csv", frontier_rows)
    payload = {"config": asdict(config), "frontier": frontier_rows}

    print(f"evaluated {len(log)} candidates, frontier size {len(frontier)}")
    for p in frontier:
        print(
            f"  b_eff {p.b_eff:7.4f}  fidelity {p.fidelity:12.6g}  "
            f"thresholds ({p.tau_full:.4f}, {p.tau_mid:.4f})"
        )
    if args.budget is not None:
        chosen = select_under_budget(frontier, args.budget)
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
    sensitivity = sensitivity_score(inst.keys, BitWidth.UINT2)
    salience = salience_score(importance, sensitivity)
    assignment = assign_precision(salience, tau_full, tau_mid)
    if importance.std() == 0.0 or sensitivity.std() == 0.0:
        pearson = float("nan")
    else:
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
    except _MissingDump as exc:
        print(f"error: missing-dump: {exc.path}", file=sys.stderr)
        return 3
    except (UnsupportedFormat, CorruptFile) as exc:
        print(f"error: bad-dump: {exc}", file=sys.stderr)
        return 1
    except BudgetInfeasible as exc:
        print(f"error: budget-infeasible: {exc}", file=sys.stderr)
        return 1
    except InvalidInput as exc:
        print(f"error: invalid-config: {exc}", file=sys.stderr)
        return 2
    except KVMixError as exc:
        print(f"error: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
