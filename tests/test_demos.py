"""Public surface: every demo script and README example runs, and the
export list and the exported signatures are pinned."""

import argparse
import enum
import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import kvmix
from kvmix.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
QUICKSTART = re.findall(r"```python\n(.*?)```", README, re.S)
COMMANDS = [
    shlex.split(block.replace("\\\n", " "))
    for block in re.findall(r"```sh\n(kvmix .*?)```", README, re.S)
]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_examples_found():
    assert len(QUICKSTART) == 1
    assert [argv[1] for argv in COMMANDS] == ["run", "search", "stats"]


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(QUICKSTART[0], "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[1] for argv in COMMANDS])
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs").mkdir()
    assert main(argv[1:]) == 0, capsys.readouterr().err


def test_readme_flag_table_matches_parser():
    # each command's "--" options are the table's flags whose cell is not "no"
    table = re.search(r"^\| Flags \|.*?\n\n", README, re.S | re.M).group(0)
    header, _, *rows = [line.strip("|").split("|") for line in table.strip().splitlines()]
    commands = [cell.strip().strip("`") for cell in header[1:]]
    documented = {command: set() for command in commands}
    for flags, *cells in rows:
        for command, cell in zip(commands, cells):
            if cell.strip() != "no":
                documented[command].update(re.findall(r"`(--[\w-]+)`", flags))
    (subcommands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(subcommands) == sorted(commands)
    for command, sub in subcommands.items():
        options = {opt for action in sub._actions for opt in action.option_strings}
        assert {opt for opt in options if opt.startswith("--")} - {"--help"} == documented[command], command


def test_readme_error_line_matches_the_error_types():
    # the module map's kvmix.errors row names each subclass's CLI category and exit code
    (row,) = [line for line in README.splitlines() if line.startswith("| `kvmix.errors` |")]
    pairs = re.findall(r"`(\w+)` \(`([\w-]+)`, (\d)", row)
    documented = {name: (category, int(code)) for name, category, code in pairs}
    errors = importlib.import_module("kvmix.errors")
    assert documented == {
        name: (getattr(errors, name).category, getattr(errors, name).exit_code)
        for name in errors.__all__
        if name != "KVMixError"
    }


def test_export_list():
    assert sorted(kvmix.__all__) == [
        "AllocationPolicy",
        "AttentionInstance",
        "BitWidth",
        "BudgetInfeasible",
        "CacheConfig",
        "CorruptFile",
        "FidelityReport",
        "InvalidInput",
        "KVMixError",
        "MixedKVCache",
        "ParetoPoint",
        "PlantedChannels",
        "PlantedSpec",
        "PolicyKind",
        "PrecisionAssignment",
        "QueryAccumulator",
        "TensorDump",
        "UndefinedMetric",
        "apply_rope",
        "attention_exact",
        "decode_simulation",
        "dump_from_instance",
        "evaluate_grid",
        "instance_from_dump",
        "pareto_frontier",
        "resolve_assignment",
        "salience_score",
        "select_under_budget",
        "sensitivity_score",
        "threshold_grid",
        "write_records_csv",
        "write_records_json",
    ]
    for name in kvmix.__all__:
        assert hasattr(kvmix, name)
    # the scalar group API, the flushed block types and the replay
    # references are importable only from the module that defines them
    for module, name in [
        ("cache", "KeyBlock"),
        ("cache", "ValueBlock"),
        ("quant", "QuantizedGroup"),
        ("quant", "PackedBuffer"),
        ("quant", "quantize_group"),
        ("quant", "dequantize_group"),
        ("quant", "pack_codes"),
        ("quant", "unpack_codes"),
        ("attention", "attention_error"),
        ("search", "evaluate_candidate"),
    ]:
        assert getattr(importlib.import_module(f"kvmix.{module}"), name).__doc__
        assert name not in kvmix.__all__ and not hasattr(kvmix, name)


def test_public_signatures():
    # every exported function, dataclass and class constructor, by its
    # parameter names; exceptions and enums take no settings of their own
    signatures = {
        name: list(inspect.signature(obj).parameters)
        for name, obj in vars(kvmix).items()
        if name in kvmix.__all__
        and not (isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum)))
    }
    assert signatures == {
        "AllocationPolicy": ["kind", "bits", "budget"],
        "AttentionInstance": ["queries", "keys", "values", "planted"],
        "CacheConfig": [
            "dim", "value_dim", "group_size", "residual_len", "sink_len", "tau_full", "tau_mid",
            "value_bits",
        ],
        "FidelityReport": [
            "e_attn_frobenius", "e_attn_max", "output_error_frobenius", "effective_bits",
            "policy_label",
        ],
        "MixedKVCache": ["config", "policy"],
        "ParetoPoint": ["tau_full", "tau_mid", "b_eff", "fidelity"],
        "PlantedChannels": ["scale_channels", "query_channels"],
        "PlantedSpec": ["dim", "length", "n_outlier_scale", "n_outlier_query", "overlap"],
        "PrecisionAssignment": ["bits"],
        "QueryAccumulator": ["dim"],
        "TensorDump": [],
        "apply_rope": ["x", "positions"],
        "attention_exact": ["queries", "keys", "values", "causal"],
        "decode_simulation": ["source", "config", "policy", "steps", "seed", "return_cache"],
        "dump_from_instance": ["inst"],
        "evaluate_grid": ["instances", "config", "lo", "hi", "grid_points"],
        "instance_from_dump": ["dump"],
        "pareto_frontier": ["points"],
        "resolve_assignment": ["policy", "importance", "sensitivity", "thresholds"],
        "salience_score": ["importance", "sensitivity"],
        "select_under_budget": ["frontier", "max_b_eff"],
        "sensitivity_score": ["key_block"],
        "threshold_grid": ["lo", "hi", "grid_points"],
        "write_records_csv": ["path", "records"],
        "write_records_json": ["path", "payload"],
    }
