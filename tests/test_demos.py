"""Public surface: every demo script and README example runs, and the
export list is pinned."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import kvmix
from kvmix.cli import main

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


def test_export_list():
    assert sorted(kvmix.__all__) == [
        "AllocationPolicy",
        "AttentionInstance",
        "BitWidth",
        "BudgetInfeasible",
        "CacheConfig",
        "CorruptBuffer",
        "CorruptFile",
        "EmptyWindow",
        "FidelityReport",
        "InvalidInput",
        "InvalidThresholds",
        "KVMixError",
        "KeyBlock",
        "MixedKVCache",
        "NothingToFlush",
        "PackedBuffer",
        "ParetoPoint",
        "PlantedChannels",
        "PlantedSpec",
        "PolicyKind",
        "PrecisionAssignment",
        "QuantizedGroup",
        "QueryAccumulator",
        "TensorDump",
        "UndefinedMetric",
        "UnsupportedFormat",
        "ValueBlock",
        "apply_rope",
        "attention_error",
        "attention_exact",
        "decode_simulation",
        "dequantize_group",
        "dump_from_instance",
        "evaluate_candidate",
        "evaluate_grid",
        "instance_from_dump",
        "pack_codes",
        "pareto_frontier",
        "quantize_group",
        "resolve_assignment",
        "salience_score",
        "select_under_budget",
        "sensitivity_score",
        "threshold_grid",
        "unpack_codes",
        "write_records_csv",
        "write_records_json",
    ]
    for name in kvmix.__all__:
        assert hasattr(kvmix, name)
