"""Public surface: every demo script runs, and the export list is pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kvmix

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
        "assign_precision",
        "attention_error",
        "attention_exact",
        "cache_snapshot_dump",
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
