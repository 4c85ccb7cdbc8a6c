"""Command-line interface tests: exit codes, diagnostics, report files,
and byte-level determinism of the outputs.

Everything drives main(argv) in process; one smoke test exercises the
installed console script.
"""

import csv
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kvmix.cli
from kvmix import CorruptBuffer, PlantedSpec, TensorDump, dump_from_instance
from kvmix.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_args(tmp_path, *extra):
    """A fast `run` invocation: tiny instance, tiny cache."""
    return [
        "run",
        "--dim", "16",
        "--length", "32",
        "--outliers", "2,2,0",
        "--group-size", "8",
        "--residual-len", "16",
        "--sink-len", "2",
        "--seeds", "3",
        "--out", str(tmp_path / "rep"),
        *extra,
    ]


class TestRunCommand:
    def test_full_precision_rows_are_lossless(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--policy", "full-precision")) == 0
        rows = read_csv(tmp_path / "rep.csv")
        assert len(rows) == 3
        for row in rows:
            assert row["policy"] == "full-precision"
            assert float(row["output_error_frobenius"]) == 0.0
            assert float(row["e_attn_frobenius"]) == 0.0
            assert float(row["b_eff"]) == 16.0
        assert "full-precision" in capsys.readouterr().out

    def test_compare_pairs_policies_over_same_seeds(self, tmp_path):
        assert main(
            run_args(
                tmp_path,
                "--policy", "salience",
                "--compare", "error-only",
                "--budget", "2,4",
            )
        ) == 0
        rows = read_csv(tmp_path / "rep.csv")
        by_policy = {}
        for row in rows:
            by_policy.setdefault(row["policy"], []).append(row["seed"])
        assert by_policy["salience"] == by_policy["error-only"] == ["0", "1", "2"]
        # matched top-k budgets store the same number of bits
        for s_row, e_row in zip(rows[:3], rows[3:]):
            assert s_row["b_eff"] == e_row["b_eff"]
            assert s_row["budget_full"] == "2"
            assert s_row["budget_mid"] == "4"

    def test_json_mirrors_csv(self, tmp_path):
        assert main(run_args(tmp_path, "--policy", "fixed4")) == 0
        rows = read_csv(tmp_path / "rep.csv")
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert payload["config"]["dim"] == 16
        assert len(payload["records"]) == len(rows)
        for rec, row in zip(payload["records"], rows):
            assert rec["policy"] == row["policy"]
            assert repr(rec["b_eff"]) == row["b_eff"]

    def test_infinite_thresholds_write_strict_json(self, tmp_path):
        # JSON has no Infinity: the thresholds are written as the CSV's text
        def refuse(name):
            raise AssertionError(f"JSON holds the non-standard constant {name}")

        out = tmp_path / "inf"
        args = ["run", "--thresholds", "inf,inf", "--dim", "8", "--length", "32", "--seeds", "1"]
        assert main([*args, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "inf.json").read_text(), parse_constant=refuse)
        (row,) = read_csv(tmp_path / "inf.csv")
        assert payload["records"][0]["tau_full"] == row["tau_full"] == "inf"

    def test_reports_deterministic_up_to_wall_time(self, tmp_path):
        assert main(run_args(tmp_path, "--out", str(tmp_path / "one"))) == 0
        assert main(run_args(tmp_path, "--out", str(tmp_path / "two"))) == 0

        def stripped(path):
            rows = read_csv(path)
            for row in rows:
                row.pop("wall_time_s")
            return rows

        assert stripped(tmp_path / "one.csv") == stripped(tmp_path / "two.csv")
        one = json.loads((tmp_path / "one.json").read_text())
        two = json.loads((tmp_path / "two.json").read_text())
        for payload in (one, two):
            for rec in payload["records"]:
                rec.pop("wall_time_s")
        assert one == two

    def test_run_from_dump(self, tmp_path):
        inst = PlantedSpec(dim=16, length=32, n_outlier_scale=2, n_outlier_query=2).materialize(4)
        dump_path = tmp_path / "trace.mkvq"
        dump_from_instance(inst).write(dump_path)
        assert main(
            [
                "run",
                "--dump", str(dump_path),
                "--group-size", "8",
                "--residual-len", "16",
                "--sink-len", "2",
                "--out", str(tmp_path / "rep"),
            ]
        ) == 0
        rows = read_csv(tmp_path / "rep.csv")
        assert len(rows) == 1
        assert float(rows[0]["b_eff"]) < 16.0

    def test_missing_dump_exits_3(self, tmp_path, capsys):
        code = main(["run", "--dump", str(tmp_path / "absent.mkvq")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: missing-dump:")

    def test_corrupt_dump_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.mkvq"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        code = main(["run", "--dump", str(bad)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad-dump:")

    def test_dump_with_undecodable_name_exits_1(self, tmp_path, capsys):
        inst = PlantedSpec(dim=4, length=8, n_outlier_scale=1, n_outlier_query=1).materialize(0)
        blob = bytearray(dump_from_instance(inst).to_bytes())
        # the first section's name becomes the two bytes ff fe
        name = b"layer0/head0/q"
        at = blob.index(name)
        blob[at - 2 : at + len(name)] = b"\x02\x00\xff\xfe"
        bad = tmp_path / "bad.mkvq"
        bad.write_bytes(bytes(blob))
        code = main(["run", "--dump", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad-dump:")
        assert err.count("\n") == 1

    def test_directory_as_dump_exits_1(self, tmp_path, capsys):
        code = main(["run", "--dump", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io:")
        assert err.count("\n") == 1

    def test_inverted_thresholds_exit_2(self, tmp_path, capsys):
        code = main(run_args(tmp_path, "--thresholds", "0.5,1.0"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid-config:")

    def test_non_numeric_thresholds_exit_2(self, tmp_path, capsys):
        code = main(run_args(tmp_path, "--thresholds", "x,1"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid-config:")

    def test_internal_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # a library fault inside a command is not a configuration error
        def corrupt(*args, **kwargs):
            raise CorruptBuffer("packed buffer holds 1 bytes, expected 2")

        monkeypatch.setattr(kvmix.cli, "decode_simulation", corrupt)
        code = main(run_args(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: failure:")

    def test_bad_geometry_exits_2(self, tmp_path, capsys):
        code = main(run_args(tmp_path, "--group-size", "7"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid-config:")

    def test_malformed_budget_exits_2(self, tmp_path, capsys):
        code = main(run_args(tmp_path, "--budget", "3"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid-config:")

    def test_budget_on_fixed_policy_exits_2(self, tmp_path, capsys):
        code = main(run_args(tmp_path, "--policy", "fixed2", "--budget", "1,1"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid-config:")

    def test_fixed_policies_write_their_labels(self, tmp_path):
        assert main(run_args(tmp_path, "--policy", "fixed2", "--compare", "fixed4")) == 0
        labels = [row["policy"] for row in read_csv(tmp_path / "rep.csv")]
        assert labels == ["fixed-uniform-2"] * 3 + ["fixed-uniform-4"] * 3

    def test_summary_counts_each_policy_runs(self, tmp_path, capsys):
        # the same policy twice: each summary line covers its own two runs
        args = run_args(tmp_path, "--policy", "salience", "--compare", "salience", "--seeds", "2")
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0] == lines[1]
        assert lines[0].startswith("salience: ") and lines[0].endswith("(2 runs)")
        assert len(read_csv(tmp_path / "rep.csv")) == 4

    def test_unknown_policy_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(run_args(tmp_path, "--policy", "psychic"))
        assert exc.value.code == 2


def search_args(tmp_path, *extra):
    return [
        "search",
        "--dim", "16",
        "--length", "32",
        "--outliers", "2,2,0",
        "--group-size", "8",
        "--residual-len", "16",
        "--sink-len", "2",
        "--seeds", "2",
        "--grid", "3",
        "--range", "0.1,2.0",
        "--out", str(tmp_path / "srch"),
        *extra,
    ]


class TestSearchCommand:
    def test_writes_grid_and_frontier(self, tmp_path, capsys):
        assert main(search_args(tmp_path)) == 0
        grid = read_csv(tmp_path / "srch_grid.csv")
        frontier = read_csv(tmp_path / "srch_frontier.csv")
        assert len(grid) == 3 * 4 // 2
        assert 1 <= len(frontier) <= len(grid)
        grid_coords = {(r["b_eff"], r["fidelity"]) for r in grid}
        for row in frontier:
            assert (row["b_eff"], row["fidelity"]) in grid_coords
        b_effs = [float(r["b_eff"]) for r in frontier]
        assert b_effs == sorted(b_effs)
        out = capsys.readouterr().out
        assert "frontier size" in out

    def test_budget_selection_lands_in_json(self, tmp_path):
        assert main(search_args(tmp_path, "--budget", "17.0")) == 0
        payload = json.loads((tmp_path / "srch_frontier.json").read_text())
        assert "selected" in payload
        assert payload["selected"] in payload["frontier"]
        assert payload["selected"]["b_eff"] <= 17.0

    def test_infeasible_budget_exits_1(self, tmp_path, capsys):
        code = main(search_args(tmp_path, "--budget", "0.5"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: budget-infeasible:")

    def test_nan_budget_exits_2(self, tmp_path, capsys):
        code = main(search_args(tmp_path, "--budget", "nan"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid-config:")

    def test_search_deterministic(self, tmp_path):
        assert main(search_args(tmp_path, "--out", str(tmp_path / "s1"))) == 0
        assert main(search_args(tmp_path, "--out", str(tmp_path / "s2"))) == 0
        assert (tmp_path / "s1_grid.csv").read_bytes() == (tmp_path / "s2_grid.csv").read_bytes()
        assert (
            tmp_path / "s1_frontier.csv"
        ).read_bytes() == (tmp_path / "s2_frontier.csv").read_bytes()

    def test_inverted_range_exits_2(self, tmp_path, capsys):
        code = main(search_args(tmp_path, "--range", "2.0,0.1"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid-config:")

    @pytest.mark.parametrize("flag, value", [("--thresholds", "9,3"), ("--value-bits", "16")])
    def test_tiering_flags_rejected_by_parser(self, tmp_path, capsys, flag, value):
        # the grid sets both, so search does not take them
        with pytest.raises(SystemExit) as exc:
            main(search_args(tmp_path, flag, value))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_reports_record_the_geometry_as_config(self, tmp_path):
        assert main(search_args(tmp_path, "--budget", "17.0")) == 0
        geometry = {"dim": 16, "value_dim": 16, "group_size": 8, "residual_len": 16, "sink_len": 2}
        for name in ("srch_grid.json", "srch_frontier.json"):
            assert json.loads((tmp_path / name).read_text())["config"] == geometry


class TestStatsCommand:
    def test_planted_table_shape_and_decorrelation(self, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        assert main(
            ["stats", "--dim", "32", "--length", "64", "--outliers", "4,4,0",
             "--seed", "0", "--out", str(out)]
        ) == 0
        rows = read_csv(out)
        assert len(rows) == 32
        assert list(rows[0].keys()) == [
            "channel",
            "importance",
            "sensitivity",
            "salience",
            "tier",
            "pearson_importance_sensitivity",
        ]
        for row in rows:
            assert int(row["tier"]) in (2, 4, 16)
            assert float(row["salience"]) == pytest.approx(
                float(row["importance"]) * float(row["sensitivity"])
            )
        # zero-overlap planting decorrelates the two scores
        assert float(rows[0]["pearson_importance_sensitivity"]) < 0.3
        assert "Pearson" in capsys.readouterr().out

    def test_constant_queries_make_salience_proportional_to_sensitivity(self, tmp_path):
        inst = PlantedSpec(dim=8, length=16, n_outlier_scale=2, n_outlier_query=0).materialize(3)
        dump = TensorDump()
        dump.add("layer0/head0/q", np.full((16, 8), 2.0, dtype=np.float32))
        dump.add("layer0/head0/k", inst.keys.astype(np.float32))
        dump.add("layer0/head0/v", inst.values.astype(np.float32))
        dump_path = tmp_path / "const.mkvq"
        dump.write(dump_path)
        out = tmp_path / "stats.csv"
        assert main(["stats", "--dump", str(dump_path), "--out", str(out)]) == 0
        rows = read_csv(out)
        for row in rows:
            assert float(row["importance"]) == 2.0
            assert float(row["salience"]) == pytest.approx(
                2.0 * float(row["sensitivity"])
            )
        # correlation against a constant vector is undefined
        assert rows[0]["pearson_importance_sensitivity"] == "nan"

    def test_defaults_to_the_shared_instance_flags(self, tmp_path, monkeypatch):
        # no source flag: the --dim/--length/--outliers defaults of run and search
        monkeypatch.chdir(tmp_path)
        assert main(["stats"]) == 0
        rows = read_csv(tmp_path / "channel_stats.csv")
        assert [int(row["channel"]) for row in rows] == list(range(64))

    def test_missing_dump_exits_3(self, tmp_path, capsys):
        code = main(["stats", "--dump", str(tmp_path / "gone.mkvq")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: missing-dump:")

    def test_output_in_missing_directory_exits_1(self, tmp_path, capsys):
        code = main(["stats", "--dim", "8", "--length", "16", "--outliers", "1,1,0",
                     "--out", str(tmp_path / "missing_dir" / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io:")
        assert err.count("\n") == 1

    def test_malformed_planted_exits_2(self, tmp_path, capsys):
        code = main(["stats", "--outliers", "32,64", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid-config:")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command, seed_flag in (("run", "--seeds"), ("search", "--seeds"), ("stats", "--seed"))
        for flag, value in ((seed_flag, "5"), ("--dim", "999"), ("--length", "3"), ("--outliers", "1,2,3"))
    ],
)
def test_dump_rejects_synthetic_instance_flags(tmp_path, capsys, command, flag, value):
    # the dump replaces the planted instances, so a flag that shapes them is an error
    inst = PlantedSpec(dim=16, length=32, n_outlier_scale=2, n_outlier_query=2).materialize(0)
    dump_path = tmp_path / "trace.mkvq"
    dump_from_instance(inst).write(dump_path)
    geometry = [] if command == "stats" else ["--group-size", "4", "--residual-len", "8", "--sink-len", "2"]
    out = tmp_path / "report"
    code = main([command, "--dump", str(dump_path), *geometry, flag, value, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config:") and flag in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.mkvq"]


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("kvmix")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [
                exe,
                "stats",
                "--dim", "8", "--length", "16", "--outliers", "1,1,0",
                "--out", str(tmp_path / "stats.csv"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "stats.csv").exists()

    def test_declared_entry_point(self, tmp_path, monkeypatch):
        # what the console script runs, read from pyproject.toml, so an
        # uninstalled checkout checks the declaration too
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"kvmix": "kvmix.cli:main"}
        entry = importlib.metadata.EntryPoint("kvmix", scripts["kvmix"], "console_scripts")
        script_main = entry.load()
        assert script_main is main
        # a console script calls its target with no arguments and exits with its result
        out = tmp_path / "stats.csv"
        argv = ["kvmix", "stats", "--dim", "8", "--length", "16", "--outliers", "1,1,0", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        assert script_main() == 0
        assert out.exists()

    def test_module_invocation(self, tmp_path):
        # the child imports the same kvmix as this test, installed or not
        package_root = str(Path(kvmix.cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "kvmix.cli",
                "stats",
                "--dim", "8", "--length", "16", "--outliers", "1,1,0",
                "--out", str(tmp_path / "stats.csv"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
