"""Tensor container format and report writer tests.

Corruption cases are built by mutating valid byte streams, so each test
states exactly which structural rule it breaks.
"""

import ast
import csv
import json

import numpy as np
import pytest

from kvmix import (
    CorruptFile,
    InvalidInput,
    PlantedSpec,
    TensorDump,
    dump_from_instance,
    instance_from_dump,
    write_records_csv,
    write_records_json,
)


def refuse_constant(name):
    raise AssertionError(f"JSON holds the non-standard constant {name}")


def small_dump() -> TensorDump:
    dump = TensorDump()
    dump.add("a", np.arange(6, dtype=np.float32).reshape(2, 3))
    dump.add("b", np.array([1.5, -2.5], dtype=np.float32))
    return dump


class TestContainerRoundTrip:
    def test_bytes_round_trip_is_bit_identical(self):
        blob = small_dump().to_bytes()
        assert TensorDump.from_bytes(blob).to_bytes() == blob

    @pytest.mark.parametrize(
        "as_buffer",
        [
            lambda blob: np.frombuffer(blob, np.uint16),
            lambda blob: memoryview(blob).cast("H"),
            lambda blob: np.frombuffer(blob, np.uint8).reshape(2, -1),
        ],
        ids=["uint16_array", "uint16_memoryview", "uint8_matrix"],
    )
    def test_contiguous_buffer_reads_as_its_bytes(self, as_buffer):
        blob = small_dump().to_bytes()
        assert len(blob) % 2 == 0
        assert TensorDump.from_bytes(as_buffer(blob)).to_bytes() == blob

    def test_non_contiguous_buffer_rejected(self):
        blob = small_dump().to_bytes()
        with pytest.raises(InvalidInput, match="C-contiguous"):
            TensorDump.from_bytes(np.frombuffer(blob + blob, np.uint8)[::2])

    def test_sections_survive_round_trip(self):
        out = TensorDump.from_bytes(small_dump().to_bytes())
        np.testing.assert_array_equal(out["a"], np.arange(6).reshape(2, 3))
        np.testing.assert_array_equal(out["b"], [1.5, -2.5])
        assert out["a"].dtype == np.float32

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.mkvq"
        small_dump().write(path)
        assert TensorDump.read(path).to_bytes() == small_dump().to_bytes()

    def test_empty_dump_round_trips(self):
        blob = TensorDump().to_bytes()
        assert TensorDump.from_bytes(blob).sections == {}

    def test_sections_are_filled_only_by_add(self):
        # a dict handed to the constructor would skip every check in add
        assert TensorDump().sections == {}
        with pytest.raises(TypeError):
            TensorDump(sections={"layer0/head0/q": [1.0, 2.0]})

    def test_high_rank_and_exotic_values(self):
        dump = TensorDump()
        arr = np.array([np.float32(1e30), np.float32(-1e-30), 0.0], dtype=np.float32)
        dump.add("wide", arr.reshape(1, 1, 3))
        out = TensorDump.from_bytes(dump.to_bytes())
        np.testing.assert_array_equal(out["wide"], arr.reshape(1, 1, 3))


class TestContainerValidation:
    def test_flipped_magic_rejected(self):
        blob = bytearray(small_dump().to_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(CorruptFile):
            TensorDump.from_bytes(bytes(blob))

    def test_unknown_version_rejected(self):
        blob = bytearray(small_dump().to_bytes())
        blob[4] = 99
        with pytest.raises(CorruptFile):
            TensorDump.from_bytes(bytes(blob))

    def test_unknown_dtype_rejected(self):
        blob = bytearray(small_dump().to_bytes())
        blob[5] = 7
        with pytest.raises(CorruptFile):
            TensorDump.from_bytes(bytes(blob))

    def test_truncated_payload_rejected(self):
        # drop one float from the last section: dims still promise it
        blob = small_dump().to_bytes()
        with pytest.raises(CorruptFile):
            TensorDump.from_bytes(blob[:-4])

    def test_truncated_header_rejected(self):
        blob = small_dump().to_bytes()
        with pytest.raises(CorruptFile):
            TensorDump.from_bytes(blob[:7])

    def test_trailing_bytes_rejected(self):
        blob = small_dump().to_bytes() + b"\x00"
        with pytest.raises(CorruptFile):
            TensorDump.from_bytes(blob)

    def test_duplicate_section_rejected(self):
        # two sections, rewrite the second name to collide with the first
        dump = TensorDump()
        dump.add("x", np.zeros(1, dtype=np.float32))
        dump.add("y", np.zeros(1, dtype=np.float32))
        blob = bytearray(dump.to_bytes())
        blob[blob.rindex(b"y")] = ord("x")
        with pytest.raises(CorruptFile):
            TensorDump.from_bytes(bytes(blob))

    def test_zero_rank_rejected(self):
        dump = TensorDump()
        dump.add("x", np.zeros(1, dtype=np.float32))
        blob = bytearray(dump.to_bytes())
        # rank byte sits right after the 1-byte name
        rank_at = blob.index(b"x") + 1
        blob[rank_at] = 0
        with pytest.raises(CorruptFile):
            TensorDump.from_bytes(bytes(blob))

    def test_section_name_not_utf8_rejected(self):
        blob = bytearray(small_dump().to_bytes())
        # the one-byte name "a" becomes the two bytes ff fe
        at = blob.index(b"a")
        blob[at - 2 : at + 1] = b"\x02\x00\xff\xfe"
        with pytest.raises(CorruptFile):
            TensorDump.from_bytes(bytes(blob))

    def test_add_validates_names_and_rank(self):
        dump = TensorDump()
        with pytest.raises(InvalidInput):
            dump.add("", np.zeros(1))
        dump.add("x", np.zeros(1))
        with pytest.raises(InvalidInput):
            dump.add("x", np.zeros(1))
        with pytest.raises(InvalidInput):
            dump.add("scalar", np.float32(1.0))
        bad = ((7, np.zeros(1)), ("text", "xyz"), ("digits", ["1.5"]), ("complex", [1 + 2j]))
        for name, array in bad:
            with pytest.raises(InvalidInput):
                dump.add(name, array)
        assert list(dump.sections) == ["x"]


class TestInstanceDumps:
    def test_instance_round_trip(self):
        inst = PlantedSpec(dim=8, length=12, n_outlier_scale=1, n_outlier_query=1).materialize(0)
        back = instance_from_dump(dump_from_instance(inst))
        # float32 storage quantizes the float64 source
        np.testing.assert_allclose(back.queries, inst.queries, rtol=1e-6)
        np.testing.assert_allclose(back.keys, inst.keys, rtol=1e-6)
        np.testing.assert_allclose(back.values, inst.values, rtol=1e-6)

    def test_section_names_carry_layer_and_head(self):
        inst = PlantedSpec(dim=4, length=4, n_outlier_scale=0, n_outlier_query=0).materialize(0)
        dump = dump_from_instance(inst)
        assert "layer0/head0/q" in dump
        assert "layer0/head0/k" in dump
        assert "layer0/head0/v" in dump

    def test_missing_section_rejected(self):
        dump = TensorDump()
        dump.add("layer0/head0/q", np.zeros((2, 2), dtype=np.float32))
        dump.add("layer0/head0/k", np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(InvalidInput):
            instance_from_dump(dump)

    def test_wrong_rank_section_rejected(self):
        dump = TensorDump()
        dump.add("layer0/head0/q", np.zeros(4, dtype=np.float32))
        dump.add("layer0/head0/k", np.zeros((2, 2), dtype=np.float32))
        dump.add("layer0/head0/v", np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(InvalidInput):
            instance_from_dump(dump)


class TestReportWriters:
    RECORDS = [
        {"name": "first", "score": 0.1, "count": 3},
        {"name": "second", "score": 2.0, "count": 4},
    ]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        write_records_csv(path, self.RECORDS)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,score,count"
        assert lines[1] == "first,0.1,3"
        assert lines[2] == "second,2.0,4"

    def test_csv_mismatched_keys_raise(self, tmp_path):
        # the header is the first record's keys; no cell is left empty
        path = tmp_path / "report.csv"
        for records in ([{"a": 1, "b": 2}, {"a": 3}], [{"a": 1}, {"a": 2, "b": 3}]):
            with pytest.raises(InvalidInput):
                write_records_csv(path, records)
        assert not path.exists()

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        # repr rendering means reading the text back loses nothing
        value = 0.1 + 0.2
        path = tmp_path / "report.csv"
        write_records_csv(path, [{"x": value}])
        text = path.read_text().splitlines()[1]
        assert float(text) == value

    def test_csv_array_cell_round_trips_exactly(self, tmp_path):
        # a cell holds the list's repr, never numpy's summarised print form
        value = np.arange(2000.0) / 3
        path = tmp_path / "report.csv"
        write_records_csv(path, [{"x": value}])
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert ast.literal_eval(row["x"]) == value.tolist()

    def test_json_writes_non_finite_floats_as_csv_text(self, tmp_path):
        path = tmp_path / "report.json"
        inf, nan = float("inf"), float("nan")
        payload = {"tau": inf, "rows": [{"lo": -inf, "err": np.float64(nan)}], "bits": np.array([inf, 1.0])}
        write_records_json(path, payload)
        loaded = json.loads(path.read_text(), parse_constant=refuse_constant)
        assert loaded == {"tau": "inf", "rows": [{"lo": "-inf", "err": "nan"}], "bits": ["inf", 1.0]}

    def test_csv_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(p1, self.RECORDS)
        write_records_csv(p2, self.RECORDS)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_structure_and_numpy_coercion(self, tmp_path):
        path = tmp_path / "report.json"
        payload = {
            "config": {"dim": np.int64(8)},
            "records": [
                {
                    "score": np.float64(1.5),
                    "half": np.float32(0.5),
                    "exact": np.bool_(True),
                    "bits": np.array([2, 4]),
                }
            ],
        }
        write_records_json(path, payload)
        loaded = json.loads(path.read_text())
        assert loaded == {
            "config": {"dim": 8},
            "records": [{"score": 1.5, "half": 0.5, "exact": True, "bits": [2, 4]}],
        }

    def test_csv_writes_numpy_scalars_as_python_scalars(self, tmp_path):
        path = tmp_path / "report.csv"
        record = {"f64": np.float64(0.1), "f32": np.float32(0.5), "i64": np.int64(7), "flag": np.bool_(True)}
        write_records_csv(path, [record])
        assert path.read_text() == "f64,f32,i64,flag\n0.1,0.5,7,True\n"

    def test_json_unencodable_value_raises_and_writes_nothing(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(InvalidInput):
            write_records_json(path, {"x": 0.5, "tiers": {2, 4}})
        assert not path.exists()
