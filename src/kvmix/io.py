"""Binary tensor container and deterministic report writers.

The container is a flat sequence of named float32 sections:

    magic   4 bytes  "MKVQ"
    version u8       1
    dtype   u8       0 = float32, little-endian
    count   u32 LE   number of sections
    then per section:
        name_len u16 LE
        name     utf-8 bytes
        rank     u8   (1..8)
        dims     rank x u32 LE
        payload  prod(dims) float32 LE, row-major

Attention traces store one section per tensor under
"layer{L}/head{H}/{q|k|v}". An unknown magic or version is rejected as
UnsupportedFormat; truncation or internal inconsistency as CorruptFile.
Payload bytes round-trip exactly (write then read is bit-identical).

Report writers emit the same records as comma-separated rows and as a
structured JSON document. Floats are rendered with repr (shortest exact
form), so report bytes are a pure function of the records. Both writers
write a numpy scalar as its .item() (np.float64(0.1) as 0.1, np.bool_ as
True) and an array as its .tolist(), which a CSV cell holds as the
list's repr. JSON has no non-finite numbers, so the JSON writer writes
inf, -inf and nan as the strings "inf", "-inf" and "nan", the text of
the CSV cell. Records whose keys differ, or a report value JSON cannot
hold, raise InvalidInput before the file opens.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionInstance
from .cache import MixedKVCache
from .errors import CorruptFile, InvalidInput, UnsupportedFormat, _parses_as_non_real

__all__ = [
    "TensorDump",
    "dump_from_instance",
    "instance_from_dump",
    "cache_snapshot_dump",
    "write_records_csv",
    "write_records_json",
]

MAGIC = b"MKVQ"
VERSION = 1
_DTYPE_F32 = 0
_MAX_RANK = 8


@dataclass
class TensorDump:
    """An ordered mapping of section names to float32 arrays."""

    sections: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, name: str, array) -> "TensorDump":
        if not isinstance(name, str) or not name:
            raise InvalidInput(f"section name must be a non-empty string, got {name!r}")
        if len(name.encode("utf-8")) > 0xFFFF:
            raise InvalidInput("section name too long")
        if name in self.sections:
            raise InvalidInput(f"duplicate section {name!r}")
        try:
            source = np.asarray(array)
            if _parses_as_non_real(source):
                raise TypeError
            with np.errstate(over="ignore"):
                arr = source.astype(np.float32, copy=False)
            inf = np.isinf(arr)
            beyond = inf.any() and np.isfinite(source.astype(np.float64)[inf]).any()
        except (TypeError, ValueError, OverflowError):
            raise InvalidInput(f"section {name!r} must be numeric") from None
        if beyond:
            raise InvalidInput(f"section {name!r} holds a finite value beyond the float32 range")
        if arr.ndim < 1 or arr.ndim > _MAX_RANK:
            raise InvalidInput(f"section rank must be 1..{_MAX_RANK}, got {arr.ndim}")
        self.sections[name] = np.ascontiguousarray(arr)
        return self

    def __getitem__(self, name: str) -> np.ndarray:
        return self.sections[name]

    def __contains__(self, name: str) -> bool:
        return name in self.sections

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += MAGIC
        out += struct.pack("<BBI", VERSION, _DTYPE_F32, len(self.sections))
        for name, arr in self.sections.items():
            encoded = name.encode("utf-8")
            out += struct.pack("<H", len(encoded))
            out += encoded
            out += struct.pack("<B", arr.ndim)
            out += struct.pack(f"<{arr.ndim}I", *arr.shape)
            out += arr.astype("<f4", copy=False).tobytes(order="C")
        return bytes(out)

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TensorDump":
        view = memoryview(blob)
        offset = 0

        def take(n: int, what: str) -> memoryview:
            nonlocal offset
            if offset + n > len(view):
                raise CorruptFile(f"truncated while reading {what}")
            chunk = view[offset : offset + n]
            offset += n
            return chunk

        magic = bytes(take(4, "magic"))
        if magic != MAGIC:
            raise UnsupportedFormat(f"unknown magic {magic!r}")
        version, dtype_code, count = struct.unpack("<BBI", take(6, "header"))
        if version != VERSION:
            raise UnsupportedFormat(f"unsupported version {version}")
        if dtype_code != _DTYPE_F32:
            raise UnsupportedFormat(f"unsupported dtype code {dtype_code}")

        dump = cls()
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2, "section name length"))
            try:
                name = bytes(take(name_len, "section name")).decode("utf-8")
            except UnicodeDecodeError:
                raise CorruptFile("section name is not valid UTF-8") from None
            if name in dump.sections:
                raise CorruptFile(f"duplicate section {name!r}")
            (rank,) = struct.unpack("<B", take(1, "section rank"))
            if rank < 1 or rank > _MAX_RANK:
                raise CorruptFile(f"section {name!r} has invalid rank {rank}")
            dims = struct.unpack(f"<{rank}I", take(4 * rank, "section dims"))
            n_elems = 1
            for d in dims:
                n_elems *= d
            payload = take(4 * n_elems, f"payload of {name!r}")
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
            dump.sections[name] = arr.astype(np.float32, copy=True)
        if offset != len(view):
            raise CorruptFile(f"{len(view) - offset} trailing bytes after last section")
        return dump

    @classmethod
    def read(cls, path) -> "TensorDump":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _section(layer: int, head: int, tensor: str) -> str:
    return f"layer{layer}/head{head}/{tensor}"


def dump_from_instance(inst: AttentionInstance, layer: int = 0, head: int = 0) -> TensorDump:
    """Store an attention instance as q/k/v sections of one layer/head."""
    dump = TensorDump()
    dump.add(_section(layer, head, "q"), inst.queries)
    dump.add(_section(layer, head, "k"), inst.keys)
    dump.add(_section(layer, head, "v"), inst.values)
    return dump


def instance_from_dump(dump: TensorDump, layer: int = 0, head: int = 0) -> AttentionInstance:
    """Rebuild an attention instance from q/k/v sections (cast to float64)."""
    tensors = {}
    for tensor in ("q", "k", "v"):
        name = _section(layer, head, tensor)
        if name not in dump:
            raise InvalidInput(f"dump lacks section {name!r}")
        arr = dump[name]
        if arr.ndim != 2:
            raise InvalidInput(f"section {name!r} must be 2-D, got rank {arr.ndim}")
        tensors[tensor] = arr.astype(np.float64)
    return AttentionInstance(tensors["q"], tensors["k"], tensors["v"])


def cache_snapshot_dump(cache: MixedKVCache) -> TensorDump:
    """Freeze a cache's reconstructed state into a container.

    Sections: cache/keys and cache/values (reconstructions, cast to
    float32) and cache/key_bits, the per-token per-channel storage width
    (sink and residual rows at 16).
    """
    dim = cache.config.dim
    bit_rows = []
    for blk in cache.key_blocks:
        if blk.assignment is None:
            bit_rows.append(np.full((blk.length, dim), 16.0, dtype=np.float32))
        else:
            row = blk.assignment.bits.astype(np.float32)
            bit_rows.append(np.tile(row, (blk.length, 1)))
    if cache.residual_tokens:
        bit_rows.append(np.full((cache.residual_tokens, dim), 16.0, dtype=np.float32))
    key_bits = (
        np.vstack(bit_rows) if bit_rows else np.zeros((0, dim), dtype=np.float32)
    )

    dump = TensorDump()
    dump.add("cache/keys", cache.reconstruct_keys())
    dump.add("cache/values", cache.reconstruct_values())
    dump.add("cache/key_bits", key_bits)
    return dump


def _plain(value):
    """A numpy scalar's item() or an array's tolist(); any other value as it is."""
    return value.tolist() if isinstance(value, (np.generic, np.ndarray)) else value


def _render_cell(value) -> str:
    value = _plain(value)
    return repr(value) if isinstance(value, float) else str(value)


def _json_ready(value):
    """value with numpy values as Python ones and non-finite floats as their repr."""
    value = _plain(value)
    if isinstance(value, float):
        return value if abs(value) < float("inf") else repr(value)
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    return value


def write_records_csv(path, records) -> None:
    """Write records as CSV with \\n line ends, headed by the first record's keys.

    A record with other keys raises InvalidInput before the file opens.
    """
    columns = list(records[0]) if records else []
    for record in records:
        if record.keys() != records[0].keys():
            raise InvalidInput(f"record keys {list(record)} differ from the header {columns}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            writer.writerow([_render_cell(record[col]) for col in columns])


def write_records_json(path, payload) -> None:
    """Write a structured report as stable, indented JSON, encoded before the file opens."""
    try:
        text = json.dumps(_json_ready(payload), indent=2, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"report cannot be written as JSON: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")
