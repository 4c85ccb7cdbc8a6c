"""Asymmetric integer group quantization and bit packing.

A group is a short 1-D slice of a tensor (a run of tokens within one key
channel, or a run of channels within one value row) that shares a single
(zero_point, scale) pair:

    zero_point z = min(x)
    scale      s = (max(x) - min(x)) / (2**bits - 1)
    code(x)      = clamp(round((x - z) / s), 0, 2**bits - 1)
    decode(c)    = c * s + z

which guarantees |x - decode(code(x))| <= s / 2 for every element.

Conventions fixed here and relied on by the cache and the tests:

- rounding is half-away-from-zero (arguments are non-negative, so this is
  plain floor(y + 0.5), not banker's rounding);
- codes are clamped after rounding;
- a degenerate group (max == min) gets s = 0 and all-zero codes, and
  decodes exactly to z;
- all arithmetic runs in float64 regardless of the caller's dtype;
- packed buffers are LSB-first within each byte and little-endian across
  bytes, with the final partial byte zero-padded in its unused high bits.
  A byte is the shift-or of its codes, c0 | c1 << 2 | c2 << 4 | c3 << 6.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CorruptBuffer, InvalidInput, check_array, check_count

__all__ = [
    "BitWidth",
    "PackedBuffer",
    "QuantizedGroup",
    "quantize_group",
    "dequantize_group",
    "pack_codes",
    "unpack_codes",
]


class BitWidth(enum.IntEnum):
    """Storage width of one cache element.

    UINT2 and UINT4 are real quantized widths; FULL (16) marks tensors kept
    in full precision and is never packed.
    """

    UINT2 = 2
    UINT4 = 4
    FULL = 16


# Widths that quantize_group / pack_codes accept.
_QUANT_WIDTHS = (BitWidth.UINT2, BitWidth.UINT4)


def _as_bitwidth(bits) -> BitWidth:
    try:
        return BitWidth(check_count(bits, "bit width", 0))
    except ValueError:
        raise InvalidInput(f"bit width must be one of {{2, 4, 16}}, got {bits!r}") from None


def _require_quant_width(bits) -> BitWidth:
    width = _as_bitwidth(bits)
    if width not in _QUANT_WIDTHS:
        raise InvalidInput(f"quantized storage supports widths 2 and 4, got {int(width)}")
    return width


@dataclass(frozen=True)
class PackedBuffer:
    """Densely packed unsigned integer codes.

    `data` holds `length` codes of `bit_width` bits each, LSB-first within
    a byte and little-endian across bytes; the tail byte is zero-padded.
    A width other than 2 or 4, or `data` that is not bytes, raises
    InvalidInput; a byte count that does not fit `length` raises
    CorruptBuffer.
    """

    data: bytes
    bit_width: BitWidth
    length: int

    def __post_init__(self):
        object.__setattr__(self, "bit_width", _require_quant_width(self.bit_width))
        if not isinstance(self.data, bytes):
            raise InvalidInput(f"packed data must be bytes, got {type(self.data).__name__}")
        check_count(self.length, "length", 0)
        expected = math.ceil(self.length * int(self.bit_width) / 8)
        if len(self.data) != expected:
            raise CorruptBuffer(
                f"packed buffer holds {len(self.data)} bytes, expected {expected} "
                f"for {self.length} codes at {int(self.bit_width)} bits"
            )

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True)
class QuantizedGroup:
    """One quantized group: packed codes plus its affine parameters."""

    codes: PackedBuffer
    zero_point: float
    scale: float

    def __len__(self) -> int:
        return self.codes.length


def _pack_columns(codes: np.ndarray, width: int) -> np.ndarray:
    """Pack uint8 codes (..., n, C) along n into bytes (..., C, ceil(n * width / 8)).

    Each column is one buffer; one shift-or per code slot fills every byte.
    """
    per_byte = 8 // width
    *lead, n, n_cols = codes.shape
    packed = np.zeros((*lead, -(-n // per_byte), n_cols), dtype=np.uint8)
    for slot in range(per_byte):
        part = codes[..., slot::per_byte, :]
        packed[..., : part.shape[-2], :] |= part << np.uint8(slot * width)
    return np.ascontiguousarray(np.swapaxes(packed, -1, -2))


def _byte_codes(width: int) -> np.ndarray:
    """(256, 8 // width) table: the codes each byte value holds, lowest bits first."""
    shifts = np.arange(0, 8, width, dtype=np.uint8)
    return (np.arange(256, dtype=np.uint8)[:, None] >> shifts) & np.uint8(2**width - 1)


_LUT = {int(width): _byte_codes(int(width)) for width in _QUANT_WIDTHS}


def _unpack_bits(raw: np.ndarray, width: int, n: int) -> np.ndarray:
    """Invert _pack_columns: uint8 bytes (..., nbytes) back to codes (..., n).

    Each byte is looked up in a per-width table of the codes it holds;
    the padding codes of the last byte are trimmed.
    """
    codes = _LUT[width][raw]
    return codes.reshape(*raw.shape[:-1], raw.shape[-1] * (8 // width))[..., :n]


def quantize_group(values, bits) -> QuantizedGroup:
    """Quantize a non-empty 1-D group of finite reals to `bits`-bit codes.

    One run of a one-column _quantize_column_runs call. Raises
    InvalidInput for an empty, non-numeric or non-finite group, a bit
    width other than the integer 2 or 4, or a range too wide for float64:
    one whose max - min, or whose top decoded level, overflows.
    """
    width = _require_quant_width(bits)
    x = check_array(values, "group", 1)
    if x.size == 0:
        raise InvalidInput("cannot quantize an empty group")
    return _column_groups(_quantize_column_runs(x[:, None], width, x.size), width)[0][0]


def _quantize_column_runs(x: np.ndarray, bits, group_size: int) -> list[tuple]:
    """Quantize every column of an (L, C) matrix in runs of group_size rows.

    Returns one (size, packed, zero, scale) per run length, full runs
    first, then a partial last run if any: `packed` is (n_runs, C, nbytes)
    uint8, `zero` and `scale` are (n_runs, C). Each run is quantized as
    the module docstring states, in one numpy pass per run length, and
    packed by shift-or along the rows; quantize_group is the one-column,
    one-run call. Rows are assumed finite; a run whose range or top
    decoded level overflows raises InvalidInput.
    """
    width = _require_quant_width(bits)
    levels = 2 ** int(width) - 1
    length, n_cols = x.shape
    cut = length - length % group_size
    out = []
    for lo, hi, size in ((0, cut, group_size), (cut, length, length - cut)):
        if hi == lo:
            continue
        runs = x[lo:hi].reshape(-1, size, n_cols)
        zero = runs.min(axis=1)
        with np.errstate(over="ignore"):
            scale = (runs.max(axis=1) - zero) / levels
            top = levels * scale + zero
        if not np.all(np.isfinite(top)):
            raise InvalidInput("group range overflows float64")
        y = np.zeros(runs.shape)
        step = scale[:, None, :]
        np.divide(runs - zero[:, None, :], step, out=y, where=step != 0.0)
        codes = np.clip(np.floor(y + 0.5), 0, levels).astype(np.uint8)
        out.append((size, _pack_columns(codes, int(width)), zero, scale))
    return out


def _dequantize_column_runs(runs, bits) -> np.ndarray:
    """Decode the output of _quantize_column_runs, one numpy pass per run length.

    Returns a (C, L) matrix, the transpose of the matrix quantized, whose
    row c equals the dequantize_group of column c's groups, concatenated.
    """
    parts = []
    for size, packed, zero, scale in runs:
        codes = _unpack_bits(packed, int(bits), size).astype(np.float64)
        part = codes * scale[..., None] + zero[..., None]
        parts.append(part.transpose(1, 0, 2).reshape(part.shape[1], -1))
    return np.hstack(parts)


def _column_groups(runs, bits) -> list[tuple[QuantizedGroup, ...]]:
    """The groups of _quantize_column_runs output as objects, per column."""
    columns: list[list[QuantizedGroup]] = [[] for _ in range(runs[0][1].shape[1])]
    for size, packed, zeros, scales in runs:
        for run_bytes, run_zeros, run_scales in zip(packed, zeros.tolist(), scales.tolist()):
            for column, data, z, s in zip(columns, run_bytes, run_zeros, run_scales):
                column.append(QuantizedGroup(PackedBuffer(data.tobytes(), bits, size), z, s))
    return [tuple(column) for column in columns]


def dequantize_group(group: QuantizedGroup) -> np.ndarray:
    """Decode a group back to float64: code * scale + zero_point."""
    codes = unpack_codes(group.codes)
    return codes.astype(np.float64) * group.scale + group.zero_point


def pack_codes(codes, bits) -> PackedBuffer:
    """Pack a vector of codes (each < 2**bits) into a PackedBuffer.

    Element 0 occupies the lowest-order bits of byte 0; within every code
    the LSB comes first; the final partial byte is zero-padded high.
    Codes that are not finite integral numbers, or lie outside
    [0, 2**bits), raise InvalidInput.
    """
    width = _require_quant_width(bits)
    arr = check_array(codes, "codes", (0, 1)).reshape(-1)
    if arr.size == 0:
        return PackedBuffer(b"", width, 0)
    if not np.all(arr == np.trunc(arr)):
        raise InvalidInput("codes must be integers")
    if arr.min() < 0 or arr.max() >= 2 ** int(width):
        raise InvalidInput(f"codes out of range for {int(width)}-bit storage")

    packed = _pack_columns(arr.astype(np.uint8)[:, None], int(width))
    return PackedBuffer(packed.tobytes(), width, int(arr.size))


def unpack_codes(buffer: PackedBuffer) -> np.ndarray:
    """Invert pack_codes, returning a uint8 vector of length buffer.length.

    The buffer's width and byte length were checked when it was built.
    """
    raw = np.frombuffer(buffer.data, dtype=np.uint8)
    return _unpack_bits(raw, int(buffer.bit_width), buffer.length)
