"""Asymmetric group quantizer and bit-packing tests.

Worked examples pin the exact (zero_point, scale, codes) triples for
small groups; hypothesis rounds out the reconstruction bound and the
pack/unpack round trip over random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvmix import BitWidth, InvalidInput
from kvmix.quant import (
    PackedBuffer,
    QuantizedGroup,
    dequantize_group,
    pack_codes,
    quantize_group,
    unpack_codes,
    _column_groups,
    _dequantize_column_runs,
    _pack_columns,
    _quantize_column_runs,
    _unpack_bits,
)


def codes_of(group: QuantizedGroup) -> np.ndarray:
    return unpack_codes(group.codes)


class TestQuantizeGroup:
    def test_integer_ramp_two_bit(self):
        g = quantize_group([0.0, 1.0, 2.0, 3.0], BitWidth.UINT2)
        assert g.zero_point == 0.0
        assert g.scale == 1.0
        assert codes_of(g).tolist() == [0, 1, 2, 3]

    def test_ties_round_half_away_from_zero(self):
        # (x - z) / s lands on 0.5 and 2.5: half-away gives 1 and 3, where
        # round-half-to-even would give 0 and 2
        g = quantize_group([0.0, 0.5, 2.5, 3.0], BitWidth.UINT2)
        assert g.scale == 1.0
        assert codes_of(g).tolist() == [0, 1, 3, 3]
        assert g == quantize_group_oracle(np.array([0.0, 0.5, 2.5, 3.0]), BitWidth.UINT2)

    def test_constant_group_degenerates_to_zero_scale(self):
        g = quantize_group([5.0, 5.0, 5.0], BitWidth.UINT4)
        assert g.zero_point == 5.0
        assert g.scale == 0.0
        assert codes_of(g).tolist() == [0, 0, 0]
        np.testing.assert_array_equal(dequantize_group(g), [5.0, 5.0, 5.0])

    def test_fractional_group_two_bit(self):
        g = quantize_group([0.0, 0.3, 0.7, 1.0], BitWidth.UINT2)
        assert g.zero_point == 0.0
        assert g.scale == pytest.approx(1.0 / 3.0)
        assert codes_of(g).tolist() == [0, 1, 2, 3]

    def test_reconstruction_of_fractional_group(self):
        x = np.array([0.0, 0.3, 0.7, 1.0])
        g = quantize_group(x, BitWidth.UINT2)
        x_hat = dequantize_group(g)
        np.testing.assert_allclose(x_hat, [0.0, 1 / 3, 2 / 3, 1.0])
        assert np.max(np.abs(x - x_hat)) == pytest.approx(1.0 / 30.0)
        assert np.max(np.abs(x - x_hat)) <= g.scale / 2

    def test_four_bit_scale_is_one_fifth_of_two_bit(self):
        # (max-min)/15 vs (max-min)/3
        rng = np.random.default_rng(7)
        x = rng.normal(size=32)
        g2 = quantize_group(x, BitWidth.UINT2)
        g4 = quantize_group(x, BitWidth.UINT4)
        assert g4.scale == pytest.approx(g2.scale / 5.0)
        assert g4.zero_point == g2.zero_point

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=24)
        perm = rng.permutation(24)
        g = quantize_group(x, BitWidth.UINT4)
        gp = quantize_group(x[perm], BitWidth.UINT4)
        assert gp.zero_point == g.zero_point
        assert gp.scale == g.scale
        np.testing.assert_array_equal(codes_of(gp), codes_of(g)[perm])

    def test_zero_point_is_group_minimum(self):
        x = np.array([-2.5, 4.0, 1.0])
        g = quantize_group(x, BitWidth.UINT2)
        assert g.zero_point == -2.5
        assert g.scale == pytest.approx(6.5 / 3.0)

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidInput):
            quantize_group([], BitWidth.UINT2)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            quantize_group([0.0, np.nan], BitWidth.UINT2)
        with pytest.raises(InvalidInput):
            quantize_group([0.0, np.inf], BitWidth.UINT4)

    def test_overflowing_range_rejected(self):
        # max - min overflows, or the top level's decode c * s + z does
        with pytest.raises(InvalidInput):
            quantize_group([-1e308, 1e308], BitWidth.UINT4)
        with pytest.raises(InvalidInput):
            quantize_group([0.0, np.finfo(np.float64).max], BitWidth.UINT2)

    def test_full_precision_width_rejected(self):
        # 16 marks pass-through storage, it is not a quantizer width
        with pytest.raises(InvalidInput):
            quantize_group([1.0, 2.0], BitWidth.FULL)

    def test_unknown_width_rejected(self):
        with pytest.raises(InvalidInput):
            quantize_group([1.0, 2.0], 3)

    def test_matrix_input_rejected(self):
        with pytest.raises(InvalidInput):
            quantize_group(np.zeros((2, 2)), BitWidth.UINT2)


class TestErrorBound:
    def test_bound_is_half_scale(self):
        g = QuantizedGroup(pack_codes([0, 1], BitWidth.UINT2), zero_point=0.0, scale=1.0)
        assert g.scale / 2 == 0.5

    def test_bound_zero_for_degenerate_scale(self):
        g = QuantizedGroup(pack_codes([0, 0], BitWidth.UINT2), zero_point=3.0, scale=0.0)
        assert g.scale / 2 == 0.0

    def test_bound_third_scale_example(self):
        g = QuantizedGroup(pack_codes([0, 3], BitWidth.UINT2), zero_point=0.0, scale=1 / 3)
        assert g.scale / 2 == pytest.approx(1.0 / 6.0)


class TestPacking:
    def test_two_bit_ramp_packs_to_single_byte(self):
        buf = pack_codes([0, 1, 2, 3], BitWidth.UINT2)
        assert buf.data == bytes([0xE4])
        assert len(buf) == 4

    def test_four_bit_single_code_pads_high_nibble(self):
        buf = pack_codes([15], BitWidth.UINT4)
        assert buf.data == bytes([0x0F])
        assert len(buf) == 1

    def test_empty_sequence(self):
        buf = pack_codes([], BitWidth.UINT2)
        assert buf.data == b""
        assert len(buf) == 0
        assert unpack_codes(buf).tolist() == []

    def test_tail_padding_round_trip(self):
        for length in range(1, 18):
            codes = [i % 4 for i in range(length)]
            buf = pack_codes(codes, BitWidth.UINT2)
            assert len(buf.data) == (length * 2 + 7) // 8
            assert unpack_codes(buf).tolist() == codes

    def test_out_of_range_code_rejected(self):
        with pytest.raises(InvalidInput):
            pack_codes([4], BitWidth.UINT2)
        with pytest.raises(InvalidInput):
            pack_codes([-1], BitWidth.UINT4)
        with pytest.raises(InvalidInput):
            pack_codes([16], BitWidth.UINT4)

    def test_integral_float_codes_pack_as_ints(self):
        codes = [0, 3, 1, 2, 3]
        floats = pack_codes(np.array(codes, dtype=np.float64), BitWidth.UINT2)
        assert floats == pack_codes(codes, BitWidth.UINT2)

    def test_non_integer_code_rejected(self):
        with pytest.raises(InvalidInput):
            pack_codes([0.5], BitWidth.UINT2)

    def test_full_precision_never_packed(self):
        with pytest.raises(InvalidInput):
            pack_codes([0, 1], BitWidth.FULL)

    def test_buffer_length_validation(self):
        # 5 two-bit codes need 2 bytes, not 1 or 3
        with pytest.raises(InvalidInput, match="bytes, expected"):
            PackedBuffer(data=b"\x00", bit_width=BitWidth.UINT2, length=5)
        with pytest.raises(InvalidInput, match="bytes, expected"):
            PackedBuffer(data=b"\x00\x00\x00", bit_width=BitWidth.UINT2, length=5)
        PackedBuffer(data=b"\x00\x00", bit_width=BitWidth.UINT2, length=5)


@given(
    values=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
        min_size=1,
        max_size=256,
    ),
    bits=st.sampled_from([BitWidth.UINT2, BitWidth.UINT4]),
)
@settings(max_examples=300, deadline=None)
def test_reconstruction_error_within_half_scale(values, bits):
    g = quantize_group(values, bits)
    x = np.asarray(values, dtype=np.float64)
    x_hat = dequantize_group(g)
    slack = 8 * np.spacing(np.maximum(np.abs(x), np.abs(x_hat)))
    assert np.all(np.abs(x - x_hat) <= g.scale / 2 + slack)


@given(
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.sampled_from([np.finfo(np.float64).max, -np.finfo(np.float64).max, 0.0]),
        ),
        min_size=1,
        max_size=16,
    ),
    bits=st.sampled_from([BitWidth.UINT2, BitWidth.UINT4]),
)
@settings(max_examples=300, deadline=None)
def test_extreme_magnitudes_keep_bound_or_raise(values, bits):
    # a range that overflows float64 must fail loudly, never decode to NaN
    x = np.asarray(values, dtype=np.float64)
    try:
        g = quantize_group(values, bits)
    except InvalidInput:
        assert np.max(np.abs(x)) >= np.finfo(np.float64).max / 4
        return
    x_hat = dequantize_group(g)
    assert np.all(np.isfinite(x_hat))
    # capped so that the spacing of the largest float stays finite
    magnitude = np.minimum(np.maximum(np.abs(x), np.abs(x_hat)), np.finfo(np.float64).max / 2)
    slack = 8 * np.spacing(magnitude)
    assert np.all(np.abs(x - x_hat) <= g.scale / 2 + slack)


@given(
    codes=st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=64),
)
@settings(max_examples=200, deadline=None)
def test_pack_unpack_identity_two_bit(codes):
    buf = pack_codes(codes, BitWidth.UINT2)
    assert unpack_codes(buf).tolist() == codes


@given(
    codes=st.lists(st.integers(min_value=0, max_value=15), min_size=0, max_size=64),
)
@settings(max_examples=200, deadline=None)
def test_pack_unpack_identity_four_bit(codes):
    buf = pack_codes(codes, BitWidth.UINT4)
    assert unpack_codes(buf).tolist() == codes


def unpack_bits_oracle(raw: np.ndarray, width: int, n: int) -> np.ndarray:
    """The bit-level decode: unpack every bit, then shift-and-sum each code."""
    bits = np.unpackbits(raw, axis=-1, count=n * width, bitorder="little")
    shifts = np.arange(width, dtype=np.uint8)
    return (bits.reshape(*raw.shape[:-1], n, width) << shifts).sum(axis=-1, dtype=np.uint8)


@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("nbytes", [1, 2, 3])
def test_byte_table_unpack_matches_bit_oracle(width, nbytes):
    # every byte value at every byte position, and every code count that
    # needs exactly nbytes bytes, partial last bytes included
    per_byte = 8 // width
    values = np.arange(256, dtype=np.uint8)
    raw = np.stack([np.roll(values, 37 * i) for i in range(nbytes)], axis=-1)
    for n in range((nbytes - 1) * per_byte + 1, nbytes * per_byte + 1):
        got = _unpack_bits(raw, width, n)
        want = unpack_bits_oracle(raw, width, n)
        assert got.shape == want.shape == (256, n)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)
    # a batch with two leading axes, as the flushed tiers hold it
    batch = raw.reshape(16, 16, nbytes)
    np.testing.assert_array_equal(
        _unpack_bits(batch, width, nbytes * per_byte),
        unpack_bits_oracle(batch, width, nbytes * per_byte),
    )


def pack_bits_oracle(codes: np.ndarray, width: int) -> np.ndarray:
    """The bit-level encode: expand every code into its bits, then pack the bits.

    Packs uint8 codes (..., n) along the last axis into bytes
    (..., ceil(n * width / 8)), LSB-first, the last byte zero-padded.
    """
    bits = (codes[..., None] >> np.arange(width, dtype=np.uint8)) & 1
    return np.packbits(bits.reshape(*codes.shape[:-1], -1), axis=-1, bitorder="little")


def quantize_group_oracle(x: np.ndarray, bits) -> QuantizedGroup:
    """The quantizer written out for one group, as kvmix.quant's docstring states it.

    Zero point min(x), scale (max - min) / (2**bits - 1), an overflow
    check on the top decoded level, half-away rounding, a clamp, and the
    bit-level packing of pack_bits_oracle.
    """
    width = int(bits)
    levels = 2**width - 1
    zero_point = float(x.min())
    scale = (float(x.max()) - zero_point) / levels
    if not np.isfinite(levels * scale + zero_point):
        raise InvalidInput("group range overflows float64")
    if scale == 0.0:
        codes = np.zeros(x.size, dtype=np.uint8)
    else:
        y = (x - zero_point) / scale
        codes = np.clip(np.trunc(y + np.copysign(0.5, y)), 0, levels).astype(np.uint8)
    packed = PackedBuffer(pack_bits_oracle(codes, width).tobytes(), BitWidth(width), x.size)
    return QuantizedGroup(packed, zero_point, scale)


@given(
    width=st.sampled_from([2, 4]),
    n=st.integers(min_value=1, max_value=40),
    n_cols=st.integers(min_value=1, max_value=130),
    runs=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_shift_or_pack_matches_bit_oracle(width, n, n_cols, runs, seed):
    # the flush's packer against the bit expansion, run lengths with and
    # without a partial last byte; then back through the byte-table unpack
    codes = np.random.default_rng(seed).integers(0, 2**width, size=(runs, n, n_cols), dtype=np.uint8)
    packed = _pack_columns(codes, width)
    per_column = codes.transpose(0, 2, 1)
    want = pack_bits_oracle(per_column, width)
    assert packed.shape == want.shape == (runs, n_cols, -(-n * width // 8))
    assert packed.dtype == np.uint8 and packed.flags.c_contiguous
    np.testing.assert_array_equal(packed, want)
    np.testing.assert_array_equal(_unpack_bits(packed, width, n), per_column)
    # a single buffer, as pack_codes builds it
    column = per_column[0, 0]
    assert pack_codes(column, width).data == pack_bits_oracle(column, width).tobytes()


@given(
    scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    shift=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    bits=st.sampled_from([BitWidth.UINT2, BitWidth.UINT4]),
)
@settings(max_examples=150, deadline=None)
def test_codes_stay_in_range(scale, shift, n, seed, bits):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=shift, scale=scale, size=n)
    g = quantize_group(x, bits)
    c = codes_of(g)
    assert c.min() >= 0
    assert c.max() <= 2**int(bits) - 1


def scalar_runs(column: np.ndarray, bits, group_size: int) -> tuple[QuantizedGroup, ...]:
    return tuple(
        quantize_group_oracle(column[lo : lo + group_size], bits)
        for lo in range(0, column.shape[0], group_size)
    )


@given(
    length=st.integers(min_value=1, max_value=40),
    n_cols=st.integers(min_value=1, max_value=6),
    group_size=st.integers(min_value=1, max_value=9),
    bits=st.sampled_from([BitWidth.UINT2, BitWidth.UINT4]),
    discrete=st.booleans(),
    constant_col=st.integers(min_value=-1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=300, deadline=None)
def test_column_runs_match_scalar_quantizer(
    length, n_cols, group_size, bits, discrete, constant_col, seed
):
    # the flush's batch quantizer against the written-out oracle, group by
    # group: identical packed codes, zero point and scale, partial last run
    # and constant (scale 0) runs included, each group also as quantize_group
    # returns it, and the batch decode equal to dequantize_group value for value
    rng = np.random.default_rng(seed)
    if discrete:
        x = rng.integers(-1, 2, size=(length, n_cols)).astype(np.float64)
    else:
        x = rng.normal(size=(length, n_cols)) * 10.0 ** rng.uniform(-3, 3)
    if 0 <= constant_col < n_cols:
        x[:, constant_col] = rng.normal()
    arrays = _quantize_column_runs(x, bits, group_size)
    columns = _column_groups(arrays, bits)
    assert len(columns) == n_cols
    for c, runs in enumerate(columns):
        expect = scalar_runs(x[:, c], bits, group_size)
        assert len(runs) == len(expect)
        for lo, got, want in zip(range(0, length, group_size), runs, expect):
            assert got.codes == want.codes
            assert got.zero_point == want.zero_point
            assert got.scale == want.scale
            assert type(got.zero_point) is float and type(got.scale) is float
            assert quantize_group(x[lo : lo + group_size, c], bits) == got
    decoded = np.stack(
        [np.concatenate([dequantize_group(g) for g in runs]) for runs in columns]
    )
    np.testing.assert_array_equal(_dequantize_column_runs(arrays, bits), decoded)


@pytest.mark.parametrize("bits", [BitWidth.UINT2, BitWidth.UINT4])
def test_column_runs_reject_an_overflowing_column(bits):
    # a range whose max - min overflows, in the partial last run
    x = np.zeros((6, 3))
    x[4, 1], x[5, 1] = -1e308, 1e308
    with pytest.raises(InvalidInput):
        _quantize_column_runs(x, bits, 4)
    # a finite range whose top decoded level overflows, in a full run
    x = np.zeros((6, 3))
    x[1, 2] = np.finfo(np.float64).max
    with pytest.raises(InvalidInput):
        _quantize_column_runs(x, bits, 4)
