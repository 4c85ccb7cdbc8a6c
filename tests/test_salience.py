"""Channel scoring tests: importance, sensitivity, salience, tiers, rotary map.

The tier rule is probed through resolve_assignment under the error-only
policy, which cuts the sensitivity argument alone by the thresholds.

The accumulator's partition invariance is checked bit-exactly: feeding
the same rows in different chunkings must give an identical float sum,
which the left-to-right fold guarantees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvmix import (
    AllocationPolicy,
    BitWidth,
    InvalidInput,
    PrecisionAssignment,
    QueryAccumulator,
    UndefinedMetric,
    apply_rope,
    resolve_assignment,
    salience_score,
    sensitivity_score,
)


def tiers(scores, tau_full, tau_mid):
    """The tier rule applied to `scores`: the error-only policy's threshold mode."""
    return resolve_assignment(AllocationPolicy.error_only(), None, scores, (tau_full, tau_mid))


class TestQueryAccumulator:
    def test_mean_absolute_magnitude(self):
        acc = QueryAccumulator(2)
        acc.add(np.array([[1.0, -2.0], [3.0, -4.0]]))
        np.testing.assert_array_equal(acc.importance(), [2.0, 3.0])
        assert acc.count == 2

    def test_empty_window_raises(self):
        acc = QueryAccumulator(3)
        with pytest.raises(UndefinedMetric):
            acc.importance()

    def test_single_row_promoted(self):
        acc = QueryAccumulator(2)
        acc.add(np.array([1.0, -5.0]))
        np.testing.assert_array_equal(acc.importance(), [1.0, 5.0])
        assert acc.count == 1

    def test_empty_block_is_noop(self):
        acc = QueryAccumulator(2)
        acc.add(np.zeros((0, 2)))
        assert acc.count == 0

    def test_dimension_mismatch_rejected(self):
        acc = QueryAccumulator(2)
        with pytest.raises(InvalidInput):
            acc.add(np.zeros((1, 3)))

    def test_non_finite_rejected(self):
        acc = QueryAccumulator(2)
        with pytest.raises(InvalidInput):
            acc.add(np.array([[1.0, np.nan]]))

    def test_partition_invariance_bit_exact(self):
        # float addition is not associative; the fold is row-sequential
        # so any chunking of the same row order gives identical sums
        rng = np.random.default_rng(3)
        q = rng.normal(size=(37, 8)) * 10.0 ** rng.integers(-3, 4, size=(37, 8))
        whole = QueryAccumulator(8).add(q)
        parts = QueryAccumulator(8)
        cuts = [0, 1, 4, 9, 17, 37]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            parts.add(q[lo:hi])
        np.testing.assert_array_equal(parts.abs_sum, whole.abs_sum)
        np.testing.assert_array_equal(parts.importance(), whole.importance())

    def test_row_by_row_matches_block(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(20, 4))
        block = QueryAccumulator(4).add(q)
        rows = QueryAccumulator(4)
        for row in q:
            rows.add(row)
        np.testing.assert_array_equal(rows.abs_sum, block.abs_sum)

    @given(
        dim=st.integers(min_value=1, max_value=200),
        rows=st.integers(min_value=1, max_value=300),
        prior_rows=st.integers(min_value=0, max_value=3),
        low=st.integers(min_value=-3, max_value=3),
        decades=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_fold_equals_row_loop(self, dim, rows, prior_rows, low, decades, seed):
        # the block fold against the row-by-row recurrence, bit for bit,
        # on magnitudes spread over up to six decades in [1e-3, 1e3]
        high = min(low + decades, 3)
        rng = np.random.default_rng(seed)
        prior, q = (
            rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(low, high, size=(n, dim))
            for n in (prior_rows, rows)
        )
        acc = QueryAccumulator(dim).add(prior)
        want = np.zeros(dim)
        for row in np.vstack([prior, q]):
            want += np.abs(row)
        acc.add(q)
        assert np.array_equal(acc.abs_sum, want)
        assert acc.count == prior_rows + rows

    def test_copy_is_independent(self):
        acc = QueryAccumulator(2).add(np.array([[1.0, 2.0]]))
        dup = acc.copy()
        dup.add(np.array([[10.0, 10.0]]))
        np.testing.assert_array_equal(acc.importance(), [1.0, 2.0])

    def test_importance_score_helper(self):
        acc = QueryAccumulator(2).add(np.array([[1.0, -2.0], [3.0, -4.0]]))
        np.testing.assert_array_equal(acc.importance(), [2.0, 3.0])


class TestSensitivityScore:
    def test_two_bit_step_of_unit_ramp(self):
        keys = np.array([[0.0], [1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(sensitivity_score(keys), [1.0])

    def test_default_width_is_two_bit(self):
        keys = np.array([[0.0, 5.0], [3.0, 5.0]])
        np.testing.assert_array_equal(sensitivity_score(keys), [1.0, 0.0])

    def test_per_channel_ranges(self):
        keys = np.array([[0.0, -6.0], [3.0, 0.0]])
        np.testing.assert_array_equal(sensitivity_score(keys), [1.0, 2.0])

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidInput):
            sensitivity_score(np.zeros((0, 2)))

    def test_overflowing_range_rejected(self):
        with pytest.raises(InvalidInput):
            sensitivity_score(np.array([[-1e308, 0.0], [1e308, 0.0]]))


class TestSalienceScore:
    def test_elementwise_product(self):
        np.testing.assert_array_equal(
            salience_score(np.array([2.0, 3.0]), np.array([1.0, 0.0])), [2.0, 0.0]
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            salience_score(np.array([1.0]), np.array([1.0, 2.0]))

    def test_negative_scores_rejected(self):
        with pytest.raises(InvalidInput):
            salience_score(np.array([-1.0]), np.array([1.0]))


class TestAssignPrecision:
    def test_three_tier_split(self):
        a = tiers(np.array([1.5, 1.0, 0.5]), tau_full=1.44, tau_mid=0.79)
        assert a.bits.tolist() == [16, 4, 2]
        assert a.tier_counts() == (1, 1, 1)

    def test_boundary_goes_to_cheaper_tier(self):
        # equality with tau_full stays at 4 bits, equality with tau_mid drops to 2
        a = tiers(np.array([1.0, 0.5]), tau_full=1.0, tau_mid=0.5)
        assert a.bits.tolist() == [4, 2]

    def test_negative_thresholds_promote_everything(self):
        a = tiers(np.array([0.0, 0.3, 7.0]), tau_full=-1.0, tau_mid=-1.0)
        assert a.bits.tolist() == [16, 16, 16]
        assert a.bits.mean() == 16.0

    def test_infinite_thresholds_demote_everything(self):
        a = tiers(np.array([0.0, 0.3, 7.0]), tau_full=np.inf, tau_mid=np.inf)
        assert a.bits.tolist() == [2, 2, 2]
        assert a.bits.mean() == 2.0

    def test_threshold_ordering_enforced(self):
        with pytest.raises(InvalidInput):
            tiers(np.array([1.0]), tau_full=0.5, tau_mid=1.0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(InvalidInput):
            tiers(np.array([1.0]), tau_full=np.nan, tau_mid=0.0)

    def test_channels_at_and_counts(self):
        a = tiers(np.array([5.0, 0.1, 2.0, 0.1]), tau_full=3.0, tau_mid=1.0)
        assert a.channels_at(BitWidth.FULL).tolist() == [0]
        assert a.channels_at(BitWidth.UINT4).tolist() == [2]
        assert a.channels_at(BitWidth.UINT2).tolist() == [1, 3]
        assert a.tier_counts() == (1, 1, 2)
        assert a.bits.mean() == pytest.approx((16 + 4 + 2 + 2) / 4)

    def test_assignment_equality_and_hash(self):
        a = PrecisionAssignment(np.array([16, 4, 2], dtype=np.uint8))
        b = PrecisionAssignment(np.array([16, 4, 2], dtype=np.uint8))
        c = PrecisionAssignment(np.array([2, 4, 16], dtype=np.uint8))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        # a non-assignment compares unequal rather than raising
        assert a != "x"
        assert (a == 3) is False

    def test_assignment_is_immutable(self):
        a = tiers(np.array([1.0]), tau_full=2.0, tau_mid=0.5)
        with pytest.raises(ValueError):
            a.bits[0] = 16

    def test_invalid_tier_value_rejected(self):
        with pytest.raises(InvalidInput):
            PrecisionAssignment(np.array([8], dtype=np.uint8))


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=64),
    factor=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_tiering_covariant_under_joint_scaling(seed, n, factor):
    # scaling salience and both thresholds together cannot change tiers
    rng = np.random.default_rng(seed)
    salience = rng.uniform(0.0, 2.0, size=n)
    tau_full, tau_mid = 1.2, 0.4
    base = tiers(salience, tau_full, tau_mid)
    scaled = tiers(salience * factor, tau_full * factor, tau_mid * factor)
    # equality comparisons at boundaries can flip with rounding, so keep
    # the check on instances with no exact threshold hits
    hits = np.any(np.isclose(salience[:, None], [[tau_full, tau_mid]], rtol=1e-9))
    if not hits:
        assert scaled.bits.tolist() == base.bits.tolist()


class TestRotaryMap:
    def test_position_zero_is_identity(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_allclose(apply_rope(x, np.array([0])), x)

    def test_quarter_turn_on_first_pair(self):
        # theta for pair 0 is 1.0, so position pi/2 rotates (1,0) to (0,1)
        x = np.array([[1.0, 0.0]])
        out = apply_rope(x, np.array([np.pi / 2]))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(16, 8))
        pos = np.arange(16)
        out = apply_rope(x, pos)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), rtol=1e-12
        )

    def test_rotation_composes_additively(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 6))
        once = apply_rope(apply_rope(x, np.full(4, 3.0)), np.full(4, 5.0))
        joint = apply_rope(x, np.full(4, 8.0))
        np.testing.assert_allclose(once, joint, atol=1e-10)

    def test_dot_product_depends_on_relative_position(self):
        rng = np.random.default_rng(17)
        q = rng.normal(size=8)
        k = rng.normal(size=8)
        a = apply_rope(q[None, :], np.array([7]))[0] @ apply_rope(k[None, :], np.array([3]))[0]
        b = apply_rope(q[None, :], np.array([11]))[0] @ apply_rope(k[None, :], np.array([7]))[0]
        assert a == pytest.approx(b, rel=1e-10)

    def test_odd_dim_rejected(self):
        with pytest.raises(InvalidInput):
            apply_rope(np.zeros((1, 3)), np.array([0]))

    def test_position_count_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            apply_rope(np.zeros((2, 4)), np.array([0]))
