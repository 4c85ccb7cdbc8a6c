"""Allocation policy tests: top-k budget semantics, tie-breaking, policy
object validation, and the dispatcher.
"""

import numpy as np
import pytest

from kvmix import (
    AllocationPolicy,
    BitWidth,
    CacheConfig,
    InvalidInput,
    PlantedSpec,
    PolicyKind,
    PrecisionAssignment,
    decode_simulation,
    resolve_assignment,
)

TAUS = (1.0, 0.5)


def tier_rule(scores, tau_full, tau_mid):
    """16 bits above tau_full, 4 above tau_mid, else 2, written out by hand."""
    return PrecisionAssignment(np.where(scores > tau_full, 16, np.where(scores > tau_mid, 4, 2)))


def fixed_uniform(n_channels, bits):
    return resolve_assignment(
        AllocationPolicy.fixed_uniform(bits), None, np.zeros(n_channels), TAUS
    )


def error_only_topk(sensitivity, budget):
    sens = np.asarray(sensitivity, dtype=np.float64)
    return resolve_assignment(
        AllocationPolicy.error_only(budget), np.ones(sens.size), sens, TAUS
    )


def salience_topk(salience, budget):
    # unit importance makes the policy's score I * S equal to `salience`
    sal = np.asarray(salience, dtype=np.float64)
    return resolve_assignment(
        AllocationPolicy.salience(budget), np.ones(sal.size), sal, TAUS
    )


class TestFixedUniform:
    def test_every_channel_same_width(self):
        a = fixed_uniform(5, BitWidth.UINT4)
        assert a.bits.tolist() == [4] * 5
        a = fixed_uniform(3, 2)
        assert a.bits.tolist() == [2] * 3

    def test_full_width_rejected(self):
        with pytest.raises(InvalidInput):
            fixed_uniform(4, BitWidth.FULL)

    def test_needs_channels(self):
        with pytest.raises(InvalidInput):
            fixed_uniform(0, BitWidth.UINT2)


class TestTopKBudgets:
    def test_error_only_ranks_by_sensitivity(self):
        a = error_only_topk(np.array([3.0, 1.0, 2.0]), budget=(1, 1))
        assert a.bits.tolist() == [16, 2, 4]

    def test_zero_budget_floors_everything(self):
        a = error_only_topk(np.array([3.0, 1.0, 2.0]), budget=(0, 0))
        assert a.bits.tolist() == [2, 2, 2]

    def test_ties_break_toward_lower_channel(self):
        a = error_only_topk(np.ones(4), budget=(1, 1))
        assert a.bits.tolist() == [16, 4, 2, 2]

    def test_salience_topk_ranks_by_salience(self):
        a = salience_topk(np.array([0.0, 5.0, 1.0]), budget=(1, 1))
        assert a.bits.tolist() == [2, 16, 4]

    def test_full_budget_promotes_everything(self):
        a = salience_topk(np.array([0.4, 0.2, 0.9]), budget=(3, 0))
        assert a.bits.tolist() == [16, 16, 16]

    def test_budget_exceeding_channels_rejected(self):
        with pytest.raises(InvalidInput):
            salience_topk(np.ones(3), budget=(2, 2))

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidInput):
            error_only_topk(np.ones(3), budget=(-1, 0))

    def test_non_finite_scores_rejected(self):
        with pytest.raises(InvalidInput):
            salience_topk(np.array([1.0, np.nan]), budget=(1, 0))

    def test_budget_controls_tier_counts_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.uniform(size=10)
            n_full, n_mid = rng.integers(0, 5), rng.integers(0, 5)
            a = salience_topk(scores, budget=(int(n_full), int(n_mid)))
            assert a.tier_counts() == (n_full, n_mid, 10 - n_full - n_mid)


class TestPolicyObjects:
    def test_labels(self):
        assert AllocationPolicy.salience().label == "salience"
        assert AllocationPolicy.error_only().label == "error-only"
        assert AllocationPolicy.fixed_uniform(4).label == "fixed-uniform-4"
        assert AllocationPolicy.full_precision().label == "full-precision"

    def test_kind_may_be_given_by_value(self):
        # a str kind is converted, so a cache built with it keeps every
        # channel and value exact, as the full-precision policy does
        policy = AllocationPolicy("full-precision")
        assert policy == AllocationPolicy.full_precision()
        spec = PlantedSpec(dim=8, length=24, n_outlier_scale=1, n_outlier_query=1)
        config = CacheConfig(dim=8, group_size=4, residual_len=8, sink_len=2)
        report = decode_simulation(spec, config, policy)
        assert (report.e_attn_frobenius, report.output_error_frobenius) == (0.0, 0.0)
        assert (report.effective_bits, report.policy_label) == (16.0, "full-precision")

    def test_fixed_uniform_requires_width(self):
        with pytest.raises(InvalidInput):
            AllocationPolicy(PolicyKind.FIXED_UNIFORM)

    def test_fixed_uniform_sixteen_rejected(self):
        with pytest.raises(InvalidInput):
            AllocationPolicy.fixed_uniform(16)

    def test_fixed_uniform_unknown_width_is_a_typed_error(self):
        with pytest.raises(InvalidInput):
            AllocationPolicy.fixed_uniform(3)
        with pytest.raises(InvalidInput):
            AllocationPolicy(PolicyKind.FIXED_UNIFORM, bits=3)

    def test_width_on_other_kinds_rejected(self):
        with pytest.raises(InvalidInput):
            AllocationPolicy(PolicyKind.SALIENCE, bits=BitWidth.UINT2)

    def test_budget_on_uniform_kinds_rejected(self):
        with pytest.raises(InvalidInput):
            AllocationPolicy(PolicyKind.FULL_PRECISION, budget=(1, 1))
        with pytest.raises(InvalidInput):
            AllocationPolicy(PolicyKind.FIXED_UNIFORM, bits=BitWidth.UINT2, budget=(1, 1))

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidInput):
            AllocationPolicy.salience(budget=(-1, 2))


class TestResolveAssignment:
    # dyadic values keep the products exact, so the planted score ties
    # below are real ties and not last-ulp accidents
    IMP = np.array([1.0, 2.0, 3.0, 4.0])
    SENS = np.array([0.5, 0.375, 0.25, 0.125])
    TAUS = (1.0, 0.5)

    def test_full_precision_ignores_scores(self):
        a = resolve_assignment(AllocationPolicy.full_precision(), self.IMP, self.SENS, self.TAUS)
        assert a.bits.tolist() == [16] * 4

    def test_fixed_uniform_ignores_scores(self):
        a = resolve_assignment(AllocationPolicy.fixed_uniform(4), self.IMP, self.SENS, self.TAUS)
        assert a.bits.tolist() == [4] * 4

    def test_salience_threshold_mode(self):
        # salience = I * S = [0.5, 0.75, 0.75, 0.5]
        a = resolve_assignment(AllocationPolicy.salience(), self.IMP, self.SENS, self.TAUS)
        expect = tier_rule(self.IMP * self.SENS, *self.TAUS)
        assert a == expect
        assert a.bits.tolist() == [2, 4, 4, 2]

    def test_error_only_threshold_mode(self):
        a = resolve_assignment(AllocationPolicy.error_only(), self.IMP, self.SENS, self.TAUS)
        expect = tier_rule(self.SENS, *self.TAUS)
        assert a == expect

    def test_salience_budget_mode(self):
        a = resolve_assignment(
            AllocationPolicy.salience(budget=(1, 1)), self.IMP, self.SENS, self.TAUS
        )
        # salience [0.5, 0.75, 0.75, 0.5]: the tie at 0.75 promotes channel 1
        assert a.bits.tolist() == [2, 16, 4, 2]

    @pytest.mark.parametrize(
        "policy",
        [
            AllocationPolicy.full_precision(),
            AllocationPolicy.fixed_uniform(2),
            AllocationPolicy.salience(),
            AllocationPolicy.error_only(),
            AllocationPolicy.salience(budget=(0, 0)),
            AllocationPolicy.error_only(budget=(0, 0)),
        ],
        ids=lambda p: f"{p.label}-budget" if p.budget else p.label,
    )
    def test_no_channels_rejected_under_every_kind(self, policy):
        # the assignment's own check, reached by every kind
        with pytest.raises(InvalidInput, match="at least one channel"):
            resolve_assignment(policy, [], [], self.TAUS)

    def test_error_only_budget_mode_ignores_importance(self):
        a = resolve_assignment(
            AllocationPolicy.error_only(budget=(1, 1)), self.IMP, self.SENS, self.TAUS
        )
        b = resolve_assignment(
            AllocationPolicy.error_only(budget=(1, 1)), self.IMP * 100, self.SENS, self.TAUS
        )
        assert a == b
        assert a.bits.tolist() == [16, 4, 2, 2]


class TestDegenerateEquivalence:
    @pytest.mark.parametrize("budget", [None, (3, 5)], ids=["threshold", "budget"])
    def test_error_only_is_salience_with_unit_importance(self, budget):
        # 1 * S == S exactly, so the two policies agree bit for bit
        rng = np.random.default_rng(2)
        for _ in range(100):
            imp, sens = rng.uniform(0.0, 5.0, size=(2, 16))
            taus = tuple(sorted(rng.uniform(0.0, 5.0, size=2), reverse=True))
            lhs = resolve_assignment(AllocationPolicy.error_only(budget), imp, sens, taus)
            rhs = resolve_assignment(AllocationPolicy.salience(budget), np.ones(16), sens, taus)
            assert lhs == rhs

    def test_constant_importance_reduces_salience_to_error_only(self):
        # with I constant, I*S is a positive multiple of S, so the two
        # rankings agree channel for channel
        rng = np.random.default_rng(1)
        for _ in range(100):
            sens = rng.uniform(0.0, 5.0, size=16)
            c = float(rng.uniform(0.1, 10.0))
            budget = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            lhs = salience_topk(c * sens, budget)
            rhs = error_only_topk(sens, budget)
            assert lhs == rhs
