"""Attention kernel, logit-error map, planted workload generator, and the
decode simulator.

The brute-force double loop in TestAttentionError is the reference the
vectorized Q (K - K_hat)^T path is checked against, and the step-by-step
replay step_loop_reference is the reference for decode_simulation's
closed-form evaluation.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kvmix.attention
from kvmix import (
    AllocationPolicy,
    AttentionInstance,
    BitWidth,
    CacheConfig,
    FidelityReport,
    InvalidInput,
    MixedKVCache,
    PlantedSpec,
    UndefinedMetric,
    attention_error,
    attention_exact,
    decode_simulation,
    sensitivity_score,
)


class TestAttentionExact:
    def test_single_key_gets_all_weight(self):
        w, out = attention_exact(
            np.array([[3.0, -1.0]]), np.array([[0.5, 2.0]]), np.array([[7.0, 9.0]]),
            causal=False,
        )
        np.testing.assert_array_equal(w, [[1.0]])
        np.testing.assert_array_equal(out, [[7.0, 9.0]])

    def test_zero_query_attends_uniformly(self):
        k = np.random.default_rng(0).normal(size=(5, 4))
        v = np.eye(5, 3)
        w, out = attention_exact(np.zeros((1, 4)), k, v, causal=False)
        np.testing.assert_allclose(w, np.full((1, 5), 0.2))
        np.testing.assert_allclose(out, v.mean(axis=0, keepdims=True))

    def test_two_key_logits(self):
        # q=(1,0) against k0=(1,0), k1=(0,1) at scale 1/sqrt(2):
        # logits (1/sqrt(2), 0)
        w, _ = attention_exact(
            np.array([[1.0, 0.0]]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.zeros((2, 1)),
            causal=False,
        )
        logits = np.array([1.0 / math.sqrt(2.0), 0.0])
        expect = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(w[0], expect, rtol=1e-12)

    def test_rows_sum_to_one_even_with_huge_logits(self):
        q = np.array([[1e3, -1e3], [-1e3, 1e3]])
        k = np.array([[1.0, 0.0], [0.0, 1.0]])
        w, _ = attention_exact(q, k, np.zeros((2, 2)), causal=False)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w.sum(axis=1), [1.0, 1.0], atol=1e-9)

    def test_causal_mask_zeroes_future_weights(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(4, 3))
        k = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 2))
        w, _ = attention_exact(q, k, v, causal=True)
        upper = np.triu_indices(4, k=1)
        np.testing.assert_array_equal(w[upper], 0.0)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(4), atol=1e-9)

    def test_causal_requires_square(self):
        with pytest.raises(InvalidInput):
            attention_exact(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((4, 2)))

    def test_outputs_are_convex_combinations(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(6, 4))
        k = rng.normal(size=(8, 4))
        v = rng.normal(size=(8, 3))
        _, out = attention_exact(q, k, v, causal=False)
        assert np.all(out <= v.max(axis=0) + 1e-12)
        assert np.all(out >= v.min(axis=0) - 1e-12)

    def test_default_scale_is_inverse_sqrt_dim(self):
        q = np.array([[2.0, 0.0, 0.0, 0.0]])
        k = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
        w_default, _ = attention_exact(q, k, np.zeros((2, 1)), causal=False)
        w_manual, _ = attention_exact(q, k, np.zeros((2, 1)), causal=False, scale=0.5)
        np.testing.assert_allclose(w_default, w_manual, rtol=1e-12)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(InvalidInput):
            attention_exact(
                np.array([[np.inf, 0.0]]), np.zeros((1, 2)), np.zeros((1, 1)),
                causal=False,
            )


class TestAttentionError:
    def test_exact_keys_give_zero_error(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(attention_error(q, k, k), np.zeros((3, 5)))

    def test_linearity_in_the_perturbation(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(5, 4))
        delta = rng.normal(size=(5, 4))
        once = attention_error(q, k, k - delta)
        twice = attention_error(q, k, k - 2.0 * delta)
        np.testing.assert_allclose(twice, 2.0 * once, rtol=1e-12)

    def test_one_hot_query_reads_one_channel(self):
        rng = np.random.default_rng(5)
        k = rng.normal(size=(6, 4))
        kh = rng.normal(size=(6, 4))
        for d in range(4):
            q = np.zeros((1, 4))
            q[0, d] = 1.0
            np.testing.assert_allclose(
                attention_error(q, k, kh)[0], (k - kh)[:, d], rtol=1e-12
            )

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(4, 5))
        k = rng.normal(size=(7, 5))
        kh = k + rng.normal(size=(7, 5)) * 0.01
        err = attention_error(q, k, kh)
        for i in range(4):
            for j in range(7):
                expect = sum(q[i, d] * (k[j, d] - kh[j, d]) for d in range(5))
                assert err[i, j] == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            attention_error(np.zeros((1, 4)), np.zeros((5, 4)), np.zeros((4, 4)))


class TestPlantedGenerator:
    def test_deterministic_in_seed(self):
        a = PlantedSpec(16, 32, 3, 3, 1).materialize(42)
        b = PlantedSpec(16, 32, 3, 3, 1).materialize(42)
        np.testing.assert_array_equal(a.queries, b.queries)
        np.testing.assert_array_equal(a.keys, b.keys)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(
            a.planted.scale_channels, b.planted.scale_channels
        )

    def test_different_seeds_differ(self):
        a = PlantedSpec(16, 32, 3, 3, 1).materialize(0)
        b = PlantedSpec(16, 32, 3, 3, 1).materialize(1)
        assert not np.array_equal(a.keys, b.keys)

    def test_planted_set_sizes_and_overlap(self):
        inst = PlantedSpec(32, 16, 5, 4, 2).materialize(7)
        sc = set(inst.planted.scale_channels.tolist())
        qc = set(inst.planted.query_channels.tolist())
        assert len(sc) == 5
        assert len(qc) == 4
        assert len(sc & qc) == 2

    def test_scale_channels_have_highest_sensitivity(self):
        inst = PlantedSpec(32, 64, 4, 4, 0).materialize(8)
        s = sensitivity_score(inst.keys)
        top = set(np.argsort(-s)[:4].tolist())
        assert top == set(inst.planted.scale_channels.tolist())

    def test_query_channels_have_highest_importance(self):
        inst = PlantedSpec(32, 64, 4, 4, 0).materialize(9)
        imp = np.abs(inst.queries).mean(axis=0)
        top = set(np.argsort(-imp)[:4].tolist())
        assert top == set(inst.planted.query_channels.tolist())

    def test_disjoint_outliers_decorrelate_scores(self):
        # the zero-overlap regime plants big keys where queries are quiet,
        # so importance and sensitivity must not be positively correlated
        for seed in range(30):
            inst = PlantedSpec(32, 64, 4, 4, 0).materialize(seed)
            imp = np.abs(inst.queries).mean(axis=0)
            s = sensitivity_score(inst.keys)
            assert np.corrcoef(imp, s)[0, 1] < 0.3

    def test_overlap_cannot_exceed_either_set(self):
        with pytest.raises(InvalidInput):
            PlantedSpec(32, 16, 2, 4, 3)

    def test_sets_must_fit_in_dim(self):
        with pytest.raises(InvalidInput):
            PlantedSpec(6, 16, 4, 4, 0)


def sim_config(**overrides) -> CacheConfig:
    base = dict(dim=32, group_size=8, residual_len=32, sink_len=4)
    base.update(overrides)
    return CacheConfig(**base)


class TestDecodeSimulation:
    def test_full_precision_is_lossless(self):
        spec = PlantedSpec(dim=32, length=64)
        for seed in range(5):
            report = decode_simulation(
                spec, sim_config(), AllocationPolicy.full_precision(), seed=seed
            )
            assert report.e_attn_frobenius == 0.0
            assert report.e_attn_max == 0.0
            assert report.output_error_frobenius == 0.0
            assert report.effective_bits == 16.0

    def test_deterministic_for_fixed_seed(self):
        spec = PlantedSpec(dim=32, length=64)
        a = decode_simulation(spec, sim_config(), AllocationPolicy.salience(), seed=3)
        b = decode_simulation(spec, sim_config(), AllocationPolicy.salience(), seed=3)
        assert a == b

    def test_quantized_run_reports_compression_and_error(self):
        spec = PlantedSpec(dim=32, length=64)
        report = decode_simulation(
            spec, sim_config(), AllocationPolicy.fixed_uniform(2), seed=0
        )
        assert report.e_attn_frobenius > 0.0
        assert report.e_attn_max > 0.0
        assert report.effective_bits < 16.0
        assert report.policy_label == "fixed-uniform-2"

    def test_no_policy_runs_the_cache_default(self):
        # MixedKVCache takes policy None as salience; so does the report
        spec = PlantedSpec(dim=32, length=64)
        report = decode_simulation(spec, sim_config(), None, seed=0)
        assert report == decode_simulation(spec, sim_config(), AllocationPolicy.salience(), seed=0)

    def test_effective_bits_fall_back_to_full_before_any_flush(self):
        spec = PlantedSpec(dim=32, length=64)
        report = decode_simulation(
            spec, sim_config(), AllocationPolicy.salience(), seed=0, steps=10
        )
        # 10 tokens never fill the 32-token residual buffer
        assert report.effective_bits == 16.0
        assert report.e_attn_frobenius == 0.0

    def test_steps_beyond_length_rejected(self):
        spec = PlantedSpec(dim=32, length=64)
        with pytest.raises(InvalidInput):
            decode_simulation(
                spec, sim_config(), AllocationPolicy.salience(), steps=65
            )

    def test_geometry_mismatch_rejected(self):
        spec = PlantedSpec(dim=16, length=64)
        with pytest.raises(InvalidInput):
            decode_simulation(spec, sim_config(), AllocationPolicy.salience())

    def test_concrete_instance_ignores_seed(self):
        inst = PlantedSpec(dim=32, length=64).materialize(5)
        a = decode_simulation(inst, sim_config(), AllocationPolicy.salience(), seed=0)
        b = decode_simulation(inst, sim_config(), AllocationPolicy.salience(), seed=99)
        assert a == b

    def test_return_cache_exposes_final_state(self):
        spec = PlantedSpec(dim=32, length=64)
        report, cache = decode_simulation(
            spec, sim_config(), AllocationPolicy.salience(), seed=0, return_cache=True
        )
        assert cache.num_tokens == 64
        assert report.effective_bits == pytest.approx(cache.effective_bitwidth())

    def test_error_grows_with_narrower_storage(self):
        spec = PlantedSpec(dim=32, length=64)
        wide = decode_simulation(
            spec, sim_config(), AllocationPolicy.fixed_uniform(4), seed=1
        )
        narrow = decode_simulation(
            spec, sim_config(), AllocationPolicy.fixed_uniform(2), seed=1
        )
        assert narrow.e_attn_frobenius > wide.e_attn_frobenius


class TestAttentionInstance:
    def test_geometry_validated(self):
        with pytest.raises(InvalidInput):
            AttentionInstance(np.zeros((4, 3)), np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(InvalidInput):
            AttentionInstance(np.zeros((4, 3)), np.zeros((3, 3)), np.zeros((4, 2)))

    def test_non_finite_rejected(self):
        q = np.zeros((2, 2))
        bad = q.copy()
        bad[0, 0] = np.nan
        with pytest.raises(InvalidInput):
            AttentionInstance(bad, q, q)

    def test_properties(self):
        inst = AttentionInstance(np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((4, 2)))
        assert inst.length == 4
        assert inst.dim == 3
        assert inst.value_dim == 2
        assert inst.scale == pytest.approx(1.0 / math.sqrt(3.0))


def step_loop_reference(inst, config, policy, steps) -> FidelityReport:
    """decode_simulation as a decoder runs it, one token at a time.

    At step t the row (k_t, v_t, q_t) enters the cache, then q_t attends
    over the cache's reconstruction of the prefix [0, t] and over the
    exact prefix. Quadratic in Python; kept as the oracle for the
    closed-form evaluation.
    """
    queries, keys, values = inst.queries, inst.keys, inst.values
    cache = MixedKVCache(config, policy)
    sq_logit = 0.0
    max_logit = 0.0
    sq_output = 0.0
    for t in range(steps):
        cache.append(keys[t], values[t], queries[t], position=t)
        k_hat = cache.reconstruct_keys()
        v_hat = cache.reconstruct_values()
        prefix = slice(0, t + 1)
        q_t = queries[t]

        err_row = attention_error(q_t, keys[prefix], k_hat)
        sq_logit += float(np.dot(err_row[0], err_row[0]))
        if err_row.size:
            max_logit = max(max_logit, float(np.abs(err_row).max()))

        _, out_exact = attention_exact(
            q_t, keys[prefix], values[prefix], causal=False, scale=inst.scale
        )
        _, out_approx = attention_exact(q_t, k_hat, v_hat, causal=False, scale=inst.scale)
        diff = out_exact - out_approx
        sq_output += float(np.dot(diff[0], diff[0]))

    try:
        effective_bits = cache.effective_bitwidth()
    except UndefinedMetric:
        effective_bits = 16.0
    return FidelityReport(
        e_attn_frobenius=math.sqrt(sq_logit),
        e_attn_max=max_logit,
        output_error_frobenius=math.sqrt(sq_output),
        effective_bits=effective_bits,
        policy_label=policy.label,
    )


REFERENCE_POLICIES = {
    "salience": AllocationPolicy.salience(),
    "salience-budget": AllocationPolicy.salience(budget=(1, 2)),
    "error-only": AllocationPolicy.error_only(),
    "fixed-2": AllocationPolicy.fixed_uniform(2),
    "fixed-4": AllocationPolicy.fixed_uniform(4),
    "full": AllocationPolicy.full_precision(),
}


@given(
    dim=st.sampled_from([4, 8]),
    length=st.integers(min_value=1, max_value=40),
    group_size=st.sampled_from([1, 2, 4]),
    runs=st.integers(min_value=1, max_value=3),
    sink_len=st.integers(min_value=0, max_value=6),
    steps_cut=st.integers(min_value=0, max_value=10),
    policy=st.sampled_from(sorted(REFERENCE_POLICIES)),
    value_bits=st.sampled_from([BitWidth.UINT2, BitWidth.UINT4, BitWidth.FULL]),
    taus=st.tuples(
        st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=3.0)
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    chunk=st.sampled_from([256, 7, 1]),
)
@settings(max_examples=150, deadline=None)
# sink 0 and > 0, steps < length, a partial tail, every policy; query
# rows in one chunk, in chunks that end in a partial one, one per chunk
@example(8, 40, 4, 2, 0, 0, "salience", BitWidth.UINT2, (1.5, 0.3), 0, 256)
@example(8, 40, 4, 2, 3, 5, "salience-budget", BitWidth.UINT2, (1.5, 0.3), 1, 256)
@example(4, 37, 2, 3, 1, 0, "error-only", BitWidth.UINT4, (1.0, 0.5), 2, 256)
@example(4, 30, 1, 3, 0, 3, "fixed-2", BitWidth.UINT2, (1.0, 0.5), 3, 256)
@example(8, 33, 4, 1, 2, 0, "fixed-4", BitWidth.FULL, (1.0, 0.5), 4, 256)
@example(8, 40, 2, 2, 4, 7, "full", BitWidth.UINT2, (1.0, 0.5), 5, 256)
@example(8, 40, 4, 2, 3, 0, "salience", BitWidth.UINT2, (1.5, 0.3), 0, 7)
@example(8, 40, 4, 2, 3, 5, "salience-budget", BitWidth.UINT4, (1.5, 0.3), 1, 7)
@example(4, 37, 2, 3, 1, 0, "error-only", BitWidth.UINT2, (1.0, 0.5), 2, 1)
def test_closed_form_decode_matches_step_loop(
    dim, length, group_size, runs, sink_len, steps_cut, policy, value_bits, taus, seed, chunk
):
    steps = max(1, length - steps_cut)
    config = CacheConfig(
        dim=dim,
        group_size=group_size,
        residual_len=group_size * runs,
        sink_len=sink_len,
        tau_full=max(taus),
        tau_mid=min(taus),
        value_bits=value_bits,
    )
    spec = PlantedSpec(dim=dim, length=length, n_outlier_scale=1, n_outlier_query=1)
    inst = spec.materialize(seed)
    pol = REFERENCE_POLICIES[policy]
    with mock.patch.object(kvmix.attention, "_DECODE_CHUNK", chunk):
        got = decode_simulation(inst, config, pol, steps=steps)
    want = step_loop_reference(inst, config, pol, steps)
    assert got.effective_bits == want.effective_bits
    assert got.policy_label == want.policy_label
    # abs_tol covers lossless runs (e.g. group_size 1): the closed form
    # cancels exact rows to 0.0, the step loop leaves ~1e-16 of rounding
    for field in ("e_attn_frobenius", "e_attn_max", "output_error_frobenius"):
        assert math.isclose(
            getattr(got, field), getattr(want, field), rel_tol=1e-9, abs_tol=1e-12
        ), field
    if policy == "full":
        errors = (got.e_attn_frobenius, got.e_attn_max, got.output_error_frobenius)
        assert errors == (0.0, 0.0, 0.0)


def test_decode_with_values_narrower_than_keys():
    # a trace may store values of another width than keys (value_dim != dim)
    rng = np.random.default_rng(11)
    inst = AttentionInstance(*(rng.normal(size=(40, width)) for width in (8, 8, 3)))
    config = CacheConfig(dim=8, value_dim=3, group_size=4, residual_len=8, sink_len=2)
    policy = AllocationPolicy.salience()
    got = decode_simulation(inst, config, policy)
    want = step_loop_reference(inst, config, policy, 40)
    assert got.effective_bits == want.effective_bits < 16.0
    for field in ("e_attn_frobenius", "e_attn_max", "output_error_frobenius"):
        assert math.isclose(getattr(got, field), getattr(want, field), rel_tol=1e-9), field
    assert got.output_error_frobenius > 0.0
    with pytest.raises(InvalidInput):
        decode_simulation(inst, CacheConfig(dim=8, group_size=4, residual_len=8), policy)


def masked_chunk_reference(inst, config, policy, steps) -> FidelityReport:
    """decode_simulation's chunk loop with whole-matrix masks.

    Each chunk of _DECODE_CHUNK query rows builds its causal and flushed
    masks over the whole (rows, prefix) matrix and applies them with
    np.where and boolean indexing, on fresh temporaries. Kept as the
    oracle for the band-only masks and reused buffers, which must give
    the same report bit for bit at the same chunk size.
    """
    queries, keys, values = inst.queries[:steps], inst.keys[:steps], inst.values[:steps]
    cache = MixedKVCache(config, policy)
    cache.extend(keys, values, queries)
    k_hat = cache.reconstruct_keys()
    value_err = values - cache.reconstruct_values()
    scale = 1.0 / math.sqrt(config.dim)
    residual_len, chunk = config.residual_len, kvmix.attention._DECODE_CHUNK
    sq_logit = max_logit = sq_output = 0.0
    for lo in range(0, steps, chunk):
        hi = min(lo + chunk, steps)
        step = np.arange(lo, hi)[:, None]
        flushed = np.arange(hi)[None, :] < (step + 1) // residual_len * residual_len
        future = np.arange(hi)[None, :] > step
        q = queries[lo:hi]
        exact = q @ keys[:hi].T
        weights = softmax_rows(np.where(future, -np.inf, exact * scale))
        err = q @ (keys[:hi] - k_hat[:hi]).T
        err[~flushed] = 0.0
        sq_logit += float(np.sum(err * err))
        max_logit = max(max_logit, float(np.abs(err).max()))
        weights_hat = softmax_rows(np.where(future, -np.inf, (exact - err) * scale))
        diff = (weights - weights_hat) @ values[:hi] + (weights_hat * flushed) @ value_err[:hi]
        sq_output += float(np.sum(diff * diff))
    try:
        effective_bits = cache.effective_bitwidth()
    except UndefinedMetric:
        effective_bits = 16.0
    return FidelityReport(
        e_attn_frobenius=math.sqrt(sq_logit),
        e_attn_max=max_logit,
        output_error_frobenius=math.sqrt(sq_output),
        effective_bits=effective_bits,
        policy_label=cache.policy.label,
    )


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    weights = logits - logits.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


@given(
    length=st.integers(min_value=1, max_value=80),
    steps_cut=st.integers(min_value=0, max_value=20),
    group_size=st.sampled_from([1, 2, 4]),
    runs=st.integers(min_value=1, max_value=4),
    sink_len=st.integers(min_value=0, max_value=12),
    chunk=st.integers(min_value=1, max_value=40),
    policy=st.sampled_from(["salience", "fixed-2", "full"]),
    value_bits=st.sampled_from([BitWidth.UINT2, BitWidth.UINT4, BitWidth.FULL]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=100, deadline=None)
# a chunk below residual_len, one not a multiple of it, residual_len 1,
# a sink longer than the first chunk, steps < length, one-row chunks
@example(60, 0, 4, 4, 0, 5, "salience", BitWidth.UINT2, 3)
@example(61, 0, 4, 2, 2, 12, "fixed-2", BitWidth.UINT4, 3)
@example(30, 0, 1, 1, 0, 7, "salience", BitWidth.UINT2, 3)
@example(50, 0, 2, 3, 10, 7, "salience", BitWidth.UINT2, 3)
@example(60, 17, 4, 2, 3, 9, "fixed-2", BitWidth.FULL, 3)
@example(20, 0, 2, 2, 1, 1, "full", BitWidth.UINT2, 3)
def test_band_masks_equal_whole_matrix_masks(
    length, steps_cut, group_size, runs, sink_len, chunk, policy, value_bits, seed
):
    steps = max(1, length - steps_cut)
    config = CacheConfig(
        dim=4, group_size=group_size, residual_len=group_size * runs, sink_len=sink_len,
        tau_full=1.5, tau_mid=0.3, value_bits=value_bits,
    )
    inst = PlantedSpec(dim=4, length=length, n_outlier_scale=1, n_outlier_query=1).materialize(seed)
    pol = REFERENCE_POLICIES[policy]
    with mock.patch.object(kvmix.attention, "_DECODE_CHUNK", chunk):
        got = decode_simulation(inst, config, pol, steps=steps)
        want = masked_chunk_reference(inst, config, pol, steps)
    for field in ("e_attn_frobenius", "e_attn_max", "output_error_frobenius", "effective_bits", "policy_label"):
        assert getattr(got, field) == getattr(want, field), field


def test_band_masks_equal_whole_matrix_masks_at_module_chunk():
    # several chunks of the module's own size, the last one partial
    steps = 3 * kvmix.attention._DECODE_CHUNK + 5
    config = CacheConfig(dim=8, group_size=8, residual_len=32, sink_len=6, tau_full=1.5, tau_mid=0.3)
    inst = PlantedSpec(dim=8, length=steps + 7, n_outlier_scale=2, n_outlier_query=2).materialize(3)
    pol = AllocationPolicy.salience()
    assert decode_simulation(inst, config, pol, steps=steps) == masked_chunk_reference(inst, config, pol, steps)
