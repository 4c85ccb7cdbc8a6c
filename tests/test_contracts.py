"""The input contract, one probe per hole it closes.

Non-finite, non-numeric or non-integral input to a public function
raises InvalidInput: never a NaN returned in silence, a bare TypeError,
ValueError or OverflowError, or a float count truncated to an int. Cache
probes must also leave the cache exactly as it was.
"""

import numpy as np
import pytest

from kvmix import (
    AllocationPolicy,
    AttentionInstance,
    CacheConfig,
    InvalidInput,
    MixedKVCache,
    PackedBuffer,
    ParetoPoint,
    PlantedSpec,
    PrecisionAssignment,
    QueryAccumulator,
    TensorDump,
    apply_rope,
    attention_error,
    attention_exact,
    decode_simulation,
    dump_from_instance,
    evaluate_candidate,
    evaluate_grid,
    pack_codes,
    pareto_frontier,
    quantize_group,
    resolve_assignment,
    salience_score,
    select_under_budget,
    threshold_grid,
    unpack_codes,
)

NAN = float("nan")
KEYS = np.arange(8.0).reshape(4, 2)
SMALL = CacheConfig(dim=8, group_size=4, residual_len=8, sink_len=2)
SPEC = PlantedSpec(dim=8, length=16, n_outlier_scale=1, n_outlier_query=1)
FRONT = [ParetoPoint(tau_full=1.0, tau_mid=0.5, b_eff=2.0, fidelity=1.0)]
NAN_POINT = ParetoPoint(tau_full=1.0, tau_mid=0.5, b_eff=4.0, fidelity=NAN)
HUGE_ROWS = (np.full((8, 4), 1e200), np.full((8, 4), 1e200), np.ones((8, 4)))

PROBES = {
    "attention_error_nan_key": lambda: attention_error(
        np.ones((1, 2)), [[NAN, 0.0], [0.0, 0.0]], np.zeros((2, 2))
    ),
    "apply_rope_nan_position": lambda: apply_rope(np.ones((1, 4)), [NAN]),
    "apply_rope_nan_theta": lambda: apply_rope(np.ones((1, 4)), [1.0], theta_base=NAN),
    "cache_config_fractional_dim": lambda: CacheConfig(dim=4.5),
    "planted_spec_fractional_length": lambda: PlantedSpec(dim=16, length=2.5),
    "threshold_grid_fractional_points": lambda: threshold_grid(0.1, 1.0, 2.5),
    "decode_simulation_fractional_steps": lambda: decode_simulation(
        SPEC, SMALL, AllocationPolicy.salience(), steps=2.5
    ),
    "quantize_group_strings": lambda: quantize_group(["a", "b"], 2),
    "accumulator_add_strings": lambda: QueryAccumulator(4).add(["a", "b", "c", "d"]),
    "salience_fractional_budget": lambda: AllocationPolicy.salience(budget=(1.5, 1)),
    "fixed_uniform_width_2_7": lambda: AllocationPolicy.fixed_uniform(2.7),
    "quantize_group_width_4_9": lambda: quantize_group([0.0, 1.0], 4.9),
    "pack_codes_width_2_5": lambda: pack_codes([0, 1], 2.5),
    "pack_codes_numeric_string": lambda: pack_codes(["1"], 2),
    "pack_codes_object_none": lambda: pack_codes(np.array([None], dtype=object), 2),
    "pack_codes_int_beyond_int64": lambda: pack_codes([2**70], 2),
    # a cast of these to an integer type warns before any range check
    "pack_codes_infinite": lambda: pack_codes([np.inf], 2),
    "pack_codes_beyond_int64": lambda: pack_codes([1e30], 2),
    "packed_buffer_width_3": lambda: unpack_codes(PackedBuffer(b"\x00", 3, 2)),
    "packed_buffer_list_data": lambda: unpack_codes(PackedBuffer([1], 2, 4)),
    "cache_config_value_bits_2_5": lambda: CacheConfig(dim=4, value_bits=2.5),
    "salience_budget_of_three": lambda: AllocationPolicy.salience(budget=(1, 2, 3)),
    "error_only_scalar_budget": lambda: AllocationPolicy.error_only(budget=5),
    "attention_exact_nan_scale": lambda: attention_exact(KEYS, KEYS, KEYS, scale=NAN),
    "planted_spec_negative_seed": lambda: SPEC.materialize(-1),
    "planted_spec_fractional_seed": lambda: SPEC.materialize(2.5),
    "cache_config_string_threshold": lambda: CacheConfig(dim=4, tau_full="x"),
    "cache_config_none_threshold": lambda: CacheConfig(dim=4, tau_full=None),
    "cache_config_list_threshold": lambda: CacheConfig(dim=4, tau_mid=[0.1]),
    "resolve_assignment_error_only_string_threshold": lambda: resolve_assignment(
        AllocationPolicy.error_only(), None, np.ones(3), ("a", 0.5)
    ),
    "resolve_assignment_string_threshold": lambda: resolve_assignment(
        AllocationPolicy.salience(), np.ones(3), np.ones(3), (1.0, "b")
    ),
    "assignment_fractional_bits_2_7": lambda: PrecisionAssignment([2.7, 4, 16]),
    "assignment_fractional_bits_16_9": lambda: PrecisionAssignment([16.9, 4.2]),
    "assignment_bits_258": lambda: PrecisionAssignment([258, 4]),
    "assignment_negative_bits": lambda: PrecisionAssignment([-2, 4]),
    "assignment_nan_bits": lambda: PrecisionAssignment([NAN, 4]),
    "threshold_grid_string_bound": lambda: threshold_grid("x", 1.0, 3),
    "threshold_grid_none_bound": lambda: threshold_grid(None, 1.0, 3),
    "threshold_grid_list_bound": lambda: threshold_grid([0.1], 1.0, 3),
    "quantize_group_numeric_strings": lambda: quantize_group(["1.0", "2.0"], 2),
    "quantize_group_numeric_bytes": lambda: quantize_group([b"1.0", b"2.0"], 2),
    "quantize_group_object_strings": lambda: quantize_group(np.array(["1", "2"], dtype=object), 2),
    "quantize_group_complex": lambda: quantize_group(np.array([1 + 2j, 0.0]), 2),
    "accumulator_add_numeric_strings": lambda: QueryAccumulator(2).add(["1", "2"]),
    "cache_config_numeric_string_threshold": lambda: CacheConfig(dim=4, tau_full="1.5"),
    "cache_config_bytes_threshold": lambda: CacheConfig(dim=4, tau_mid=b"0.5"),
    "cache_config_string_array_threshold": lambda: CacheConfig(dim=4, tau_full=np.array("1.5")),
    "resolve_assignment_error_only_numeric_string_threshold": lambda: resolve_assignment(
        AllocationPolicy.error_only(), None, np.ones(3), (1.0, "0.5")
    ),
    "resolve_assignment_one_threshold": lambda: resolve_assignment(
        AllocationPolicy.salience(), np.ones(3), np.ones(3), (1.0,)
    ),
    "resolve_assignment_three_thresholds": lambda: resolve_assignment(
        AllocationPolicy.salience(), np.ones(3), np.ones(3), (1.0, 2.0, 3.0)
    ),
    "resolve_assignment_scalar_thresholds": lambda: resolve_assignment(
        AllocationPolicy.salience(), np.ones(3), np.ones(3), 5
    ),
    "select_under_budget_string": lambda: select_under_budget(FRONT, "x"),
    "select_under_budget_nan": lambda: select_under_budget(FRONT, NAN),
    "policy_unknown_kind": lambda: AllocationPolicy("full"),
    "cache_string_config": lambda: MixedKVCache("cfg"),
    "cache_string_policy": lambda: MixedKVCache(SMALL, "salience"),
    "decode_simulation_none_config": lambda: decode_simulation(
        SPEC, None, AllocationPolicy.salience()
    ),
    "evaluate_grid_none_config": lambda: evaluate_grid([SPEC.materialize(0)], None),
    "resolve_assignment_string_policy": lambda: resolve_assignment(
        "x", np.ones(3), np.ones(3), (1.0, 0.5)
    ),
    "cache_config_int_threshold_beyond_float": lambda: CacheConfig(dim=2, tau_full=10**400, tau_mid=0),
    "select_under_budget_int_beyond_float": lambda: select_under_budget(FRONT, 10**400),
    "threshold_grid_int_bound_beyond_float": lambda: threshold_grid(0, 10**400, 3),
    # q . k = 4e400 overflows: a NaN report or NaN outputs, not a result
    "decode_simulation_overflowing_logits": lambda: decode_simulation(
        AttentionInstance(*HUGE_ROWS), CacheConfig(dim=4, group_size=2, residual_len=4, sink_len=0),
        AllocationPolicy.salience(),
    ),
    "attention_exact_overflowing_logits": lambda: attention_exact(*HUGE_ROWS),
    "attention_error_overflowing_logits": lambda: attention_error(*HUGE_ROWS),
    "salience_score_overflows": lambda: salience_score([1e200], [1e200]),
    "accumulator_add_sum_overflows": lambda: QueryAccumulator(2).add(np.full((2, 2), 1e308)),
    # x cos - y sin of finite entries overflows, or an angle does and its sine is NaN
    "apply_rope_rotation_overflows": lambda: apply_rope(np.full((1, 2), 1.5e308), [np.pi / 4]),
    "apply_rope_angle_overflows": lambda: apply_rope(np.ones((1, 4)), [1e308], theta_base=1e-300),
    # hi - lo overflows: linspace would lose lo and return infinite thresholds
    "threshold_grid_range_overflows": lambda: threshold_grid(-1e308, 1e308, 3),
    # finite float64 values that a float32 section would store as +-inf
    "dump_add_beyond_float32": lambda: TensorDump().add("x", [1.0, 1e300]),
    "dump_from_instance_beyond_float32": lambda: dump_from_instance(
        AttentionInstance(np.ones((2, 2)), [[1.0, 1e300], [0.0, 0.0]], np.ones((2, 2)))
    ),
    # every logit is finite, but the squared logit error of the 2-bit keys is not
    "evaluate_grid_squared_logit_error_overflows": lambda: evaluate_grid(
        [_logit_error_overflow()], CacheConfig(dim=4, group_size=4, residual_len=8, sink_len=0),
        1e300, 1e300, 1,
    ),
    # geometry and range checks
    "instance_empty_arrays": lambda: AttentionInstance(
        np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2))
    ),
    "instance_value_rows_differ": lambda: AttentionInstance(
        np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 2))
    ),
    "attention_exact_channel_mismatch": lambda: attention_exact(
        np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 2))
    ),
    "attention_exact_token_mismatch": lambda: attention_exact(
        np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 2))
    ),
    "attention_error_channel_mismatch": lambda: attention_error(
        np.ones((1, 3)), np.ones((2, 2)), np.ones((2, 2))
    ),
    "assignment_empty": lambda: PrecisionAssignment([]),
    "resolve_assignment_error_only_empty": lambda: resolve_assignment(
        AllocationPolicy.error_only(), None, [], (1, 0.5)
    ),
    "apply_rope_zero_theta": lambda: apply_rope(np.ones((1, 4)), [1.0], theta_base=0),
    "dump_add_name_beyond_u16": lambda: TensorDump().add("x" * 65536, [1.0]),
    # keys with no row or no channel: no softmax over them, no 1 / sqrt(0) scale
    "attention_exact_no_keys": lambda: attention_exact(
        np.ones((2, 4)), np.zeros((0, 4)), np.zeros((0, 3)), causal=False
    ),
    "attention_exact_no_queries_no_keys": lambda: attention_exact(
        np.zeros((0, 4)), np.zeros((0, 4)), np.zeros((0, 3))
    ),
    "attention_exact_no_channels": lambda: attention_exact(
        np.ones((2, 0)), np.zeros((2, 0)), np.zeros((2, 3))
    ),
    # rows of the wrong width are rejected even when there are none of them
    "accumulator_add_rows_of_no_channels": lambda: QueryAccumulator(4).add(np.zeros((3, 0))),
    "accumulator_add_no_rows_of_wrong_width": lambda: QueryAccumulator(4).add(np.zeros((0, 5))),
    # a sensitivity is a range / 3: negative under either policy, in either mode
    "resolve_assignment_error_only_negative_sensitivity": lambda: resolve_assignment(
        AllocationPolicy.error_only(), None, [-3.0, 1.0], (1.0, 0.5)
    ),
    "resolve_assignment_error_only_budget_negative_sensitivity": lambda: resolve_assignment(
        AllocationPolicy.error_only(budget=(1, 0)), None, [-3.0, 1.0], (1.0, 0.5)
    ),
    # a top-k budget wider than the cache is rejected up front, not at the
    # first scored flush, which a 12-token decode under R = 16 never reaches
    "cache_budget_beyond_dim": lambda: MixedKVCache(
        CacheConfig(dim=8, group_size=4, residual_len=16, sink_len=2),
        AllocationPolicy.salience(budget=(9, 0)),
    ),
    "decode_simulation_budget_beyond_dim_before_any_flush": lambda: decode_simulation(
        PlantedSpec(dim=8, length=12, n_outlier_scale=1, n_outlier_query=1),
        CacheConfig(dim=8, group_size=4, residual_len=16, sink_len=2),
        AllocationPolicy.salience(budget=(9, 0)),
    ),
    # a NaN objective neither dominates nor is dominated, so it would be
    # kept or chosen by input order
    "pareto_frontier_nan_fidelity": lambda: pareto_frontier([NAN_POINT, *FRONT]),
    "pareto_frontier_nan_b_eff": lambda: pareto_frontier(
        [ParetoPoint(tau_full=1.0, tau_mid=0.5, b_eff=NAN, fidelity=1.0), *FRONT]
    ),
    "select_under_budget_nan_fidelity": lambda: select_under_budget([NAN_POINT, *FRONT], 10),
}


def _logit_error_overflow() -> AttentionInstance:
    """16 x 4 rows whose channel 1 holds queries of 1e78 and keys in +-1e78."""
    rng = np.random.default_rng(0)
    queries, keys, values = (rng.normal(size=(16, 4)) for _ in range(3))
    queries[:, 1] = 1e78
    keys[:, 1] = rng.uniform(-1e78, 1e78, size=16)
    return AttentionInstance(queries, keys, values)


@pytest.mark.parametrize(
    "key_scale, channels",
    [
        # queries near 1e160 and keys near 1e-160: every logit error is
        # finite, but an unscaled Gram matrix of the queries overflows
        (1e-160, slice(None)),
        # channel 0's keys scaled by 1e170 and its queries by 1e-170, or the
        # reverse: no logit changes, but one scale shared by all channels
        # would underflow the other channels' terms
        (1e170, 0),
        (1e-170, 0),
    ],
)
def test_grid_of_reciprocally_scaled_queries_and_keys(key_scale, channels):
    rng = np.random.default_rng(0)
    queries, keys, values = (rng.normal(size=(40, 4)) for _ in range(3))
    queries[:, channels] /= key_scale
    keys[:, channels] *= key_scale
    inst = AttentionInstance(queries, keys, values)
    config = CacheConfig(dim=4, group_size=4, residual_len=8, sink_len=2)
    points = evaluate_grid([inst], config, 0.1, 2.0, 3)
    assert points[0].b_eff == 16.0 and points[0].fidelity == 0.0
    for point in points:
        replay = evaluate_candidate(point.tau_full, point.tau_mid, [inst], config)
        assert point.b_eff == replay.b_eff
        assert point.fidelity == pytest.approx(replay.fidelity, rel=1e-12)
        assert 0.1 < replay.fidelity < 100 or point.b_eff == 16.0


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_raises_invalid_input(probe):
    with pytest.raises(InvalidInput):
        PROBES[probe]()


def _block(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return tuple(rng.normal(size=(n, SMALL.dim)) for _ in range(3))


def _nan_at_row_13():
    keys, values, queries = _block(20, seed=1)
    keys[13, 0] = NAN
    return keys, values, queries


def _salience_overflow():
    # channel 0's importance times its sensitivity overflows float64
    keys, values, queries = _block(20, seed=1)
    keys[:, 0] *= 1e200
    queries[:, 0] *= 1e200
    return keys, values, queries


def _query_sum_overflow():
    # the running |Q| sum of channel 0 overflows float64 at the first flush
    keys, values, queries = _block(20, seed=1)
    queries[:, 0] = 1e308
    return keys, values, queries


def _string_values():
    keys, _, queries = _block(20, seed=1)
    return keys, [["a"] * SMALL.dim] * 20, queries


CACHE_PROBES = {
    "extend_nan_key_at_row_13": lambda cache: cache.extend(*_nan_at_row_13()),
    "extend_string_values": lambda cache: cache.extend(*_string_values()),
    "extend_salience_overflow": lambda cache: cache.extend(*_salience_overflow()),
    "extend_query_sum_overflow": lambda cache: cache.extend(*_query_sum_overflow()),
    "append_string_query": lambda cache: cache.append(
        np.zeros(SMALL.dim), np.zeros(SMALL.dim), ["a"] * SMALL.dim
    ),
    "append_numeric_string_key": lambda cache: cache.append(
        ["1"] * SMALL.dim, np.zeros(SMALL.dim), np.zeros(SMALL.dim)
    ),
    "append_float_position": lambda cache: cache.append(
        np.zeros(SMALL.dim), np.zeros(SMALL.dim), np.zeros(SMALL.dim), position=5.0
    ),
    "append_one_row_query_matrix": lambda cache: cache.append(
        np.zeros(SMALL.dim), np.zeros(SMALL.dim), np.zeros((1, SMALL.dim))
    ),
    "append_int_key_beyond_float": lambda cache: cache.append(
        [10**400] + [0] * (SMALL.dim - 1), np.zeros(SMALL.dim), np.zeros(SMALL.dim)
    ),
}


@pytest.mark.parametrize("probe", sorted(CACHE_PROBES))
def test_cache_probe_leaves_cache_unchanged(probe):
    cache = MixedKVCache(SMALL)
    cache.extend(*_block(5))
    before = (cache.num_tokens, cache.flushed_tokens)
    keys, values = cache.reconstruct_keys(), cache.reconstruct_values()
    with pytest.raises(InvalidInput):
        CACHE_PROBES[probe](cache)
    assert (cache.num_tokens, cache.flushed_tokens) == before
    assert np.array_equal(cache.reconstruct_keys(), keys)
    assert np.array_equal(cache.reconstruct_values(), values)


def test_extend_overflowing_flush_leaves_fresh_cache_empty():
    # the second of two flushes in the block cannot score key channel 0,
    # whose range 2e308 overflows float64; the first flush must be undone
    cache = MixedKVCache(CacheConfig(dim=4, group_size=4, residual_len=8, sink_len=0))
    rng = np.random.default_rng(0)
    keys, values, queries = (rng.normal(size=(20, 4)) for _ in range(3))
    keys[12, 0], keys[13, 0] = 1e308, -1e308
    with pytest.raises(InvalidInput):
        cache.extend(keys, values, queries)
    assert (cache.num_tokens, cache.flushed_tokens, cache.query_accumulator.count) == (0, 0, 0)
    assert (len(cache.key_blocks), len(cache.value_blocks)) == (0, 0)


@pytest.mark.parametrize(
    "policy, bits, e_attn",
    [(AllocationPolicy.full_precision(), 16.0, 0.0), (AllocationPolicy.fixed_uniform(4), 4.0, 0.4603)],
)
def test_unscored_policies_store_a_channel_range_beyond_float64(policy, bits, e_attn):
    # key channel 0 spans 3.4e308 over the first block, so no sensitivity
    # can be scored; full precision stores it exactly, and channel 0 holds
    # one value in each 4-token group of the uniform 4-bit cache
    rng = np.random.default_rng(0)
    queries, keys, values = (rng.normal(size=(16, 4)) for _ in range(3))
    keys[:4, 0], keys[4:8, 0], queries[:, 0] = 1.7e308, -1.7e308, 1e-300
    config = CacheConfig(dim=4, group_size=4, residual_len=8, sink_len=0)
    report = decode_simulation(AttentionInstance(queries, keys, values), config, policy)
    assert report.effective_bits == bits
    assert report.e_attn_frobenius == pytest.approx(e_attn, abs=1e-4)
    if bits == 16.0:
        assert (report.e_attn_max, report.output_error_frobenius) == (0.0, 0.0)


# Prefix immutability: every array a flushed block holds, and each memo
# of its reconstruction, is read-only, and the accumulator a cache hands
# out is a copy. A probe either writes into one of them, which must be
# refused, or adds to the accumulator, which must change nothing.
FROZEN_PROBES = {
    "key_block_dense": (True, lambda cache: cache.key_blocks[1].dense().__setitem__(0, 0.0)),
    "value_block_dense": (True, lambda cache: cache.value_blocks[1].dense().__setitem__(0, 0.0)),
    "sink_keys_exact": (True, lambda cache: cache.key_blocks[0].keys_exact.__setitem__(0, 9.0)),
    "sink_values_exact": (True, lambda cache: cache.value_blocks[0].values_exact.__setitem__(0, 9.0)),
    "outlier_columns": (True, lambda cache: cache.key_blocks[1].outlier_columns.__setitem__(0, 9.0)),
    "outlier_channels": (True, lambda cache: cache.key_blocks[1].outlier_channels.__setitem__(0, 7)),
    "run_arrays": (
        True,
        lambda cache: [
            arr.__setitem__(0, 1)
            for tier in cache.key_blocks[1]._runs.values()
            for _, *arrays in tier
            for arr in arrays
        ],
    ),
    # loud on the high channels, which the planted rows leave quiet
    "query_accumulator_add": (
        False,
        lambda cache: cache.query_accumulator.add(10.0 ** np.arange(SMALL.dim)),
    ),
}


def _frozen_cache() -> MixedKVCache:
    # a sink block, a scored block with every tier, and 3 residual rows
    cache = MixedKVCache(SMALL, AllocationPolicy.salience(budget=(2, 3)))
    cache.extend(*_block(11, seed=4))
    return cache


@pytest.mark.parametrize("probe", sorted(FROZEN_PROBES))
def test_frozen_probe_changes_nothing(probe):
    refused, write = FROZEN_PROBES[probe]
    cache, reference = _frozen_cache(), _frozen_cache()
    assert cache.key_blocks[0].is_sink and cache.key_blocks[1].outlier_channels.size
    if refused:
        with pytest.raises(ValueError, match="read-only"):
            write(cache)
    else:
        write(cache)
    assert np.array_equal(cache.reconstruct_keys(), reference.reconstruct_keys())
    assert np.array_equal(cache.reconstruct_values(), reference.reconstruct_values())
    # the next flush scores and stores as if nothing had been tried
    for c in (cache, reference):
        c.extend(*_block(5, seed=5))
    assert cache.flushed_tokens == 16
    assert cache.assignments == reference.assignments
    assert np.array_equal(cache.reconstruct_keys(), reference.reconstruct_keys())
    assert np.array_equal(cache.reconstruct_values(), reference.reconstruct_values())
    assert np.array_equal(cache.query_accumulator.abs_sum, reference.query_accumulator.abs_sum)
    # reconstructions are fresh copies, so callers may still write into them
    assert cache.reconstruct_keys().flags.writeable and cache.reconstruct_values().flags.writeable
