"""The input contract, one probe per hole it closes.

Non-finite, non-numeric or non-integral input to a public function
raises InvalidInput: never a NaN returned in silence, a bare TypeError or
ValueError, or a float count truncated to an int. Cache probes must also
leave the cache exactly as it was.
"""

import numpy as np
import pytest

from kvmix import (
    AllocationPolicy,
    CacheConfig,
    InvalidInput,
    MixedKVCache,
    PlantedSpec,
    PrecisionAssignment,
    QueryAccumulator,
    apply_rope,
    assign_precision,
    attention_error,
    attention_exact,
    decode_simulation,
    pack_codes,
    quantize_group,
    resolve_assignment,
    threshold_grid,
)

NAN = float("nan")
KEYS = np.arange(8.0).reshape(4, 2)
SMALL = CacheConfig(dim=8, group_size=4, residual_len=8, sink_len=2)
SPEC = PlantedSpec(dim=8, length=16, n_outlier_scale=1, n_outlier_query=1)

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
    "cache_config_value_bits_2_5": lambda: CacheConfig(dim=4, value_bits=2.5),
    "salience_budget_of_three": lambda: AllocationPolicy.salience(budget=(1, 2, 3)),
    "error_only_scalar_budget": lambda: AllocationPolicy.error_only(budget=5),
    "attention_exact_nan_scale": lambda: attention_exact(KEYS, KEYS, KEYS, scale=NAN),
    "planted_spec_negative_seed": lambda: SPEC.materialize(-1),
    "planted_spec_fractional_seed": lambda: SPEC.materialize(2.5),
    "cache_config_string_threshold": lambda: CacheConfig(dim=4, tau_full="x"),
    "cache_config_none_threshold": lambda: CacheConfig(dim=4, tau_full=None),
    "cache_config_list_threshold": lambda: CacheConfig(dim=4, tau_mid=[0.1]),
    "assign_precision_string_threshold": lambda: assign_precision(np.ones(3), "a", 0.5),
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
    "assign_precision_numeric_string_threshold": lambda: assign_precision(np.ones(3), 1.0, "0.5"),
    "resolve_assignment_one_threshold": lambda: resolve_assignment(
        AllocationPolicy.salience(), np.ones(3), np.ones(3), (1.0,)
    ),
    "resolve_assignment_three_thresholds": lambda: resolve_assignment(
        AllocationPolicy.salience(), np.ones(3), np.ones(3), (1.0, 2.0, 3.0)
    ),
    "resolve_assignment_scalar_thresholds": lambda: resolve_assignment(
        AllocationPolicy.salience(), np.ones(3), np.ones(3), 5
    ),
}


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


def _string_values():
    keys, _, queries = _block(20, seed=1)
    return keys, [["a"] * SMALL.dim] * 20, queries


CACHE_PROBES = {
    "extend_nan_key_at_row_13": lambda cache: cache.extend(*_nan_at_row_13()),
    "extend_string_values": lambda cache: cache.extend(*_string_values()),
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
