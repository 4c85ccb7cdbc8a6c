"""The benchmark must find every kvmix name and field it reads.

perfbench/tracer.py traces kvmix from outside by replacing functions and
methods where callers look them up (for instance kvmix.cache's own
binding of quantize_group), and perfbench/workloads.py counts the
payload of a cache from its blocks' `groups` and `rows`. A refactor
that drops one of those names breaks the benchmark; these tests catch
that in the suite. They import the benchmark's modules without writing
bytecode next to them. The search and decode workloads' own output
checks, goldens included, run here too, so a change that moves an
output fails the suite and not only a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import kvmix.attention
import kvmix.cache
import kvmix.policies
import kvmix.quant
import kvmix.salience
from kvmix import AllocationPolicy, CacheConfig, MixedKVCache, PlantedSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def import_perfbench(monkeypatch, name: str):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_tracer_installs_and_restores(monkeypatch):
    tracer_mod = import_perfbench(monkeypatch, "tracer")
    try:
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
        try:
            # called through its module, where the tracer wraps it
            kvmix.attention.decode_simulation(
                PlantedSpec(dim=8, length=24, n_outlier_scale=1, n_outlier_query=1),
                CacheConfig(dim=8, group_size=4, residual_len=8, sink_len=2),
                AllocationPolicy.salience(),
            )
            calls = tracer.summary()
            assert calls["attention.decode_simulation"]["calls"] == 1
            assert calls["cache.flush"]["calls"] == 3
            # every flush scores one block past the 2-token sink
            assert calls["policies.resolve_assignment"]["calls"] == 3
        finally:
            tracer.restore()
    finally:
        sys.modules.pop("tracer", None)
    assert kvmix.cache.quantize_group is kvmix.quant.quantize_group
    assert kvmix.cache.dequantize_group is kvmix.quant.dequantize_group
    assert kvmix.cache.resolve_assignment is kvmix.policies.resolve_assignment
    assert kvmix.cache.sensitivity_score is kvmix.salience.sensitivity_score
    assert not hasattr(kvmix.cache.MixedKVCache.flush, "__wrapped__")


def test_accounting_matches_the_storage_arrays(monkeypatch):
    workloads = import_perfbench(monkeypatch, "workloads")
    try:
        # a sink block, a 6-token scored block (a run of 4 and a partial
        # run of 2) and an 8-token one, each with 16-, 4- and 2-bit key
        # channels, 2-bit values, and 3 residual rows
        cfg = CacheConfig(dim=8, group_size=4, residual_len=8, sink_len=2)
        cache = MixedKVCache(cfg, AllocationPolicy.salience(budget=(2, 3)))
        keys, values, queries = np.random.default_rng(5).normal(size=(3, 19, 8))
        cache.extend(keys, values, queries)
        scored = [blk for blk in cache.key_blocks if not blk.is_sink]
        assert scored and cache.key_blocks[0].is_sink and cache.residual_tokens == 3
        assert all(set(blk.assignment.bits.tolist()) == {2, 4, 16} for blk in scored)
        tiers = [runs for blk in cache.key_blocks + cache.value_blocks
                 if blk._runs is not None for runs in blk._runs.values()]
        assert {size for runs in tiers for size, *_ in runs} == {4, 2}

        payload = sum(packed.nbytes + 16 * zero.size for runs in tiers for _, packed, zero, _ in runs)
        groups = sum(zero.size for runs in tiers for *_, zero, _ in runs)
        for blk in cache.key_blocks:
            payload += 8 * (blk.keys_exact if blk.is_sink else blk.outlier_columns).size
        payload += sum(8 * blk.values_exact.size for blk in cache.value_blocks if blk.is_exact)
        payload += 8 * cache.residual_tokens * (cfg.dim + cfg.value_dim)

        accounting = workloads.accounting(cache)
        assert accounting["cache.payload_bytes_per_token"] == payload / cache.num_tokens
        assert accounting["cache.groups_per_token"] == groups / cache.num_tokens
        assert workloads.recomputed_key_bits(cache) == cache.effective_bitwidth()
    finally:
        sys.modules.pop("workloads", None)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["search", "decode"])
def test_workload_checks_pass(monkeypatch, tmp_path, name, seed):
    # the seeds perfbench/goldens.json holds, so golden drift fails here
    workloads = import_perfbench(monkeypatch, "workloads")
    try:
        checks = workloads.WORKLOADS[name](seed, tmp_path).check()["checks"]
    finally:
        sys.modules.pop("workloads", None)
    assert any(c["name"].startswith("golden ") for c in checks)
    assert [c for c in checks if not c["ok"]] == []
