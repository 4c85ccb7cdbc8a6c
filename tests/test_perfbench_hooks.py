"""The benchmark's tracer must find every kvmix name it wraps.

perfbench/tracer.py traces kvmix from outside by replacing functions and
methods where callers look them up (for instance kvmix.cache's own
binding of quantize_group). A refactor that drops one of those bindings
breaks the traced benchmark with a KeyError; this test catches that in
the suite. It imports the tracer without writing bytecode next to it.
"""

import importlib
import sys
from pathlib import Path

import kvmix.attention
import kvmix.cache
import kvmix.quant
from kvmix import AllocationPolicy, CacheConfig, PlantedSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
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
        finally:
            tracer.restore()
    finally:
        sys.modules.pop("tracer", None)
    assert kvmix.cache.quantize_group is kvmix.quant.quantize_group
    assert kvmix.cache.dequantize_group is kvmix.quant.dequantize_group
    assert not hasattr(kvmix.cache.MixedKVCache.flush, "__wrapped__")
