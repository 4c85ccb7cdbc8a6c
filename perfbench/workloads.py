"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload is built in a fresh interpreter by sample.py. Building it
(`__init__`) is the set-up: it makes the inputs from the seed and
creates config and cache. `run(probe)` is the timed pass; it ticks the
machine-speed probe between timed calls, never inside one, and returns
the latency of every public call it timed and a small summary of the
program's output, which the driver compares with the output of the
untimed `check()` pass on the same inputs. `check()` runs the output
checks and computes the metrics that are properties of the output
rather than of its speed (bits, errors, bytes).
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np

import kvmix.attention
import kvmix.cli
from kvmix import (
    AllocationPolicy,
    CacheConfig,
    MixedKVCache,
    PlantedSpec,
    TensorDump,
    dump_from_instance,
    instance_from_dump,
)

clock = time.perf_counter_ns

# Written by write_goldens.py for the default and held-out seeds.
GOLDENS = Path(__file__).with_name("goldens.json")
# Error fields of a golden must agree to this relative tolerance (BLAS
# kernels may round differently on another machine); bit widths, counts
# and chosen thresholds are compared exactly.
GOLDEN_RTOL = 1e-6
GOLDEN_EXACT = ("key_bits", "tau_full", "tau_mid", "frontier_size", "candidates")

# At dim 128 the default thresholds (1.0, 0.5) keep nearly every channel
# at 16 bits and leave the key quantizer idle; (4.0, 1.45) gives about
# 8 full, 35 mid and 85 low channels per block on the planted traces.
CACHE_128 = dict(dim=128, group_size=32, residual_len=128, sink_len=32, tau_full=4.0, tau_mid=1.45)
STREAM_TOKENS = 8192
READ_EVERY = 32
# Probe bursts: `stream` runs a short one after every read, the others
# a long one before and after each timed call, which lasts seconds.
STREAM_BURST = 4
PROBE_BURST = 10000
DECODE_TOKENS = 2048
# tracemalloc slows ingest about sixfold, so the memory pass ingests a
# prefix; bytes per token are flat in length (about 4.5 kB at 2k-8k).
MEMORY_TOKENS = 1024

SEARCH_DIM = 32
SEARCH_TOKENS = 128
SEARCH_GRID = 10
SEARCH_RANGE = (0.1, 2.0)
SEARCH_BUDGET = 6.0
SEARCH_CACHE = dict(group_size=8, residual_len=32, sink_len=4)


def planted_128(length: int, seed: int):
    return PlantedSpec(dim=128, length=length, n_outlier_scale=8, n_outlier_query=8).materialize(seed)


class Checks:
    """Named pass/fail output checks."""

    def __init__(self):
        self.results: list[dict] = []

    def expect(self, name: str, ok, detail="") -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def close(self, name: str, got: float, want: float, rtol: float) -> None:
        self.expect(name, math.isclose(got, want, rel_tol=rtol, abs_tol=0.0), f"got {got!r}, want {want!r}")

    def golden(self, workload: str, seed: int, values: dict) -> None:
        goldens = json.loads(GOLDENS.read_text()).get(workload, {})
        if str(seed) not in goldens:
            return
        for key, want in goldens[str(seed)].items():
            got = values[key]
            if key not in GOLDEN_EXACT:
                self.close(f"golden {key}", got, want, GOLDEN_RTOL)
            else:
                self.expect(f"golden {key}", got == want, f"got {got!r}, want {want!r}")


def held_memory_per_token(config: CacheConfig, keys, values, queries) -> tuple[float, MixedKVCache]:
    """tracemalloc bytes still held by a cache after ingest and one read.

    The read leaves every block's reconstruction cached, as it is after
    the stream and decode workloads, which read as they go.
    """
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cache = MixedKVCache(config, AllocationPolicy.salience())
        cache.extend(keys, values, queries)
        cache.reconstruct_keys()
        cache.reconstruct_values()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held / keys.shape[0], cache


def accounting(cache: MixedKVCache) -> dict:
    """Quantizer groups and payload bytes per token, from public fields.

    Payload counts packed code bytes, 16 B of (zero, scale) per group and
    8 B per element kept exact, residual rows included.
    """
    meta = cache.metadata_counts()
    groups = (meta["key_scalars"] + meta["value_scalars"]) // 2
    payload = 0
    for blk in cache.key_blocks:
        if blk.is_sink:
            payload += 8 * blk.keys_exact.size
        else:
            payload += 8 * blk.outlier_columns.size
            payload += sum(len(g.codes.data) + 16 for runs in blk.groups.values() for g in runs)
    for blk in cache.value_blocks:
        if blk.is_exact:
            payload += 8 * blk.values_exact.size
        else:
            payload += sum(len(g.codes.data) + 16 for row in blk.rows for g in row)
    cfg = cache.config
    payload += 8 * cache.residual_tokens * (cfg.dim + cfg.value_dim)
    return {
        "cache.groups_per_token": groups / cache.num_tokens,
        "cache.payload_bytes_per_token": payload / cache.num_tokens,
    }


def recomputed_key_bits(cache: MixedKVCache) -> float:
    """effective_bitwidth() recomputed from the assignment history."""
    dim = cache.config.dim
    bits = elems = 0
    for blk, assignment in zip(cache.key_blocks, cache.assignments):
        row = 16 * dim if assignment is None else int(assignment.bits.astype(np.int64).sum())
        bits += blk.length * row
        elems += blk.length * dim
    bits += 16 * dim * cache.residual_tokens
    elems += dim * cache.residual_tokens
    return bits / elems


def _causal_window_errors(q, k, v, k_hat, v_hat, first: int, scale: float) -> tuple[float, float]:
    """Squared logit and output errors of queries at positions first.. .

    Each query attends causally over the given key prefix, exactly and
    through the reconstruction; an independent numpy reference, not a
    call into kvmix.
    """
    n, m = q.shape[0], k.shape[0]
    future = np.arange(m)[None, :] > (first + np.arange(n))[:, None]
    err = q @ (k - k_hat).T
    err[future] = 0.0

    def attend(keys, vals):
        logits = (q @ keys.T) * scale
        logits[future] = -np.inf
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=1, keepdims=True)
        return weights @ vals

    diff = attend(k, v) - attend(k_hat, v_hat)
    return float(np.sum(err * err)), float(np.sum(diff * diff))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Stream:
    """One cache fed a token at a time, with a reader every 32 tokens."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inst = planted_128(STREAM_TOKENS, seed)
        self.rows = list(zip(self.inst.keys, self.inst.values, self.inst.queries))
        self.config = CacheConfig(**CACHE_128)
        self.cache = MixedKVCache(self.config, AllocationPolicy.salience())

    def run(self, probe) -> dict:
        cache = self.cache
        appends, reads = [], []
        for t, (k, v, q) in enumerate(self.rows, start=1):
            a = clock()
            cache.append(k, v, q)
            b = clock()
            appends.append(b - a)
            if t % READ_EVERY == 0:
                keys_hat = cache.reconstruct_keys()
                values_hat = cache.reconstruct_values()
                reads.append(clock() - b)
                probe.burst(STREAM_BURST)
        return {
            "ops_ns": appends,
            "reads_ns": reads,
            "busy_s": (sum(appends) + sum(reads)) / 1e9,
            "work": len(self.rows),
            "attempted": len(appends) + len(reads),
            "output": {
                "digest": _digest(keys_hat, values_hat),
                "key_bits": cache.effective_bitwidth(),
            },
        }

    def check(self) -> dict:
        checks = Checks()
        cache, inst, cfg = self.cache, self.inst, self.config
        keys, values, queries = inst.keys, inst.values, inst.queries
        sq_logit = sq_output = 0.0
        prefix_ok = residual_ok = True
        prev_keys = prev_values = None
        prev_flushed = 0
        for t, (k, v, q) in enumerate(self.rows, start=1):
            cache.append(k, v, q)
            if t % READ_EVERY:
                continue
            keys_hat, values_hat = cache.reconstruct_keys(), cache.reconstruct_values()
            flushed = cache.flushed_tokens
            if prev_keys is not None:
                prefix_ok &= np.array_equal(keys_hat[:prev_flushed], prev_keys[:prev_flushed])
                prefix_ok &= np.array_equal(values_hat[:prev_flushed], prev_values[:prev_flushed])
            residual_ok &= np.array_equal(keys_hat[flushed:], keys[flushed:t])
            residual_ok &= np.array_equal(values_hat[flushed:], values[flushed:t])
            prev_keys, prev_values, prev_flushed = keys_hat, values_hat, flushed
            first = t - READ_EVERY
            dl, do = _causal_window_errors(
                queries[first:t], keys[:t], values[:t], keys_hat, values_hat, first, inst.scale
            )
            sq_logit += dl
            sq_output += do

        checks.expect("earlier read prefixes are bit-identical in later reads", prefix_ok)
        checks.expect("residual rows are exact", residual_ok)
        sink = cfg.sink_len
        checks.expect(
            "sink rows are exact",
            np.array_equal(keys_hat[:sink], keys[:sink]) and np.array_equal(values_hat[:sink], values[:sink]),
        )
        full_ok = bound_ok = True
        worst = 0.0
        for blk in cache.key_blocks:
            if blk.is_sink:
                continue
            exact = keys[blk.start : blk.start + blk.length]
            approx = keys_hat[blk.start : blk.start + blk.length]
            bits = blk.assignment.bits
            full = bits == 16
            full_ok &= np.array_equal(approx[:, full], exact[:, full])
            quant = ~full
            levels = 2.0 ** bits[quant].astype(np.float64) - 1.0
            bound = (exact[:, quant].max(axis=0) - exact[:, quant].min(axis=0)) / (2.0 * levels)
            excess = np.abs(exact[:, quant] - approx[:, quant]) - bound * (1 + 1e-9)
            worst = max(worst, float(excess.max(initial=-np.inf)))
            bound_ok &= bool(np.all(excess <= 1e-12))
        checks.expect("16-bit key columns are exact", full_ok)
        checks.expect("|K - K_hat| <= range / (2 (2^w - 1)) per block channel", bound_ok, f"worst excess {worst!r}")
        key_bits = cache.effective_bitwidth()
        checks.expect("key_bits equals the value recomputed from assignments", key_bits == recomputed_key_bits(cache))
        logit, output = math.sqrt(sq_logit), math.sqrt(sq_output)
        checks.expect("errors are finite and positive", 0 < logit < math.inf and 0 < output < math.inf)
        checks.golden("stream", self.seed, {"key_bits": key_bits, "logit_error_frob": logit, "output_error_frob": output})

        n = MEMORY_TOKENS
        per_token, mem_cache = held_memory_per_token(cfg, keys[:n], values[:n], queries[:n])
        return {
            "checks": checks.results,
            "metrics": {
                "key_bits": key_bits,
                "logit_error_frob": logit,
                "output_error_frob": output,
                "cache_bytes_per_token": per_token,
            },
            "accounting": accounting(mem_cache),
            "output": {"digest": _digest(keys_hat, values_hat), "key_bits": key_bits},
        }


class Decode:
    """decode_simulation of the salience policy on one planted trace."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inst = planted_128(DECODE_TOKENS, seed)
        self.config = CacheConfig(**CACHE_128)
        self.policy = AllocationPolicy.salience()

    def _simulate(self, steps=None):
        return kvmix.attention.decode_simulation(
            self.inst, self.config, self.policy, steps=steps, return_cache=True
        )

    def run(self, probe, steps: int | None = None) -> dict:
        probe.burst(PROBE_BURST)
        a = clock()
        report, cache = self._simulate(steps)
        elapsed = clock() - a
        probe.burst(PROBE_BURST)
        return {
            "ops_ns": [elapsed],
            "busy_s": elapsed / 1e9,
            "work": self.inst.length if steps is None else steps,
            "attempted": 1,
            "output": self._summary(report),
        }

    @staticmethod
    def _summary(report) -> dict:
        return {
            "logit_error_frob": report.e_attn_frobenius,
            "logit_error_max": report.e_attn_max,
            "output_error_frob": report.output_error_frobenius,
            "key_bits": report.effective_bits,
        }

    def check(self) -> dict:
        checks = Checks()
        report, cache = self._simulate()
        summary = self._summary(report)
        checks.golden("decode", self.seed, summary)
        checks.expect(
            "key_bits equals effective_bitwidth() and the value recomputed from assignments",
            report.effective_bits == cache.effective_bitwidth() == recomputed_key_bits(cache),
        )
        checks.expect(
            "errors are finite, positive and max <= Frobenius",
            0 < report.e_attn_max <= report.e_attn_frobenius < math.inf
            and 0 < report.output_error_frobenius < math.inf,
        )
        tiny = kvmix.attention.decode_simulation(
            PlantedSpec(dim=16, length=40, n_outlier_scale=2, n_outlier_query=2),
            CacheConfig(dim=16, group_size=4, residual_len=8, sink_len=4),
            AllocationPolicy.full_precision(),
            seed=self.seed,
        )
        checks.expect(
            "FULL_PRECISION gives errors of exactly 0 at 16 bits",
            (tiny.e_attn_frobenius, tiny.e_attn_max, tiny.output_error_frobenius, tiny.effective_bits)
            == (0.0, 0.0, 0.0, 16.0),
            tiny,
        )
        n = MEMORY_TOKENS
        inst = self.inst
        per_token, mem_cache = held_memory_per_token(
            self.config, inst.keys[:n], inst.values[:n], inst.queries[:n]
        )
        return {
            "checks": checks.results,
            "metrics": {
                "key_bits": report.effective_bits,
                "logit_error_frob": report.e_attn_frobenius,
                "output_error_frob": report.output_error_frobenius,
                "cache_bytes_per_token": per_token,
            },
            "accounting": accounting(mem_cache),
            "output": summary,
        }


def _dominates(a: dict, b: dict) -> bool:
    return (
        a["fidelity"] <= b["fidelity"]
        and a["b_eff"] <= b["b_eff"]
        and (a["fidelity"] < b["fidelity"] or a["b_eff"] < b["b_eff"])
    )


def _point(row: dict) -> tuple:
    return tuple(float(row[key]) for key in ("tau_full", "tau_mid", "b_eff", "fidelity"))


class Search:
    """`kvmix search` over a seeded MKVQ trace dump, run in-process."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dump_path = workdir / "search-trace.mkvq"
        self.out = workdir / "search"
        inst = PlantedSpec(dim=SEARCH_DIM, length=SEARCH_TOKENS).materialize(seed)
        dump_from_instance(inst).write(self.dump_path)
        lo, hi = SEARCH_RANGE
        self.argv = [
            "search",
            "--dump", str(self.dump_path),
            "--group-size", str(SEARCH_CACHE["group_size"]),
            "--residual-len", str(SEARCH_CACHE["residual_len"]),
            "--sink-len", str(SEARCH_CACHE["sink_len"]),
            "--grid", str(SEARCH_GRID),
            "--range", f"{lo},{hi}",
            "--budget", str(SEARCH_BUDGET),
            "--out", str(self.out),
        ]
        self.candidates = SEARCH_GRID * (SEARCH_GRID + 1) // 2

    def _search(self) -> int:
        # The CLI's summary lines would interleave with the sample's result.
        with contextlib.redirect_stdout(io.StringIO()):
            return kvmix.cli.main(self.argv)

    def _results(self) -> tuple[list[dict], dict]:
        with open(f"{self.out}_grid.csv", newline="") as fh:
            grid = list(csv.DictReader(fh))
        with open(f"{self.out}_frontier.json") as fh:
            frontier = json.load(fh)
        return grid, frontier

    def _summary(self, rc: int) -> dict:
        grid, frontier = self._results()
        chosen = frontier["selected"]
        return {
            "rc": rc,
            "candidates": len(grid),
            "frontier_size": len(frontier["frontier"]),
            "tau_full": chosen["tau_full"],
            "tau_mid": chosen["tau_mid"],
            "key_bits": chosen["b_eff"],
            "logit_error_frob": chosen["fidelity"],
        }

    def run(self, probe) -> dict:
        probe.burst(PROBE_BURST)
        a = clock()
        rc = self._search()
        elapsed = clock() - a
        probe.burst(PROBE_BURST)
        return {
            "ops_ns": [elapsed],
            "busy_s": elapsed / 1e9,
            "work": self.candidates,
            "attempted": 1,
            "failed": int(rc != 0),
            "output": self._summary(rc),
        }

    def check(self) -> dict:
        checks = Checks()
        rc = self._search()
        checks.expect("kvmix search exits 0", rc == 0, rc)
        grid, frontier = self._results()
        log = [_point(row) for row in grid]
        front = [_point(row) for row in frontier["frontier"]]
        checks.expect(f"grid log has {self.candidates} candidates", len(log) == self.candidates, len(log))
        as_dicts = [dict(zip(("tau_full", "tau_mid", "b_eff", "fidelity"), p)) for p in log]
        nondominated = sorted(
            _point(p) for p in as_dicts if not any(_dominates(q, p) for q in as_dicts)
        )
        checks.expect("frontier equals the brute-force nondominated set of the grid log", sorted(front) == nondominated)
        lo = SEARCH_RANGE[0]
        corner = [p for p in log if p[0] == lo and p[1] == lo]
        checks.expect("(lo, lo) corner has fidelity 0 and b_eff 16", corner and corner[0][2:] == (16.0, 0.0), corner)
        chosen = frontier["selected"]
        feasible = [p for p in front if p[2] <= SEARCH_BUDGET]
        best = min(feasible, key=lambda p: (p[3], p[2], p[0], p[1]))
        checks.expect("selected point is the most faithful frontier point under budget", _point(chosen) == best)

        # Replay the selected thresholds through the library on the dump the
        # CLI read, for output error and bytes at that operating point.
        inst = instance_from_dump(TensorDump.read(self.dump_path))
        config = CacheConfig(
            dim=inst.dim, tau_full=chosen["tau_full"], tau_mid=chosen["tau_mid"], **SEARCH_CACHE
        )
        report = kvmix.attention.decode_simulation(inst, config, AllocationPolicy.salience())
        checks.close("replayed fidelity matches the search", report.e_attn_frobenius, chosen["fidelity"], 1e-12)
        checks.expect("replayed b_eff matches the search", report.effective_bits == chosen["b_eff"])
        summary = self._summary(rc)
        checks.golden("search", self.seed, summary)
        per_token, mem_cache = held_memory_per_token(config, inst.keys, inst.values, inst.queries)
        return {
            "checks": checks.results,
            "metrics": {
                "key_bits": chosen["b_eff"],
                "logit_error_frob": chosen["fidelity"],
                "output_error_frob": report.output_error_frobenius,
                "cache_bytes_per_token": per_token,
            },
            "accounting": accounting(mem_cache),
            "output": summary,
        }


WORKLOADS = {"stream": Stream, "decode": Decode, "search": Search}
