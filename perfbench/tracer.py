"""Span tracing of kvmix from outside the library.

The benchmark never edits kvmix. To trace it, it replaces each public
function with a wrapper at the place where callers look the name up
(`kvmix.cache.quantize_group`, not only `kvmix.quant.quantize_group`),
and methods on their classes. A wrapper records one span per call:
name, start, end and the index of the enclosing span. Spans stay in
memory until the run ends.

A span's self time is its duration minus the durations of its direct
children. The program is single-threaded, so child spans never overlap
and their sum is the time the children cover.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

import kvmix.attention
import kvmix.cache
import kvmix.cli
import kvmix.io
import kvmix.quant
import kvmix.salience
import kvmix.search


class Tracer:
    """Records spans and counters for every patched call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.flops = 0
        self.bytes_written = 0
        self.tier_maps: set[tuple[bytes, bytes]] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace `owner.attr` with a traced wrapper named `name`."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, after))
        else:
            new = self._wrap(name, raw, after)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        """Write every span as one tab-separated line: id name start end parent."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")

    def summary(self, first: int = 0) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and durations.

        Only spans from index `first` on are counted, so one tracer can
        hold several phases of a run.
        """
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child_ns[parent - first] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations_s": []}
        )
        for (name, start, end, parent), covered in zip(spans, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - covered) / 1e9
            entry["durations_s"].append((end - start) / 1e9)
        return dict(out)

    def count_children(self, parent_name: str, name: str) -> int:
        """Spans called `name` whose direct parent is called `parent_name`."""
        return sum(
            1
            for span_name, _, _, parent in self.spans
            if span_name == name and parent >= 0 and self.spans[parent][0] == parent_name
        )


def _count_tier_map(tracer: Tracer, args, assignment) -> None:
    # (trace, block) is identified by the block's sensitivity vector: it is
    # a function of the block's keys only, never of the thresholds.
    sensitivity = np.asarray(args[2], dtype=np.float64)
    tracer.tier_maps.add((sensitivity.tobytes(), assignment.bits.tobytes()))


def _rows(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim == 1 else arr.shape[0]


def _count_attention_flops(tracer: Tracer, args, result) -> None:
    queries, keys, values = args[0], args[1], args[2]
    nq, nk = _rows(queries), np.shape(keys)[0]
    # logits q @ k.T plus the weighted sum of value rows
    tracer.flops += 2 * nq * nk * (np.shape(keys)[1] + np.shape(values)[1])


def _count_error_flops(tracer: Tracer, args, result) -> None:
    queries, keys = args[0], args[1]
    nk, d = np.shape(keys)
    # k - k_hat, then q @ diff.T
    tracer.flops += nk * d + 2 * _rows(queries) * nk * d


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.bytes_written += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Patch every traced kvmix name at each place it is looked up."""
    # The benchmark itself calls kvmix.attention.decode_simulation and
    # kvmix.cli.main through their modules, so those sites are patched too.
    sites = [
        (kvmix.cache, "quantize_group", "quant.quantize_group", None),
        (kvmix.quant, "pack_codes", "quant.pack_codes", None),
        (kvmix.cache, "dequantize_group", "quant.dequantize_group", None),
        (kvmix.quant, "unpack_codes", "quant.unpack_codes", None),
        (kvmix.salience.QueryAccumulator, "add", "salience.accumulator_add", None),
        (kvmix.cache, "sensitivity_score", "salience.sensitivity_score", None),
        (kvmix.cache, "resolve_assignment", "policies.resolve_assignment", _count_tier_map),
        (kvmix.cache.MixedKVCache, "append", "cache.append", None),
        (kvmix.cache.MixedKVCache, "flush", "cache.flush", None),
        (kvmix.cache.MixedKVCache, "reconstruct_keys", "cache.reconstruct", None),
        (kvmix.cache.MixedKVCache, "reconstruct_values", "cache.reconstruct", None),
        (kvmix.cache.KeyBlock, "dense", "cache.block_dense", None),
        (kvmix.cache.ValueBlock, "dense", "cache.block_dense", None),
        (kvmix.attention, "decode_simulation", "attention.decode_simulation", None),
        (kvmix.search, "decode_simulation", "attention.decode_simulation", None),
        (kvmix.attention, "attention_exact", "attention.attention_exact", _count_attention_flops),
        (kvmix.attention, "attention_error", "attention.attention_error", _count_error_flops),
        (kvmix.search, "evaluate_candidate", "search.evaluate_candidate", None),
        (kvmix.cli, "evaluate_grid", "search.evaluate_grid", None),
        (kvmix.cli, "pareto_frontier", "search.pareto_frontier", None),
        (kvmix.cli, "select_under_budget", "search.select_under_budget", None),
        (kvmix.io.TensorDump, "read", "io.dump_read", None),
        (kvmix.cli, "instance_from_dump", "io.instance_from_dump", None),
        (kvmix.cli, "write_records_csv", "io.write_records", _count_bytes),
        (kvmix.cli, "write_records_json", "io.write_records", _count_bytes),
        (kvmix.cli, "main", "cli.main", None),
    ]
    for owner, attr, name, after in sites:
        tracer.patch(owner, attr, name, after)
