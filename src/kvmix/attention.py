"""Attention fidelity simulation against a quantized KV cache.

The quality of a cache policy is measured on a single head of scaled
dot-product attention. Two error views are reported:

- the pre-softmax logit perturbation E = Q (K - K_hat)^T, the quantity
  the salience score is built to suppress (no 1/sqrt(D) factor);
- the post-softmax output error between attention computed on the exact
  (K, V) and on the cache's reconstructions (K_hat, V_hat).

decode_simulation() measures what a decoder would see if it fed a sequence
to the cache token by token and attended each new query over the
reconstructed prefix. Flushed blocks never change, so the prefix seen at
every step follows from one final reconstruction and a mask of which
tokens had been flushed by then. All steps are evaluated in chunked
matrix passes over four buffers allocated once per call. The causal mask
touches only each chunk's diagonal block, the flushed mask only the band
of columns its first step had not flushed, and the errors are
aggregated into a FidelityReport. The threshold search (kvmix.search)
scores the same logit error in closed form and shares no helper with
this loop.

PlantedSpec.materialize() builds synthetic workloads with a controlled
split between key-scale outliers and query-magnitude outliers. Queries on
channels that are scale outliers only are damped, planting the
decorrelated regime in which large keys do not matter (their queries are
small) and query-heavy channels do. With overlap equal to both outlier
counts the two sets coincide and query-aware and magnitude-only
allocation should roughly tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import CacheConfig, MixedKVCache
from .errors import InvalidInput, UndefinedMetric, check_array, check_count
from .policies import AllocationPolicy
from .salience import _as_matrix

__all__ = [
    "AttentionInstance",
    "PlantedChannels",
    "PlantedSpec",
    "FidelityReport",
    "attention_exact",
    "attention_error",
    "decode_simulation",
]


@dataclass(frozen=True)
class PlantedChannels:
    """Ground-truth outlier channel sets of a planted instance."""

    scale_channels: np.ndarray
    query_channels: np.ndarray


@dataclass(frozen=True)
class AttentionInstance:
    """One attention workload: stacked query, key, and value rows.

    queries and keys are (length, dim); values are (length, value_dim).
    `planted` carries generator ground truth when available.
    """

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    planted: PlantedChannels | None = None

    def __post_init__(self):
        for name in ("queries", "keys", "values"):
            object.__setattr__(self, name, check_array(getattr(self, name), name, 2))
        q, k, v = self.queries, self.keys, self.values
        if min(q.size, k.size, v.size) == 0:
            raise InvalidInput("queries, keys and values must be non-empty")
        if q.shape != k.shape:
            raise InvalidInput(
                f"queries {q.shape} and keys {k.shape} must share their shape"
            )
        if v.shape[0] != k.shape[0]:
            raise InvalidInput("values must cover the same tokens as the keys")

    @property
    def length(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    @property
    def value_dim(self) -> int:
        return self.values.shape[1]

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.dim)


@dataclass(frozen=True)
class FidelityReport:
    """Aggregated fidelity of one simulated decode run."""

    e_attn_frobenius: float
    e_attn_max: float
    output_error_frobenius: float
    effective_bits: float
    policy_label: str


# Query rows per matrix pass of a decode, which holds four (rows, length)
# float64 matrices, 1 MB each at 64 rows and length 2048.
_DECODE_CHUNK = 64


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row of `logits`, in place (a decode reuses its buffers)."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def attention_exact(queries, keys, values, causal: bool = True, scale: float | None = None):
    """Scaled dot-product attention with a numerically stable softmax.

    With causal=True position i attends to keys [0, i], which requires as
    many query rows as key rows. Returns (weights, outputs): the softmax
    weight matrix and the attended value rows. Keys with no row or no
    channel raise InvalidInput, as do logits or outputs that overflow
    float64.
    """
    q = _as_matrix(queries, "queries")
    k = check_array(keys, "keys", 2)
    v = check_array(values, "values", 2)
    if q.shape[1] != k.shape[1]:
        raise InvalidInput("queries and keys disagree on channel count")
    if v.shape[0] != k.shape[0]:
        raise InvalidInput("keys and values disagree on token count")
    if 0 in k.shape:
        raise InvalidInput(f"keys need at least one row and one channel, got shape {k.shape}")
    scale = 1.0 / math.sqrt(k.shape[1]) if scale is None else check_array(scale, "scale", 0)
    if causal and q.shape[0] != k.shape[0]:
        raise InvalidInput("causal masking requires one query row per key row")
    with np.errstate(over="ignore", invalid="ignore"):
        logits = (q @ k.T) * scale
        if causal:
            logits[np.triu_indices(q.shape[0], k=1)] = -np.inf
        weights = _softmax_rows(logits)
        out = weights @ v
    if not (np.isfinite(weights).all() and np.isfinite(out).all()):
        raise InvalidInput("attention logits or outputs overflow float64")
    return weights, out


def attention_error(queries, keys_exact, keys_approx) -> np.ndarray:
    """Unscaled logit perturbation Q (K - K_hat)^T; InvalidInput on overflow."""
    q = _as_matrix(queries, "queries")
    k = check_array(keys_exact, "keys_exact", 2)
    kh = check_array(keys_approx, "keys_approx", 2)
    if k.shape != kh.shape:
        raise InvalidInput("exact and approximate keys must share their shape")
    if q.shape[1] != k.shape[1]:
        raise InvalidInput("queries and keys disagree on channel count")
    with np.errstate(over="ignore", invalid="ignore"):
        err = q @ (k - kh).T
    if not np.isfinite(err).all():
        raise InvalidInput("logit error overflows float64")
    return err


_BOOST = 10.0
_DAMP = 0.1


@dataclass(frozen=True)
class PlantedSpec:
    """Parameters of a Gaussian workload with planted outlier channels.

    `n_outlier_scale` key channels get 10 times the base range;
    `n_outlier_query` query channels get 10 times the base magnitude;
    exactly `overlap` channels belong to both sets. Queries on
    scale-outlier-only channels are damped to a tenth (large keys paired
    with small queries). Keys, queries and values are all (length, dim).
    materialize(seed) builds the instance, deterministically in the seed.
    """

    dim: int
    length: int
    n_outlier_scale: int = 4
    n_outlier_query: int = 4
    overlap: int = 0

    def __post_init__(self):
        for name, minimum in (
            ("dim", 1),
            ("length", 1),
            ("n_outlier_scale", 0),
            ("n_outlier_query", 0),
            ("overlap", 0),
        ):
            object.__setattr__(self, name, check_count(getattr(self, name), name, minimum))
        if self.overlap > min(self.n_outlier_scale, self.n_outlier_query):
            raise InvalidInput("overlap cannot exceed either outlier count")
        if self.n_outlier_scale + self.n_outlier_query - self.overlap > self.dim:
            raise InvalidInput("outlier sets do not fit in the channel count")

    def materialize(self, seed: int) -> AttentionInstance:
        dim, ns, overlap = self.dim, self.n_outlier_scale, self.overlap
        rng = np.random.default_rng(check_count(seed, "seed", 0))
        perm = rng.permutation(dim)
        shared = perm[:overlap]
        scale_channels = np.sort(np.concatenate([shared, perm[overlap:ns]]))
        query_channels = np.sort(
            np.concatenate([shared, perm[ns : ns + self.n_outlier_query - overlap]])
        )
        scale_only = np.setdiff1d(scale_channels, query_channels)

        keys = rng.normal(size=(self.length, dim))
        keys[:, scale_channels] *= _BOOST
        queries = rng.normal(size=(self.length, dim))
        queries[:, query_channels] *= _BOOST
        queries[:, scale_only] *= _DAMP
        values = rng.normal(size=(self.length, dim))
        return AttentionInstance(
            queries,
            keys,
            values,
            planted=PlantedChannels(
                scale_channels=scale_channels, query_channels=query_channels
            ),
        )


def _decode_rows(inst: AttentionInstance, config: CacheConfig, steps: int | None):
    """The checked (queries, keys, values) rows of an instance's first `steps` decode steps."""
    if not isinstance(inst, AttentionInstance):
        raise InvalidInput(f"instance must be an AttentionInstance, got {type(inst).__name__}")
    if not isinstance(config, CacheConfig):
        raise InvalidInput(f"config must be a CacheConfig, got {type(config).__name__}")
    steps = inst.length if steps is None else check_count(steps, "steps", 1)
    if steps > inst.length:
        raise InvalidInput(f"instance has {inst.length} rows, cannot run {steps} steps")
    if inst.dim != config.dim or inst.value_dim != config.value_dim:
        raise InvalidInput("instance geometry disagrees with the cache config")
    return inst.queries[:steps], inst.keys[:steps], inst.values[:steps]


def decode_simulation(
    source: AttentionInstance | PlantedSpec,
    config: CacheConfig,
    policy: AllocationPolicy,
    steps: int | None = None,
    seed: int = 0,
    return_cache: bool = False,
):
    """Replay a sequence through the cache and measure attention fidelity.

    `source` is either a concrete AttentionInstance (a trace; `seed` is
    then ignored) or a PlantedSpec to materialize with `seed`. The result
    is that of a decoder which, at step t, appends row (k_t, v_t, q_t) and
    attends q_t over the cache's reconstruction of the prefix [0, t] and
    over the exact prefix, accumulating logit and output errors across
    the first `steps` steps. Source tensors are taken as already rotated
    (see apply_rope).

    Blocks never change once flushed, so that prefix is known in closed
    form: token j reads back as its final reconstruction once a flush has
    covered it, j < ((t + 1) // residual_len) * residual_len, and exactly
    before that. The rows are therefore ingested once, reconstructed
    once, and every step is evaluated together, in chunks of query rows,
    through a flushed mask F:

        E        = (Q (K - K_hat)^T) o F             logit error
        W, W_hat = causal softmax of Q K^T s and (Q K^T - E) s
        out diff = (W - W_hat) V + (W_hat o F) (V - V_hat)

    with s = 1/sqrt(dim). Exact rows cancel before any rounding, so a
    lossless cache gives errors of exactly 0.

    Under the FULL_PRECISION policy value quantization is disabled too,
    so the run is lossless end to end. With return_cache=True the final
    cache comes back alongside the report. Logits or errors that
    overflow float64 raise InvalidInput.
    """
    if isinstance(source, PlantedSpec):
        source = source.materialize(seed)
    queries, keys, values = _decode_rows(source, config, steps)
    cache = MixedKVCache(config, policy)
    cache.extend(keys, values, queries)
    delta = keys - cache.reconstruct_keys()
    value_err = values - cache.reconstruct_values()
    scale = 1.0 / math.sqrt(config.dim)
    rows = min(_DECODE_CHUNK, len(keys))
    future = np.triu(np.ones((rows, rows), dtype=bool), 1)
    buffers = np.empty((4, rows * len(keys)))
    residual_len = config.residual_len
    sq_logit = max_logit = sq_output = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(keys), _DECODE_CHUNK):
            hi = min(lo + _DECODE_CHUNK, len(keys))
            n = hi - lo
            # Step t has flushed the first (t + 1) // R * R tokens; every step
            # of the chunk has flushed those before `cut`, and pending[t - lo,
            # j - cut] marks each token cut <= j < hi that step t has not flushed.
            cut = (lo + 1) // residual_len * residual_len
            flushed = (np.arange(lo, hi)[:, None] + 1) // residual_len * residual_len
            pending = np.arange(cut, hi)[None, :] >= flushed
            # contiguous (n, hi) views, laid out as fresh matrices would be
            exact, err, weights, weights_hat = (b[: n * hi].reshape(n, hi) for b in buffers)
            q = queries[lo:hi]
            np.matmul(q, keys[:hi].T, out=exact)
            np.multiply(exact, scale, out=weights)
            np.copyto(weights[:, lo:], -np.inf, where=future[:n, :n])
            _softmax_rows(weights)
            np.matmul(q, delta[:hi].T, out=err)
            np.copyto(err[:, cut:], 0.0, where=pending)
            sq_logit += float(np.sum(np.multiply(err, err, out=weights_hat)))
            max_logit = max(max_logit, float(np.abs(err, out=weights_hat).max()))
            np.multiply(np.subtract(exact, err, out=weights_hat), scale, out=weights_hat)
            np.copyto(weights_hat[:, lo:], -np.inf, where=future[:n, :n])
            _softmax_rows(weights_hat)
            weights -= weights_hat
            diff = weights @ values[:hi]
            np.copyto(weights_hat[:, cut:], 0.0, where=pending)
            diff += weights_hat @ value_err[:hi]
            sq_output += float(np.sum(diff * diff))
    if not (math.isfinite(sq_logit) and math.isfinite(sq_output)):
        raise InvalidInput("attention logits or errors overflow float64")

    try:
        effective_bits = cache.effective_bitwidth()
    except UndefinedMetric:
        # Nothing flushed: every token still sits in the residual buffer.
        effective_bits = 16.0

    report = FidelityReport(
        e_attn_frobenius=math.sqrt(sq_logit),
        e_attn_max=max_logit,
        output_error_frobenius=math.sqrt(sq_output),
        effective_bits=effective_bits,
        policy_label=cache.policy.label,
    )
    if return_cache:
        return report, cache
    return report
