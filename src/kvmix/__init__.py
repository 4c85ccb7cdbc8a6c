"""kvmix: mixed-precision KV-cache quantization with query-aware salience.

The cache keeps a transformer's attention keys at three precisions at
once. Which key channels deserve bits is decided by a salience score
that multiplies how strongly the queries probe a channel (importance,
a running mean of |Q|) by how coarse its quantization grid would be
(sensitivity, the channel's value range per quantization level). High
salience channels stay in full precision, the middle band gets 4-bit
codes, and the rest get 2-bit codes, while values are quantized
per token. Tokens stream through a full-precision residual buffer and
are frozen into immutable quantized blocks; the first tokens of the
sequence (the attention sink) are never quantized.

Typical use:

    import numpy as np
    from kvmix import CacheConfig, MixedKVCache, AllocationPolicy

    config = CacheConfig(dim=64, group_size=16, residual_len=64, sink_len=8)
    cache = MixedKVCache(config, AllocationPolicy.salience())
    for k, v, q in rows:                    # post-RoPE activations
        cache.append(k, v, q)
    keys_hat = cache.reconstruct_keys()     # dequantized view
    bits = cache.effective_bitwidth()       # mean stored bits per key element

The attention module scores policies by the errors a step-by-step decode
would see (decode_simulation): flushed blocks never change, so every
step's reconstructed prefix follows from one final reconstruction and a
mask of the tokens flushed by then, evaluated in a few matrix passes.
The search module sweeps the two salience thresholds and returns the
fidelity / bit-width Pareto frontier. The same experiments are
scriptable through the `kvmix` command line tool. The scalar group
quantizer (kvmix.quant), the block types (kvmix.cache) and the replay
references attention_error and evaluate_candidate are imported from
their modules, not from here.
"""

from .attention import (
    AttentionInstance,
    FidelityReport,
    PlantedChannels,
    PlantedSpec,
    attention_exact,
    decode_simulation,
)
from .cache import CacheConfig, MixedKVCache
from .errors import (
    BudgetInfeasible,
    CorruptFile,
    InvalidInput,
    KVMixError,
    UndefinedMetric,
)
from .io import (
    TensorDump,
    dump_from_instance,
    instance_from_dump,
    write_records_csv,
    write_records_json,
)
from .policies import (
    AllocationPolicy,
    PolicyKind,
    PrecisionAssignment,
    resolve_assignment,
)
from .quant import BitWidth
from .salience import (
    QueryAccumulator,
    apply_rope,
    salience_score,
    sensitivity_score,
)
from .search import (
    ParetoPoint,
    evaluate_grid,
    pareto_frontier,
    select_under_budget,
    threshold_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationPolicy",
    "AttentionInstance",
    "BitWidth",
    "BudgetInfeasible",
    "CacheConfig",
    "CorruptFile",
    "FidelityReport",
    "InvalidInput",
    "KVMixError",
    "MixedKVCache",
    "ParetoPoint",
    "PlantedChannels",
    "PlantedSpec",
    "PolicyKind",
    "PrecisionAssignment",
    "QueryAccumulator",
    "TensorDump",
    "UndefinedMetric",
    "apply_rope",
    "attention_exact",
    "decode_simulation",
    "dump_from_instance",
    "evaluate_grid",
    "instance_from_dump",
    "pareto_frontier",
    "resolve_assignment",
    "salience_score",
    "select_under_budget",
    "sensitivity_score",
    "threshold_grid",
    "write_records_csv",
    "write_records_json",
]
