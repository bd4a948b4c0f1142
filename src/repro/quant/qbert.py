"""Q-BERT-like baseline: group-wise dictionary quantization.

Q-BERT [Shen et al. 2019] splits each layer's weight matrix into groups
(128 per layer gives acceptable accuracy), quantizes each group to its own
dictionary of ``2^bits`` values, and stores weights as indexes.  Embedding
tables are kept at 8 bits to avoid a large accuracy loss.  The original
selects levels with second-order (Hessian) information during fine-tuning;
this reimplementation uses per-group Lloyd clustering.  Table III's
compression ratios (6.52x at 4 bits, 7.81x at 3 bits with 8-bit embeddings)
come from Q-BERT's native layout — ``bits`` per weight plus 128 dictionaries
per layer — modelled analytically by
:func:`repro.experiments.tables.qbert_model_bytes`.  Engine archives store
block-offset global codes instead (see :func:`_qbert_group_method`).
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import kmeans_cluster
from repro.core.quantizer import (
    TensorMethodContext,
    TensorMethodResult,
    register_tensor_method,
    single_pass_result,
)
from repro.errors import QuantizationError
from repro.quant.base import EngineBackedQuantizer
from repro.quant.q8bert import BITS as EMBEDDING_BITS

#: Q-BERT's group count (128 per layer gives acceptable accuracy, see above).
NUM_GROUPS = 128


def _qbert_group_method(
    weights: np.ndarray, ctx: TensorMethodContext
) -> TensorMethodResult:
    """Group-wise dictionary quantization as an engine tensor method.

    Splits the flat tensor into ``min(128, size)`` contiguous groups,
    clusters each group independently, then concatenates the per-group
    dictionaries into one global centroid table with block-offset codes —
    so the result fits the engine's generic packed-codes + centroid-table
    archive.  ``stored_bits`` widens to cover the global code space,
    ``ceil(log2(128 * 2^bits))``: 10 bits at 3-bit.  Q-BERT's native
    per-group layout is modelled analytically by
    :func:`repro.experiments.tables.qbert_model_bytes`.
    """
    flat = np.asarray(weights, dtype=np.float64).ravel()
    groups = min(NUM_GROUPS, flat.size)
    bounds = np.linspace(0, flat.size, groups + 1).round().astype(np.int64)
    centroid_blocks: list[np.ndarray] = []
    assignment = np.empty(flat.size, dtype=np.int64)
    offset = 0
    for g in range(groups):
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        if hi <= lo:
            continue
        result = kmeans_cluster(flat[lo:hi], ctx.bits)
        centroid_blocks.append(result.centroids)
        assignment[lo:hi] = result.assignment + offset
        offset += result.centroids.size
    centroids = np.concatenate(centroid_blocks)
    stored_bits = max(1, int(centroids.size - 1).bit_length())
    clustering = single_pass_result(flat, centroids, assignment)
    return TensorMethodResult(
        outlier_mask=np.zeros(flat.size, dtype=bool),
        clustering=clustering,
        stored_bits=stored_bits,
    )


register_tensor_method("qbert-group", _qbert_group_method)


class QBertQuantizer(EngineBackedQuantizer):
    """Whole-model group-wise dictionary quantization with 8-bit embeddings.

    FC layers run through the engine as the ``"qbert-group"`` tensor method
    and embeddings as ``"q8bert-grid"``, so Q-BERT models land in format v3
    archives like every other method.
    """

    name = "qbert"
    requires_finetuning = True  # the original fine-tunes with Hessian guidance

    def __init__(self, weight_bits: int = 3):
        if not 1 <= weight_bits <= 8:
            raise QuantizationError(f"weight_bits must be in [1, 8], got {weight_bits}")
        self.weight_bits = weight_bits

    def engine_options(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> dict:
        return {
            "weight_bits": self.weight_bits,
            "embedding_bits": EMBEDDING_BITS,
            "method": "qbert-group",
            "embedding_method": "q8bert-grid",
        }
