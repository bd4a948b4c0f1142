"""Q8BERT-like baseline: symmetric 8-bit fixed-point quantization.

Intel's Q8BERT [Zafrir et al. 2019] quantizes weights and embeddings to 8-bit
fixed point with a per-tensor symmetric scale (fine-tuning with a
straight-through estimator recovers the accuracy loss; here the uniform
rounding error at 8 bits is small enough that the tiny models tolerate it
directly, and an optional quantization-aware fine-tuning hook is provided by
:func:`fake_quantize_model` for parity experiments).  Storage: one int8 per
weight plus a scale per tensor, a fixed 4x compression over FP32 — the
paper's Table III row, modelled by
:func:`repro.experiments.tables.q8bert_model_bytes`.  Engine archives hold
the same int8 codes plus the grid's 256 levels as an FP32 table per tensor.
"""

from __future__ import annotations

import numpy as np

from repro.core.quantizer import (
    TensorMethodContext,
    TensorMethodResult,
    register_tensor_method,
    single_pass_result,
)
from repro.errors import QuantizationError
from repro.quant.base import EngineBackedQuantizer

#: Q8BERT's fixed-point width for weights and embeddings.
BITS = 8


def symmetric_quantize(values: np.ndarray, bits: int = 8) -> tuple[np.ndarray, float]:
    """Quantize to signed ``bits``-bit integers with a symmetric scale.

    Returns ``(codes, scale)`` with ``values ~= codes * scale``.
    """
    if not 2 <= bits <= 16:
        raise QuantizationError(f"bits must be in [2, 16], got {bits}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise QuantizationError("cannot quantize an empty tensor")
    limit = float(np.abs(values).max())
    max_code = (1 << (bits - 1)) - 1
    if limit == 0.0:
        return np.zeros(values.shape, dtype=np.int32), 1.0
    scale = limit / max_code
    codes = np.clip(np.round(values / scale), -max_code - 1, max_code).astype(np.int32)
    return codes, scale


def symmetric_dequantize(codes: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of :func:`symmetric_quantize`."""
    return np.asarray(codes, dtype=np.float64) * scale


def _q8bert_grid_method(
    weights: np.ndarray, ctx: TensorMethodContext
) -> TensorMethodResult:
    """Symmetric fixed-point grid as an engine tensor method.

    The ``2^bits`` uniformly spaced code values become the centroid table
    (``code * scale``), so the engine's generic packed-codes + centroids
    archive reproduces :func:`symmetric_dequantize` arithmetic exactly.
    No weight is ever an outlier — the grid covers the full range.
    """
    flat = np.asarray(weights, dtype=np.float64).ravel()
    codes, scale = symmetric_quantize(flat, ctx.bits)
    max_code = (1 << (ctx.bits - 1)) - 1
    centroids = np.arange(-max_code - 1, max_code + 1, dtype=np.float64) * scale
    assignment = codes.astype(np.int64).ravel() + max_code + 1
    result = single_pass_result(flat, centroids, assignment)
    return TensorMethodResult(
        outlier_mask=np.zeros(flat.size, dtype=bool), clustering=result
    )


register_tensor_method("q8bert-grid", _q8bert_grid_method)


class Q8BertQuantizer(EngineBackedQuantizer):
    """Whole-model 8-bit fixed-point quantization (weights + embeddings).

    The grid runs through the engine as the ``"q8bert-grid"`` tensor method,
    so Q8BERT models flow through format v3 archives, durable jobs and the
    serving stack like any other method.
    """

    name = "q8bert"
    requires_finetuning = True  # the original method fine-tunes; see module doc

    def engine_options(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> dict:
        return {"weight_bits": BITS, "embedding_bits": BITS, "method": "q8bert-grid"}


def enable_activation_quantization(model, bits: int = 8) -> int:
    """Install 8-bit activation quantization on every Linear of ``model``.

    Q8BERT quantizes activations as well as weights; this hook emulates that
    at inference time (training mode is unaffected).  Each Linear input is
    symmetric-quantized per call — the dynamic-range variant.  Returns the
    number of layers instrumented; pass ``bits=None``-like behaviour by
    calling :func:`disable_activation_quantization` to undo.
    """
    from repro.nn.layers import Linear

    def quantize(values):
        codes, scale = symmetric_quantize(values, bits)
        return symmetric_dequantize(codes, scale).reshape(values.shape)

    count = 0
    for _, module in model.named_modules():
        if isinstance(module, Linear):
            module.activation_quantizer = quantize
            count += 1
    return count


def disable_activation_quantization(model) -> int:
    """Remove activation-quantization hooks; returns how many were removed."""
    from repro.nn.layers import Linear

    count = 0
    for _, module in model.named_modules():
        if isinstance(module, Linear) and module.activation_quantizer is not None:
            module.activation_quantizer = None
            count += 1
    return count


def fake_quantize_model(
    state: dict[str, np.ndarray],
    names: tuple[str, ...],
    bits: int = 8,
) -> dict[str, np.ndarray]:
    """Straight-through 'fake quantization' of selected tensors.

    Used to emulate Q8BERT's quantization-aware fine-tuning: apply between
    optimizer steps so the forward pass sees quantized weights while the
    FP32 master copy keeps training.
    """
    out = dict(state)
    for name in names:
        codes, scale = symmetric_quantize(state[name], bits)
        out[name] = symmetric_dequantize(codes, scale).reshape(state[name].shape)
    return out
