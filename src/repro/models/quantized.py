"""Wire a :class:`~repro.core.model_quantizer.QuantizedModel` into a live
network so inference runs on the compressed representation.

:func:`attach_quantized_linears` builds the served model straight from the
archive: every quantized FC ``Linear`` becomes a
:class:`~repro.nn.QuantizedLinear` whose :class:`~repro.kernels.TiledKernel`
keeps the weight as resident codes, and only what GOBO leaves FP32
(biases, LayerNorm, heads, fallback layers) plus the quantized non-FC
tensors (embeddings) are decoded into the network.  No FC weight is ever
dequantized — at attach time or during a forward — which the tests assert
via the ``quantizer.dequantize_calls`` obs counter.  The served model is
frozen: no parameter requires grad, so its forwards record no autograd
tape and leave no reference cycles behind (see :mod:`repro.nn.tensor`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import QuantizationError
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.qlinear import QuantizedLinear

if TYPE_CHECKING:  # imported lazily to break the models <-> core cycle
    from repro.core.model_quantizer import QuantizedModel


def _resolve(model: Module, dotted: str) -> tuple[Module, str]:
    """Walk ``dotted`` (e.g. ``encoder.0.attention.query``) to its parent
    module and final attribute name."""
    parts = dotted.split(".")
    module = model
    for part in parts[:-1]:
        child = module._modules.get(part)
        if child is None:
            raise QuantizationError(f"model has no submodule {part!r} on path {dotted!r}")
        module = child
    return module, parts[-1]


def attach_quantized_linears(model: Module, qmodel: QuantizedModel) -> Module:
    """Swap ``model``'s quantized FC layers for
    :class:`~repro.nn.QuantizedLinear` modules, then load the rest of
    ``qmodel`` into it.

    Two phases:

    1. Every FC weight present in ``qmodel.quantized`` has its ``Linear``
       replaced by a ``QuantizedLinear`` over the compressed tensor, so
       forwards compute from resident codes with no FP32 weight matrix.
    2. The network loads ``qmodel.fp32`` (biases — including those of the
       new ``QuantizedLinear`` modules — LayerNorm, heads and any layer
       that fell back to FP32) plus the dequantized non-FC quantized
       tensors (embeddings).  That is the only decode; no FC weight is
       ever dequantized.

    Returns ``model`` in eval mode and frozen: every parameter has
    ``requires_grad`` False.  ``QuantizedLinear`` is inference-only anyway,
    but the embeddings, LayerNorm, biases and fallback ``Linear`` layers
    would otherwise still record a backward closure per op, which keeps
    each forward's activations alive until the cyclic GC runs.
    """
    swapped = set()
    for name in qmodel.fc_names:
        tensor = qmodel.quantized.get(name)
        if tensor is None:  # fp32-fallback or dropped layer: leave the Linear.
            continue
        if not name.endswith(".weight"):
            raise QuantizationError(f"FC parameter {name!r} is not a .weight tensor")
        parent, attr = _resolve(model, name[: -len(".weight")])
        linear = parent._modules.get(attr)
        if not isinstance(linear, Linear):
            raise QuantizationError(
                f"expected a Linear at {name[: -len('.weight')]!r}, got "
                f"{type(linear).__name__}"
            )
        setattr(parent, attr, QuantizedLinear(tensor))
        swapped.add(name)
    state = dict(qmodel.fp32)
    for name in qmodel.quantized:
        if name not in swapped:
            state[name] = qmodel.quantized[name].dequantize(dtype=np.float64)
    model.load_state_dict(state)
    for param in model.parameters():
        param.requires_grad = False
    return model.eval()
