"""Common interface for whole-model weight quantizers.

Every baseline (and GOBO itself, via an adapter) exposes the same contract:
``quantize(state_dict, fc_names, embedding_names)`` returns a
:class:`~repro.core.model_quantizer.QuantizedModel` that reports the true
archive bytes of its tensors and reconstructs an FP32 state dict.  The
Table III comparison iterates over this interface.
"""

from __future__ import annotations

import numpy as np


class EngineBackedQuantizer:
    """Base for quantizers that run through the layer-parallel engine.

    Subclasses implement :meth:`engine_options` — the keyword arguments that
    pick their tensor method, bit widths and any per-layer side data — and
    inherit a full-featured :meth:`quantize` (deterministic, durable,
    fault-policy-aware, any backend).  Everything downstream of the engine
    (serialization format v3, jobs, serving, the Table III harness) works
    unchanged for every subclass.
    """

    name: str = "engine"
    requires_finetuning: bool = False

    def engine_options(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> dict:
        """Keyword arguments for ``quantize_state_dict`` (method, bits, aux)."""
        raise NotImplementedError

    def quantize(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...] = (),
        *,
        workers: int | None = None,
        on_error: str | None = "fail",
        validation: str = "strict",
        fault_injector=None,
        layer_timeout: float | None = None,
        transient_retries: int | None = None,
        cancel=None,
        backend: str | None = None,
        engine=None,
    ):
        """Run this method through the engine, returning a ``QuantizedModel``."""
        # Lazy import: repro.quant must stay importable without dragging in
        # the whole engine (plug-in tensor-method modules import the other way).
        from repro.core.model_quantizer import quantize_state_dict

        options = self.engine_options(state, fc_names, embedding_names)
        return quantize_state_dict(
            state,
            fc_names=fc_names,
            embedding_names=embedding_names,
            workers=workers,
            on_error=on_error,
            validation=validation,
            fault_injector=fault_injector,
            layer_timeout=layer_timeout,
            transient_retries=transient_retries,
            cancel=cancel,
            backend=backend,
            engine=engine,
            **options,
        )
