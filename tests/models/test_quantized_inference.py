"""End-to-end: a quantized BERT forward pass on the compressed representation.

The acceptance bar for the kernels issue: after
:func:`~repro.models.attach_quantized_linears`, a BERT block's forward runs
through :class:`~repro.nn.QuantizedLinear` with *zero*
``quantizer.dequantize_calls`` events — no FP32 weight matrix is ever
materialized — and matches the dequantize-then-load path within tolerance.
The attached model is frozen, so a served forward records no autograd tape
and leaves nothing for the cyclic garbage collector.
"""

import gc

import numpy as np
import pytest

from repro import obs
from repro.core.model_quantizer import quantize_model
from repro.errors import QuantizationError
from repro.models import BertModel, attach_quantized_linears
from repro.nn import Linear, QuantizedLinear
from tests.conftest import MICRO_CONFIG


@pytest.fixture(scope="module")
def quantized_setup():
    model = BertModel(MICRO_CONFIG, rng=20260807).eval()
    qmodel = quantize_model(model, weight_bits=3, embedding_bits=4)
    reference = BertModel(MICRO_CONFIG, rng=20260807).eval()
    qmodel.apply_to(reference)  # the decode-then-load baseline
    compressed = attach_quantized_linears(BertModel(MICRO_CONFIG, rng=20260807), qmodel)
    return qmodel, reference, compressed


def micro_inputs():
    rng = np.random.default_rng(7)
    input_ids = rng.integers(0, MICRO_CONFIG.vocab_size, size=(2, 9))
    return input_ids


class TestAttach:
    def test_all_fc_layers_swapped(self, quantized_setup):
        qmodel, _, compressed = quantized_setup
        qlinears = [
            name
            for name, module in compressed.named_modules()
            if isinstance(module, QuantizedLinear)
        ]
        assert len(qlinears) == len(qmodel.fc_names)
        assert "pooler" in qlinears
        assert "encoder.0.attention.query" in qlinears

    def test_model_is_in_eval_mode(self, quantized_setup):
        _, _, compressed = quantized_setup
        assert all(not m.training for _, m in compressed.named_modules())

    def test_model_is_frozen(self, quantized_setup):
        _, _, compressed = quantized_setup
        assert compressed.parameters()
        assert not any(p.requires_grad for p in compressed.parameters())

    def test_forward_leaves_no_reference_cycles(self, quantized_setup):
        """Activations are freed by refcount alone: with the cyclic GC off,
        one served forward leaves nothing for gc.collect() to find."""
        _, _, compressed = quantized_setup
        input_ids = micro_inputs()
        compressed(input_ids)  # warm any lazily built state first
        gc.disable()
        try:
            gc.collect()
            hidden, pooled = compressed(input_ids)
            del hidden, pooled
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_forward_matches_dequantize_path(self, quantized_setup):
        _, reference, compressed = quantized_setup
        input_ids = micro_inputs()
        hidden_ref, pooled_ref = reference(input_ids)
        hidden, pooled = compressed(input_ids)
        np.testing.assert_allclose(hidden.data, hidden_ref.data, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(pooled.data, pooled_ref.data, rtol=1e-9, atol=1e-11)

    def test_forward_never_dequantizes(self, quantized_setup):
        """The tentpole assertion: the compressed forward path performs zero
        dequantize() calls and routes every FC matmul through the kernels."""
        qmodel, _, compressed = quantized_setup
        input_ids = micro_inputs()
        with obs.scope() as trace:
            compressed(input_ids)
        names = [event["name"] for event in trace.events]
        assert "quantizer.dequantize_calls" not in names
        assert names.count("kernels.matmul_calls") == len(qmodel.fc_names)

    def test_baseline_forward_does_not_use_kernels(self, quantized_setup):
        _, reference, _ = quantized_setup
        with obs.scope() as trace:
            reference(micro_inputs())
        assert "kernels.matmul_calls" not in [e["name"] for e in trace.events]

    def test_attach_decodes_only_non_fc_tensors(self, quantized_setup):
        """Attach builds straight from the archive: the only decodes are
        the quantized non-FC tensors (embeddings), never an FC weight."""
        qmodel, _, _ = quantized_setup
        non_fc = [name for name in qmodel.quantized if name not in qmodel.fc_names]
        assert non_fc  # embeddings are quantized in this setup
        with obs.scope() as trace:
            attach_quantized_linears(BertModel(MICRO_CONFIG, rng=1), qmodel)
        names = [event["name"] for event in trace.events]
        assert names.count("quantizer.dequantize_calls") == len(non_fc)
        decoded = sum(e["value"] for e in trace.events
                      if e["name"] == "quantizer.dequantize_bytes")
        expected = sum(qmodel.quantized[name].total_count * 8 for name in non_fc)
        assert decoded == expected  # float64 decodes of exactly those tensors

    def test_fp32_fallback_layer_keeps_its_linear(self):
        model = BertModel(MICRO_CONFIG, rng=3).eval()
        qmodel = quantize_model(model, weight_bits=3, embedding_bits=None)
        dropped = qmodel.fc_names[0]
        fp32 = dict(qmodel.fp32)
        fp32[dropped] = qmodel.quantized[dropped].dequantize(np.float64)
        quantized = {k: v for k, v in qmodel.quantized.items() if k != dropped}
        partial = type(qmodel)(
            quantized=quantized,
            fp32=fp32,
            fc_names=qmodel.fc_names,
            embedding_names=qmodel.embedding_names,
        )
        target = attach_quantized_linears(BertModel(MICRO_CONFIG, rng=3), partial)
        modules = dict(target.named_modules())
        assert isinstance(modules[dropped[: -len(".weight")]], Linear)
        assert isinstance(modules[qmodel.fc_names[1][: -len(".weight")]], QuantizedLinear)

    def test_bad_path_raises(self):
        model = BertModel(MICRO_CONFIG, rng=5).eval()
        qmodel = quantize_model(model, weight_bits=3, embedding_bits=None)
        bogus = type(qmodel)(
            quantized={"encoder.9.attention.query.weight": next(iter(qmodel.quantized.values()))},
            fp32=model.state_dict(),
            fc_names=("encoder.9.attention.query.weight",),
            embedding_names=(),
        )
        with pytest.raises((QuantizationError, KeyError)):
            attach_quantized_linears(BertModel(MICRO_CONFIG, rng=5), bogus)
