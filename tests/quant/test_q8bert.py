"""Tests for the Q8BERT-like fixed-point baseline."""

import numpy as np
import pytest

from repro.core.formats import storage_report
from repro.errors import QuantizationError
from repro.models.heads import BertForSequenceClassification
from repro.core.model_quantizer import select_parameters
from repro.quant.q8bert import (
    Q8BertQuantizer,
    fake_quantize_model,
    symmetric_dequantize,
    symmetric_quantize,
)
from tests.conftest import MICRO_CONFIG


class TestSymmetricQuantize:
    def test_round_trip_error_bounded(self, rng):
        values = rng.normal(0, 0.05, size=10000)
        codes, scale = symmetric_quantize(values, bits=8)
        restored = symmetric_dequantize(codes, scale)
        assert np.abs(restored - values).max() <= scale / 2 + 1e-12

    def test_codes_within_signed_range(self, rng):
        codes, _ = symmetric_quantize(rng.normal(size=1000), bits=8)
        assert codes.min() >= -128 and codes.max() <= 127

    def test_extreme_value_exactly_representable(self):
        values = np.array([-0.5, 0.25, 0.5])
        codes, scale = symmetric_quantize(values, bits=8)
        restored = symmetric_dequantize(codes, scale)
        assert restored[2] == pytest.approx(0.5)

    def test_all_zero_tensor(self):
        codes, scale = symmetric_quantize(np.zeros(10), bits=8)
        assert np.all(codes == 0) and scale == 1.0

    def test_fewer_bits_more_error(self, rng):
        values = rng.normal(size=5000)
        errors = []
        for bits in (4, 6, 8):
            codes, scale = symmetric_quantize(values, bits)
            errors.append(np.abs(symmetric_dequantize(codes, scale) - values).mean())
        assert errors[0] > errors[1] > errors[2]

    def test_empty_rejected(self):
        with pytest.raises(QuantizationError):
            symmetric_quantize(np.array([]))

    def test_invalid_bits(self):
        with pytest.raises(QuantizationError):
            symmetric_quantize(np.ones(4), bits=1)


class TestQ8BertQuantizer:
    @pytest.fixture(scope="class")
    def quantized(self):
        model = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)
        selection = select_parameters(model)
        return (
            model,
            Q8BertQuantizer().quantize(
                model.state_dict(), selection.fc_names, selection.embedding_names
            ),
        )

    def test_matches_symmetric_reference_bit_for_bit(self, quantized):
        # Pins the engine's q8bert-grid method to the reference arithmetic:
        # Table III's Q8BERT accuracy is computed from exactly these values.
        model, result = quantized
        state = model.state_dict()
        selection = select_parameters(model)
        assert set(result.quantized) == set(selection.fc_names + selection.embedding_names)
        reconstructed = result.state_dict()
        for name in result.quantized:
            codes, scale = symmetric_quantize(state[name], 8)
            want = symmetric_dequantize(codes, scale).reshape(state[name].shape)
            np.testing.assert_array_equal(reconstructed[name], want, err_msg=name)

    def test_archive_bytes_are_codes_plus_table(self, quantized):
        # One 8-bit code per weight plus a 256-entry FP32 table per tensor.
        _, result = quantized
        original = compressed = 0
        for name, tensor in result.quantized.items():
            count = tensor.total_count
            assert tensor.storage() == storage_report(count, 0, 8), name
            assert tensor.storage().compressed_bytes == count + 256 * 4, name
            original += count * 4
            compressed += count + 256 * 4
        assert result.model_compression_ratio() == original / compressed

    def test_reconstruction_close(self, quantized):
        model, result = quantized
        state = model.state_dict()
        for name, tensor in result.quantized.items():
            error = np.abs(tensor.dequantize(np.float64) - state[name]).mean()
            assert error < 0.01, name

    def test_state_dict_loadable(self, quantized):
        _, result = quantized
        probe = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=1)
        probe.load_state_dict(result.state_dict())

    def test_missing_tensor_rejected(self):
        with pytest.raises(QuantizationError):
            Q8BertQuantizer().quantize({}, ("nope",), ())


class TestFakeQuantize:
    def test_only_selected_names_touched(self, rng):
        state = {"a": rng.normal(size=100), "b": rng.normal(size=100)}
        out = fake_quantize_model(state, ("a",), bits=4)
        assert not np.array_equal(out["a"], state["a"])
        np.testing.assert_array_equal(out["b"], state["b"])

    def test_idempotent(self, rng):
        state = {"a": rng.normal(size=100)}
        once = fake_quantize_model(state, ("a",), bits=8)
        twice = fake_quantize_model(once, ("a",), bits=8)
        np.testing.assert_allclose(once["a"], twice["a"])
