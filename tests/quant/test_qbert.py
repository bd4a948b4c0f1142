"""Tests for the Q-BERT-like group-wise dictionary baseline."""

import numpy as np
import pytest

from repro.core.clustering import kmeans_cluster
from repro.core.model_quantizer import select_parameters
from repro.core.quantizer import quantize_tensor
from repro.errors import QuantizationError
from repro.models.heads import BertForSequenceClassification
from repro.quant.q8bert import symmetric_dequantize, symmetric_quantize
from repro.quant.qbert import NUM_GROUPS, QBertQuantizer
from repro.utils.bitpack import packed_nbytes
from tests.conftest import MICRO_CONFIG


def reference_groupwise(values: np.ndarray, bits: int) -> np.ndarray:
    """Q-BERT's arithmetic written out: one K-Means dictionary per group of
    contiguous values, 128 groups per tensor."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    groups = min(128, flat.size)
    bounds = np.linspace(0, flat.size, groups + 1).round().astype(np.int64)
    out = np.empty_like(flat)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            result = kmeans_cluster(flat[lo:hi], bits)
            out[lo:hi] = result.centroids[result.assignment]
    return out.reshape(np.shape(values))


class TestQuantizeGroupwise:
    """The ``qbert-group`` tensor method on single tensors."""

    def test_reconstruction_shape(self, rng):
        values = rng.normal(size=(40, 25))
        tensor, _ = quantize_tensor(values, bits=3, method="qbert-group")
        assert tensor.dequantize().shape == (40, 25)

    def test_more_groups_lower_error(self, rng):
        # A piecewise-shifting distribution benefits from local dictionaries:
        # 128 group dictionaries beat one dictionary over the whole tensor.
        values = np.concatenate(
            [rng.normal(loc, 0.01, 2500) for loc in (-0.3, -0.1, 0.1, 0.3)]
        )
        grouped, _ = quantize_tensor(values, bits=2, method="qbert-group")
        single = kmeans_cluster(values, 2)
        single_error = np.abs(single.centroids[single.assignment] - values).mean()
        assert np.abs(grouped.dequantize(np.float64) - values).mean() < single_error

    def test_byte_cost_includes_dictionaries(self, rng):
        # The 128 dictionaries of 2^bits entries share one global table, so
        # the archive stores ceil(log2(128 * 2^bits))-bit block-offset codes
        # (10 bits at 3-bit) plus that table.
        for bits, stored in ((3, 10), (4, 11)):
            tensor, _ = quantize_tensor(rng.normal(size=(64, 128)), bits=bits,
                                        method="qbert-group")
            assert tensor.centroids.size == NUM_GROUPS << bits
            assert tensor.bits == stored
            expected = packed_nbytes(64 * 128, stored) + (1 << stored) * 4
            assert tensor.storage().compressed_bytes == expected

    def test_more_values_than_groups_not_required(self, rng):
        tensor, _ = quantize_tensor(rng.normal(size=5), bits=2, method="qbert-group")
        assert tensor.dequantize().shape == (5,)

    def test_empty_rejected(self):
        with pytest.raises(QuantizationError):
            quantize_tensor(np.array([]), bits=3, method="qbert-group")


class TestQBertQuantizer:
    @pytest.fixture(scope="class")
    def model(self):
        return BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)

    @pytest.fixture(scope="class")
    def quantized(self, model):
        selection = select_parameters(model)
        return model, QBertQuantizer(weight_bits=3).quantize(
            model.state_dict(), selection.fc_names, selection.embedding_names
        )

    @pytest.mark.parametrize("bits", [3, 4])
    def test_matches_reference_bit_for_bit(self, model, bits):
        # Pins the engine to the reference arithmetic: Table III's Q-BERT
        # accuracy is computed from exactly these values.
        state = model.state_dict()
        selection = select_parameters(model)
        result = QBertQuantizer(weight_bits=bits).quantize(
            state, selection.fc_names, selection.embedding_names
        )
        assert set(result.quantized) == set(selection.fc_names + selection.embedding_names)
        reconstructed = result.state_dict()
        for name in selection.fc_names:
            np.testing.assert_array_equal(
                reconstructed[name], reference_groupwise(state[name], bits), err_msg=name
            )
        for name in selection.embedding_names:
            codes, scale = symmetric_quantize(state[name], 8)
            want = symmetric_dequantize(codes, scale).reshape(state[name].shape)
            np.testing.assert_array_equal(reconstructed[name], want, err_msg=name)

    def test_embeddings_quantized_at_8_bits(self, quantized):
        model, result = quantized
        state = model.state_dict()
        name = "bert.embeddings.word_embeddings.weight"
        error = np.abs(result.quantized[name].dequantize(np.float64) - state[name]).max()
        # 8-bit symmetric rounding error is half a scale step.
        scale = np.abs(state[name]).max() / 127
        assert error <= scale / 2 + 1e-12

    def test_reconstructed_state_loads(self, quantized):
        _, result = quantized
        probe = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=1)
        probe.load_state_dict(result.state_dict())

    def test_invalid_bits(self):
        with pytest.raises(QuantizationError):
            QBertQuantizer(weight_bits=0)
