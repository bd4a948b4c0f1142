"""QuantizedLinear: Linear semantics on the compressed representation."""

import numpy as np
import pytest

from repro.core.quantizer import quantize_tensor
from repro.errors import ShapeError
from repro.nn import Linear, QuantizedLinear, Tensor
from repro.utils.rng import derive_rng


def make_pair(rng, in_features=24, out_features=16):
    """A Linear and the QuantizedLinear built from its quantized weight."""
    linear = Linear(in_features, out_features, rng=rng)
    linear.bias.data = rng.normal(size=out_features)
    tensor, _ = quantize_tensor(linear.weight.data, bits=3)
    return linear, QuantizedLinear.from_linear(linear, tensor), tensor


class TestForward:
    def test_matches_dequantized_linear(self):
        rng = derive_rng(20260807, "qlinear-fwd")
        linear, qlinear, tensor = make_pair(rng)
        # Load the *reconstructed* weights into the FP32 Linear so the two
        # paths compute the same function.
        linear.weight.data = tensor.dequantize(dtype=np.float64)
        x = Tensor(rng.normal(size=(5, 24)))
        np.testing.assert_allclose(
            qlinear(x).data, linear.eval()(x).data, rtol=1e-12, atol=1e-12
        )

    def test_accepts_plain_arrays(self):
        rng = derive_rng(20260807, "qlinear-array")
        _, qlinear, _ = make_pair(rng)
        out = qlinear(rng.normal(size=(3, 24)))
        assert isinstance(out, Tensor)
        assert out.shape == (3, 16)

    def test_3d_input(self):
        rng = derive_rng(20260807, "qlinear-3d")
        _, qlinear, _ = make_pair(rng)
        assert qlinear(Tensor(rng.normal(size=(2, 7, 24)))).shape == (2, 7, 16)

    def test_default_bias_is_zero(self):
        rng = derive_rng(20260807, "qlinear-nobias")
        tensor, _ = quantize_tensor(rng.normal(scale=0.05, size=(8, 12)), bits=3)
        qlinear = QuantizedLinear(tensor)
        np.testing.assert_array_equal(qlinear.bias.data, np.zeros(8))

    def test_no_dequantize_during_forward(self):
        """The defining property: forward never decodes the weight."""
        from repro import obs

        rng = derive_rng(20260807, "qlinear-obs")
        _, qlinear, _ = make_pair(rng)
        x = Tensor(rng.normal(size=(4, 24)))
        with obs.scope() as trace:
            qlinear(x)
        names = [event["name"] for event in trace.events]
        assert "quantizer.dequantize_calls" not in names
        assert "kernels.matmul_calls" in names


class TestContract:
    def test_training_mode_raises(self):
        rng = derive_rng(20260807, "qlinear-train")
        _, qlinear, _ = make_pair(rng)
        qlinear.train()
        with pytest.raises(RuntimeError, match="inference-only"):
            qlinear(Tensor(np.zeros((1, 24))))

    def test_starts_in_eval_mode(self):
        rng = derive_rng(20260807, "qlinear-eval")
        _, qlinear, _ = make_pair(rng)
        assert qlinear.training is False

    def test_non_2d_tensor_rejected(self):
        rng = derive_rng(20260807, "qlinear-1d")
        tensor, _ = quantize_tensor(rng.normal(scale=0.05, size=(6, 6)), bits=3)
        flat = type(tensor)(
            shape=(36,),
            bits=tensor.bits,
            centroids=tensor.centroids,
            packed_codes=tensor.packed_codes,
            outlier_positions=tensor.outlier_positions,
            outlier_values=tensor.outlier_values,
        )
        with pytest.raises(ShapeError, match="2-D"):
            QuantizedLinear(flat)

    def test_bias_shape_mismatch_rejected(self):
        rng = derive_rng(20260807, "qlinear-badbias")
        tensor, _ = quantize_tensor(rng.normal(scale=0.05, size=(6, 6)), bits=3)
        with pytest.raises(ShapeError, match="bias"):
            QuantizedLinear(tensor, bias=np.zeros(7))

    def test_from_linear_shape_mismatch_rejected(self):
        rng = derive_rng(20260807, "qlinear-mismatch")
        linear = Linear(10, 6, rng=rng)
        tensor, _ = quantize_tensor(rng.normal(scale=0.05, size=(6, 9)), bits=3)
        with pytest.raises(ShapeError, match="does not match"):
            QuantizedLinear.from_linear(linear, tensor)

    def test_from_linear_without_bias(self):
        """A bias-free Linear (bias=None) gets the constructor's zero bias
        instead of crashing with AttributeError."""
        rng = derive_rng(20260807, "qlinear-biasfree")
        linear = Linear(12, 8, rng=rng)
        object.__setattr__(linear, "bias", None)
        linear._parameters.pop("bias", None)
        tensor, _ = quantize_tensor(linear.weight.data, bits=3)
        qlinear = QuantizedLinear.from_linear(linear, tensor)
        np.testing.assert_array_equal(qlinear.bias.data, np.zeros(8))
        x = rng.normal(size=(3, 12))
        np.testing.assert_allclose(
            qlinear(Tensor(x)).data,
            x @ tensor.dequantize(dtype=np.float64).T,
            rtol=1e-12,
            atol=1e-12,
        )

    def test_only_bias_is_a_parameter(self):
        """The compressed weight must stay out of the trainable state."""
        rng = derive_rng(20260807, "qlinear-params")
        _, qlinear, _ = make_pair(rng)
        names = [name for name, _ in qlinear.named_parameters()]
        assert names == ["bias"]
