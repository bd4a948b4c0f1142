"""Kernel correctness: tiled resident-code matmul ≡ dequantize-then-matmul.

The correctness bar for :class:`~repro.kernels.TiledKernel`: bit-exact in
float64 (checked on exactly-representable inputs, where any misrouted code
or outlier changes the exact sum), within 1e-6 relative in float32, across
bits 1-8 and 16 (the ``uint16`` code path), outlier fractions including 0
and 1, empty tensors, and row tilings that do not divide ``out_features``
or that split outliers across tiles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.lookup as kernel_module
from repro.core.quantizer import GoboQuantizedTensor, quantize_tensor
from repro.errors import QuantizationError, ShapeError
from repro.kernels import TiledKernel, dequantize_matmul
from repro.utils.bitpack import pack_bits
from repro.utils.rng import derive_rng

#: Every code width the kernel must serve: the uint8 widths and uint16.
ALL_BITS = [*range(1, 9), 16]


def make_tensor(
    rng: np.random.Generator,
    shape: tuple[int, int],
    bits: int,
    outlier_fraction: float,
    dyadic: bool = False,
    positions: np.ndarray | None = None,
) -> GoboQuantizedTensor:
    """Hand-build a quantized tensor with exact control over every field.

    ``dyadic=True`` draws centroids and outliers from powers of two, so
    products against integer activations are exact in float64 and the
    kernel/dequantize comparison can demand bit equality.  ``positions``
    pins the outlier positions instead of drawing them.
    """
    total = int(np.prod(shape))
    n_centroids = 1 << bits
    if dyadic:
        centroids = 2.0 ** rng.integers(-4, 4, size=n_centroids).astype(np.float64)
        centroids *= rng.choice([-1.0, 1.0], size=n_centroids)
    else:
        centroids = np.sort(rng.normal(size=n_centroids))
    if positions is None:
        n_outliers = int(round(total * outlier_fraction))
        positions = rng.choice(total, size=n_outliers, replace=False)
    positions = np.sort(np.asarray(positions)).astype(np.int64)
    n_outliers = positions.size
    if dyadic:
        values = 2.0 ** rng.integers(-2, 6, size=n_outliers).astype(np.float64)
        values *= rng.choice([-1.0, 1.0], size=n_outliers)
    else:
        values = rng.normal(size=n_outliers) * 4.0
    codes = rng.integers(0, n_centroids, size=total - n_outliers)
    return GoboQuantizedTensor(
        shape=shape,
        bits=bits,
        centroids=centroids,
        packed_codes=pack_bits(codes, bits),
        outlier_positions=positions,
        outlier_values=values,
    )


def exact_inputs(rng, shape):
    """Small integer activations: exact products against dyadic weights."""
    return rng.integers(-8, 9, size=shape).astype(np.float64)


class TestEquivalence:
    @pytest.mark.parametrize("bits", ALL_BITS)
    @pytest.mark.parametrize("outlier_fraction", [0.0, 0.02, 0.5])
    def test_matches_dequantize_float64(self, bits, outlier_fraction):
        rng = derive_rng(20260807, "kernel-eq", bits, int(outlier_fraction * 100))
        tensor = make_tensor(rng, (13, 17), bits, outlier_fraction)
        x = rng.normal(size=(5, 17))
        np.testing.assert_allclose(
            TiledKernel(tensor).matmul(x),
            dequantize_matmul(x, tensor),
            rtol=1e-12,
            atol=1e-12,
        )

    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_bit_exact_float64_on_exact_inputs(self, bits):
        """Integer activations x dyadic centroids: every partial product is
        exact in float64, so any summation order gives the same bits and
        the kernel must agree with the dequantize path *exactly*.  This
        catches any misrouted code/outlier with probability ~1."""
        rng = derive_rng(20260807, "kernel-exact", bits)
        tensor = make_tensor(rng, (24, 31), bits, 0.05, dyadic=True)
        x = exact_inputs(rng, (4, 31))
        result = TiledKernel(tensor).matmul(x)
        reference = dequantize_matmul(x, tensor)
        assert result.dtype == np.float64
        np.testing.assert_array_equal(result, reference)

    def test_float32_within_relative_tolerance(self):
        rng = derive_rng(20260807, "kernel-f32")
        tensor = make_tensor(rng, (48, 64), 3, 0.01)
        x = rng.normal(size=(8, 64)).astype(np.float32)
        result = TiledKernel(tensor).matmul(x)
        reference = dequantize_matmul(x, tensor)
        assert result.dtype == np.float32
        # Relative to the output scale: the two paths sum in different
        # orders, so per-element relative error is unbounded under
        # cancellation, but the error relative to the result magnitude
        # must stay within float32 noise.
        scale = float(np.max(np.abs(reference)))
        assert float(np.max(np.abs(result - reference))) < 1e-6 * scale

    def test_matches_real_quantizer_output(self):
        rng = derive_rng(20260807, "kernel-real")
        weights = rng.normal(scale=0.05, size=(40, 56))
        tensor, _ = quantize_tensor(weights, bits=3)
        x = rng.normal(size=(3, 56))
        np.testing.assert_allclose(
            TiledKernel(tensor).matmul(x), dequantize_matmul(x, tensor),
            rtol=1e-12, atol=1e-12,
        )

    def test_all_outliers(self):
        """gaussian_count == 0: every weight is an FP32 correction."""
        rng = derive_rng(20260807, "kernel-all-out")
        tensor = make_tensor(rng, (6, 9), 3, 1.0)
        x = rng.normal(size=(2, 9))
        np.testing.assert_allclose(
            TiledKernel(tensor).matmul(x),
            dequantize_matmul(x, tensor),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_all_outliers_empty_table(self):
        """An all-outlier tensor may store no centroids at all."""
        rng = derive_rng(20260807, "kernel-all-out-empty")
        tensor = make_tensor(rng, (6, 9), 3, 1.0)
        bare = GoboQuantizedTensor(
            shape=tensor.shape,
            bits=tensor.bits,
            centroids=np.empty(0),
            packed_codes=b"",
            outlier_positions=tensor.outlier_positions,
            outlier_values=tensor.outlier_values,
        )
        x = rng.normal(size=(2, 9))
        np.testing.assert_array_equal(
            TiledKernel(bare).matmul(x), dequantize_matmul(x, tensor)
        )

    @given(
        rows=st.integers(min_value=0, max_value=12),
        cols=st.integers(min_value=0, max_value=12),
        batch=st.integers(min_value=1, max_value=4),
        bits=st.sampled_from(ALL_BITS),
        outlier_fraction=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_shapes(self, rows, cols, batch, bits,
                                    outlier_fraction, seed):
        """Property test: kernel ≡ dequantize for random shapes, every code
        width, outlier fractions 0 to 1, including empty tensors."""
        rng = np.random.default_rng(seed)
        tensor = make_tensor(rng, (rows, cols), bits, outlier_fraction)
        x = rng.normal(size=(batch, cols))
        np.testing.assert_allclose(
            TiledKernel(tensor).matmul(x),
            dequantize_matmul(x, tensor),
            rtol=1e-12,
            atol=1e-12,
        )


class TestShapes:
    def test_vector_input(self):
        rng = derive_rng(20260807, "kernel-vec")
        tensor = make_tensor(rng, (7, 11), 3, 0.1)
        x = rng.normal(size=11)
        result = TiledKernel(tensor).matmul(x)
        assert result.shape == (7,)
        np.testing.assert_allclose(result, dequantize_matmul(x, tensor), rtol=1e-12)

    def test_one_row(self):
        rng = derive_rng(20260807, "kernel-1row")
        tensor = make_tensor(rng, (11, 9), 3, 0.1, dyadic=True)
        x = exact_inputs(rng, (1, 9))
        result = TiledKernel(tensor).matmul(x)
        assert result.shape == (1, 11)
        np.testing.assert_array_equal(result, dequantize_matmul(x, tensor))

    def test_zero_rows(self):
        rng = derive_rng(20260807, "kernel-0row")
        tensor = make_tensor(rng, (11, 9), 3, 0.1)
        assert TiledKernel(tensor).matmul(np.empty((0, 9))).shape == (0, 11)

    def test_3d_batch(self):
        rng = derive_rng(20260807, "kernel-3d")
        tensor = make_tensor(rng, (10, 6), 4, 0.0)
        x = rng.normal(size=(2, 3, 6))
        result = TiledKernel(tensor).matmul(x)
        assert result.shape == (2, 3, 10)
        np.testing.assert_allclose(result, dequantize_matmul(x, tensor), rtol=1e-12)

    def test_empty_rows(self):
        rng = derive_rng(20260807, "kernel-empty-rows")
        tensor = make_tensor(rng, (0, 5), 3, 0.0)
        assert TiledKernel(tensor).matmul(rng.normal(size=(4, 5))).shape == (4, 0)

    def test_empty_cols(self):
        rng = derive_rng(20260807, "kernel-empty-cols")
        tensor = make_tensor(rng, (5, 0), 3, 0.0)
        result = TiledKernel(tensor).matmul(np.empty((4, 0)))
        assert result.shape == (4, 5)
        np.testing.assert_array_equal(result, np.zeros((4, 5)))

    def test_wrong_last_dim_rejected(self):
        rng = derive_rng(20260807, "kernel-baddim")
        tensor = make_tensor(rng, (5, 8), 3, 0.0)
        with pytest.raises(ShapeError, match="last dim 8"):
            TiledKernel(tensor).matmul(np.zeros((2, 9)))
        with pytest.raises(ShapeError, match="last dim 8"):
            dequantize_matmul(np.zeros((2, 9)), tensor)

    def test_code_past_table_rejected(self):
        """A code with no centroid (a malformed archive) fails at
        construction instead of decoding to a clipped neighbour."""
        rng = derive_rng(20260807, "kernel-bad-code")
        tensor = make_tensor(rng, (4, 5), 3, 0.0)
        short = GoboQuantizedTensor(
            shape=tensor.shape,
            bits=tensor.bits,
            centroids=tensor.centroids[:2],
            packed_codes=pack_bits(np.full(20, 7), 3),
            outlier_positions=tensor.outlier_positions,
            outlier_values=tensor.outlier_values,
        )
        with pytest.raises(QuantizationError, match="centroid table"):
            TiledKernel(short)

    def test_non_2d_tensor_rejected(self):
        rng = derive_rng(20260807, "kernel-1d")
        tensor = make_tensor(rng, (4, 5), 3, 0.0)
        flat = GoboQuantizedTensor(
            shape=(20,),
            bits=tensor.bits,
            centroids=tensor.centroids,
            packed_codes=tensor.packed_codes,
            outlier_positions=tensor.outlier_positions,
            outlier_values=tensor.outlier_values,
        )
        with pytest.raises(ShapeError, match="2-D"):
            TiledKernel(flat)
        with pytest.raises(ShapeError, match="2-D"):
            dequantize_matmul(np.zeros(20), flat)


class TestChunking:
    """Row tiling: the decode budget splits ``W`` into row tiles; results
    must not depend on where the tile boundaries fall."""

    def test_chunked_batch_matches_unchunked(self, monkeypatch):
        rng = derive_rng(20260807, "kernel-chunk")
        tensor = make_tensor(rng, (9, 14), 3, 0.05, dyadic=True)
        x = exact_inputs(rng, (17, 14))
        full = TiledKernel(tensor).matmul(x)
        monkeypatch.setattr(kernel_module, "_TILE_ELEMENTS", 14 * 2)
        tiled = TiledKernel(tensor)
        assert tiled.tile_rows == 2  # 9 rows: four full tiles + one row
        np.testing.assert_array_equal(full, tiled.matmul(x))

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 5, 17, 100])
    def test_outlier_correction_chunked(self, monkeypatch, chunk_rows):
        """Each tile overwrites only its own slice of the sorted outliers,
        so an outlier-heavy layer must give identical results at every
        tile size (including one row per tile and tiles > rows)."""
        rng = derive_rng(20260807, "kernel-chunk-out", chunk_rows)
        tensor = make_tensor(rng, (9, 14), 3, 0.4)  # outlier-heavy
        x = rng.normal(size=(17, 14))
        reference = dequantize_matmul(x, tensor)
        monkeypatch.setattr(kernel_module, "_TILE_ELEMENTS", 14 * chunk_rows)
        tiled = TiledKernel(tensor).matmul(x)
        np.testing.assert_allclose(tiled, reference, rtol=1e-12, atol=1e-12)

    def test_outlier_temporary_is_chunk_bounded(self, monkeypatch):
        """The decode scratch sees only one tile of ``W`` rows at a time,
        however many activation rows the call carries."""
        rng = derive_rng(20260807, "kernel-chunk-bound")
        tensor = make_tensor(rng, (6, 8), 3, 0.5)
        monkeypatch.setattr(kernel_module, "_TILE_ELEMENTS", 8 * 2)
        kernel = TiledKernel(tensor)

        decoded_rows = []

        class NpProxy:
            @staticmethod
            def take(table, codes, **kwargs):
                decoded_rows.append(codes.shape[0])
                return np.take(table, codes, **kwargs)

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(kernel_module, "np", NpProxy())
        kernel.matmul(rng.normal(size=(11, 8)))
        assert decoded_rows == [2, 2, 2]

    @pytest.mark.parametrize("bits", [3, 8, 16])
    def test_outliers_straddling_a_tile_boundary(self, monkeypatch, bits):
        """Outliers on both sides of every boundary, with ``out_features``
        not a multiple of the tile rows: bit-exact on dyadic inputs."""
        rng = derive_rng(20260807, "kernel-straddle", bits)
        rows, cols, tile = 13, 17, 4
        boundaries = np.arange(tile, rows, tile) * cols
        positions = np.unique(np.concatenate(
            [boundaries - 2, boundaries - 1, boundaries, boundaries + 1, [0, rows * cols - 1]]
        ))
        tensor = make_tensor(rng, (rows, cols), bits, 0.0, dyadic=True,
                             positions=positions)
        monkeypatch.setattr(kernel_module, "_TILE_ELEMENTS", cols * tile)
        kernel = TiledKernel(tensor)
        assert kernel.tile_rows == tile and rows % tile
        for shape in [(1, cols), (5, cols), (2, 3, cols)]:
            x = exact_inputs(rng, shape)
            np.testing.assert_array_equal(kernel.matmul(x), dequantize_matmul(x, tensor))

    def test_unsorted_outlier_positions(self):
        """Outlier order in the tensor does not matter: the kernel sorts
        positions (with their values) once at construction."""
        rng = derive_rng(20260807, "kernel-unsorted")
        tensor = make_tensor(rng, (9, 14), 4, 0.2, dyadic=True)
        order = rng.permutation(tensor.outlier_count)
        shuffled = GoboQuantizedTensor(
            shape=tensor.shape,
            bits=tensor.bits,
            centroids=tensor.centroids,
            packed_codes=tensor.packed_codes,
            outlier_positions=tensor.outlier_positions[order],
            outlier_values=tensor.outlier_values[order],
        )
        x = exact_inputs(rng, (3, 14))
        np.testing.assert_array_equal(
            TiledKernel(shuffled).matmul(x), dequantize_matmul(x, tensor)
        )


class TestResidentState:
    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_code_dtype(self, bits):
        rng = derive_rng(20260807, "kernel-dtype", bits)
        kernel = TiledKernel(make_tensor(rng, (5, 7), bits, 0.1))
        assert kernel.codes.shape == (5, 7)
        assert kernel.codes.dtype == (np.uint8 if bits <= 8 else np.uint16)

    def test_about_one_byte_per_weight(self):
        rng = derive_rng(20260807, "kernel-resident")
        weights = rng.normal(scale=0.05, size=(96, 128))
        tensor, _ = quantize_tensor(weights, bits=3)
        kernel = TiledKernel(tensor)
        per_weight = kernel.prepared_nbytes / tensor.total_count
        assert 1.0 <= per_weight <= 1.1

    def test_concurrent_forwards_agree(self):
        """No per-kernel scratch: threads sharing one kernel see their own
        results."""
        from concurrent.futures import ThreadPoolExecutor

        rng = derive_rng(20260807, "kernel-threads")
        tensor = make_tensor(rng, (40, 24), 3, 0.05)
        kernel = TiledKernel(tensor)
        inputs = [rng.normal(size=(6, 24)) for _ in range(8)]
        expected = [dequantize_matmul(x, tensor) for x in inputs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(kernel.matmul, inputs * 4))
        for index, result in enumerate(results):
            np.testing.assert_allclose(result, expected[index % 8], rtol=1e-12, atol=1e-12)


class TestObservability:
    def test_no_dequantize_on_lookup_path(self):
        """The whole point: the kernel never calls dequantize() — it decodes
        tiles from its resident codes."""
        from repro import obs

        rng = derive_rng(20260807, "kernel-obs")
        tensor = make_tensor(rng, (12, 15), 3, 0.1)
        kernel = TiledKernel(tensor)
        x = rng.normal(size=(2, 15))
        with obs.scope() as trace:
            kernel.matmul(x)
        names = [event["name"] for event in trace.events]
        assert "quantizer.dequantize_calls" not in names
        assert "kernels.matmul_calls" in names
        rows = [e["value"] for e in trace.events if e["name"] == "kernels.matmul_rows"]
        assert rows == [2]

    def test_dequantize_baseline_counts(self):
        from repro import obs

        rng = derive_rng(20260807, "kernel-obs2")
        tensor = make_tensor(rng, (12, 15), 3, 0.1)
        with obs.scope() as trace:
            dequantize_matmul(rng.normal(size=(2, 15)), tensor)
        names = [event["name"] for event in trace.events]
        assert "quantizer.dequantize_calls" in names

    def test_prepared_nbytes_positive(self):
        rng = derive_rng(20260807, "kernel-bytes")
        tensor = make_tensor(rng, (12, 15), 3, 0.1)
        assert TiledKernel(tensor).prepared_nbytes > 0
