"""Matmul kernels that serve straight from resident centroid codes.

GOBO's accelerator (paper Section V) streams each ``bits``-wide weight code
once and decodes it through a tiny centroid table in front of the MACs;
Q8BERT deploys the same way, integer codes plus a scale feeding an ordinary
GEMM.  :class:`TiledKernel` is the software form of that pipeline for
``y = x @ W.T``:

* **Resident state** — one code matrix of shape ``(out, in)``, ``uint8``
  when ``bits <= 8`` and ``uint16`` otherwise, plus the sorted outlier
  positions and values and the centroid table: about one byte per weight.
  Outlier slots hold code 0, so no sentinel is needed and 8-bit tables
  still fit in ``uint8``.
* **Tiled decode** — per call, a tile of rows of ``W`` is decoded with one
  table lookup (``np.take(table, codes[r0:r1])``), the tile's outliers
  (a contiguous slice of the sorted positions, found once at construction)
  are written over it, and BLAS computes ``y[:, r0:r1]``.  Tile rows come
  from a fixed element budget, so the per-call scratch is bounded by the
  budget rather than by the weight matrix.

The kernel holds no mutable scratch, so concurrent forwards over one kernel
are safe.  GOBO's per-centroid accumulation inside the PE is not emulated
here: its cost is modelled analytically (:mod:`repro.hw.latency`,
:mod:`repro.memory.traffic`), and in NumPy a decode into BLAS is faster at
every realistic row count.

:func:`dequantize_matmul` is the decode-per-call baseline the benchmarks
and the CI perf gate compare against: decode the whole tensor (bit-unpack,
outlier scatter, centroid gather) on every call, then BLAS.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.quantizer import GoboQuantizedTensor
from repro.errors import QuantizationError, ShapeError
from repro.obs import recorder as obs

#: Decode budget per tile (elements of ``W``); bounds the per-call scratch.
_TILE_ELEMENTS = 1 << 18


def _compute_dtype(x: np.ndarray) -> np.dtype:
    """float32 stays float32 (the paper's decode target); everything else
    is promoted to the substrate's float64."""
    if x.dtype == np.float32:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _check_input(x: np.ndarray, in_features: int, who: str) -> None:
    if x.ndim == 0 or x.shape[-1] != in_features:
        raise ShapeError(
            f"{who} expected last dim {in_features}, got input shape {x.shape}"
        )


class TiledKernel:
    """Resident codes + tiled table decode + BLAS for one 2-D quantized tensor.

    Parameters
    ----------
    tensor:
        A :class:`~repro.core.quantizer.GoboQuantizedTensor` of 2-D shape
        ``(out_features, in_features)`` — the HuggingFace FC convention, so
        :meth:`matmul` computes ``x @ W.T`` exactly like
        :class:`repro.nn.Linear`.
    """

    def __init__(self, tensor: GoboQuantizedTensor) -> None:
        if len(tensor.shape) != 2:
            raise ShapeError(
                f"TiledKernel requires a 2-D weight tensor, got shape {tensor.shape}"
            )
        self.out_features, self.in_features = tensor.shape
        self.bits = tensor.bits

        with obs.span(
            "kernels.prepare", rows=self.out_features, cols=self.in_features,
            bits=self.bits,
        ):
            order = np.argsort(tensor.outlier_positions, kind="stable")
            self.outlier_positions = np.asarray(
                tensor.outlier_positions, dtype=np.int64)[order]
            self.outlier_values = np.asarray(
                tensor.outlier_values, dtype=np.float64)[order]
            # An all-outlier tensor may carry an empty table; code 0 must
            # still decode (its slots are overwritten by the outliers).
            centroids = np.asarray(tensor.centroids, dtype=np.float64)
            self.centroids = centroids if centroids.size else np.zeros(1)
            codes = np.zeros(tensor.total_count,
                             dtype=np.uint8 if self.bits <= 8 else np.uint16)
            if tensor.gaussian_count:
                inlier_codes = tensor.codes()
                # matmul decodes with mode="clip" (no per-call bounds
                # check), so a code past the table is rejected here.
                if inlier_codes.max() >= centroids.size:
                    raise QuantizationError(
                        f"code {int(inlier_codes.max())} outside the "
                        f"{centroids.size}-entry centroid table"
                    )
                inliers = np.ones(tensor.total_count, dtype=bool)
                inliers[self.outlier_positions] = False
                codes[inliers] = inlier_codes
            self.codes = codes.reshape(tensor.shape)

            self.tile_rows = max(1, _TILE_ELEMENTS // max(self.in_features, 1))
            starts = np.arange(0, self.out_features, self.tile_rows)
            #: Tile ``t``'s outliers are ``outlier_positions[b[t]:b[t + 1]]``.
            self._outlier_bounds = np.searchsorted(
                self.outlier_positions,
                np.append(starts, self.out_features) * self.in_features,
            )

        obs.counter("kernels.prepared")
        obs.counter("kernels.prepared_bytes", self.prepared_nbytes)

    # ------------------------------------------------------------------ sizes
    @property
    def prepared_nbytes(self) -> int:
        """Resident bytes of the kernel state: codes, outliers and table."""
        return int(
            self.codes.nbytes
            + self.outlier_positions.nbytes
            + self.outlier_values.nbytes
            + self.centroids.nbytes
            + self._outlier_bounds.nbytes
        )

    # ----------------------------------------------------------------- compute
    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``x @ W.T`` for ``x`` of shape ``(..., in_features)``.

        Float32 inputs are computed in float32 (the paper's decode target),
        everything else in float64.  At most one tile of ``W`` is decoded
        at a time; the full floating-point weight matrix is never built.
        """
        x = np.asarray(x)
        _check_input(x, self.in_features, "TiledKernel")
        dtype = _compute_dtype(x)
        lead = x.shape[:-1]
        rows = math.prod(lead)
        x2 = np.ascontiguousarray(x.reshape(rows, self.in_features), dtype=dtype)
        y = np.empty((rows, self.out_features), dtype=dtype)

        table = self.centroids.astype(dtype, copy=False)
        values = self.outlier_values.astype(dtype, copy=False)
        scratch = np.empty(
            (min(self.tile_rows, self.out_features), self.in_features), dtype=dtype
        )
        bounds = self._outlier_bounds
        for tile, r0 in enumerate(range(0, self.out_features, self.tile_rows)):
            r1 = min(r0 + self.tile_rows, self.out_features)
            w = np.take(table, self.codes[r0:r1], out=scratch[: r1 - r0],
                        mode="clip")
            lo, hi = bounds[tile], bounds[tile + 1]
            if hi > lo:
                w.reshape(-1)[
                    self.outlier_positions[lo:hi] - r0 * self.in_features
                ] = values[lo:hi]
            np.matmul(x2, w.T, out=y[:, r0:r1])

        obs.counter("kernels.matmul_calls")
        obs.counter("kernels.matmul_rows", rows)
        return y.reshape(*lead, self.out_features)

    __call__ = matmul


def dequantize_matmul(x: np.ndarray, tensor: GoboQuantizedTensor) -> np.ndarray:
    """The decode-per-call baseline: reconstruct ``W`` in floating point,
    then ``x @ W.T`` via BLAS.

    This is what serving from a compressed archive costs without resident
    codes, and the denominator of the kernel speedup the
    ``BENCH_kernels.json`` gate enforces.
    """
    x = np.asarray(x)
    if len(tensor.shape) != 2:
        raise ShapeError(
            f"dequantize_matmul requires a 2-D weight tensor, got shape {tensor.shape}"
        )
    _check_input(x, tensor.shape[1], "dequantize_matmul")
    dtype = _compute_dtype(x)
    weights = tensor.dequantize(dtype=dtype)
    return x.astype(dtype, copy=False) @ weights.T
