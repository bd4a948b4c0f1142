"""Compute on the compressed representation: resident codes, tiled decode.

GOBO's inference story (paper Sections V-VI) never stores weights as FP32:
the accelerator streams ``bits``-wide centroid codes and decodes them
through a tiny table in front of the MACs.  This package reproduces that in
software:

* :class:`TiledKernel` — one quantized 2-D tensor held as a resident
  ``uint8``/``uint16`` code matrix (about one byte per weight), decoded one
  bounded row tile at a time by a centroid-table lookup straight into BLAS
  (``x @ W.T`` without materializing ``W``),
* :func:`dequantize_matmul` — the decode-per-call baseline the perf gate
  (``BENCH_kernels.json``) compares against.

:class:`repro.nn.QuantizedLinear` routes a ``Linear`` forward through
:class:`TiledKernel`, and ``load_quantized_model(..., lazy=True)`` feeds
these kernels straight from a memory-mapped archive.
"""

from repro.kernels.lookup import TiledKernel, dequantize_matmul

__all__ = [
    "TiledKernel",
    "dequantize_matmul",
]
