"""Throughput benchmarks for GOBO's computational kernels.

These are proper multi-round pytest-benchmark measurements on realistic
layer sizes (a 768x768 BERT-Base attention FC), quantifying the paper's
"quantizing the model takes about 10 minutes on a single CPU core" claim at
our scale — plus the serving-side kernels: the resident-code
:class:`~repro.kernels.TiledKernel` vs the decode-per-call
``dequantize_matmul`` baseline and dense BLAS, bit-unpack throughput, and
lazy-load bytes-touched.

``test_record_bench_kernels_json`` writes ``BENCH_kernels.json``
(``bench-kernels/v2``) to ``benchmarks/results/`` with its own
``perf_counter`` timings (independent of pytest-benchmark, so it still
records under ``--benchmark-disable``, as the CI smoke job runs it).  It
measures the three bert-base FC shapes at the row counts a served forward
runs (rows = batch x sequence), takes medians over repeats interleaved
across the whole grid, and records each kernel's resident bytes per
weight.  ``scripts/check_bench.py``
schema-checks the file and gates kernel >= 1.0x ``dequantize_matmul`` at
every shape and row count, and kernel <= 4.0x dense BLAS at 128 rows; the
recorded baseline is committed at ``benchmarks/BENCH_kernels.json``.

In ``REPRO_BENCH_SMOKE`` mode the record keeps the real shapes, row counts
and repeats (it takes a few seconds); only the pytest-benchmark kernel
timings shrink to a 256x256 layer.
"""

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import _smoke_mode
from repro import obs
from repro.core.binning import assign_to_centroids, equal_population_centroids
from repro.core.clustering import gobo_cluster, kmeans_cluster
from repro.core.model_quantizer import quantize_model
from repro.core.outliers import OutlierDetector
from repro.core.quantizer import quantize_tensor
from repro.core.serialization import load_quantized_model, save_quantized_model
from repro.kernels import TiledKernel, dequantize_matmul
from repro.models import BertModel, get_config
from repro.models.zoo import SyntheticWeightSpec, synthetic_layer_weights
from repro.utils.bitpack import pack_bits, unpack_bits

#: pytest-benchmark kernel layer shape: a BERT-Base FC, or small in smoke mode.
KERNEL_SHAPE = (256, 256) if _smoke_mode() else (768, 768)
#: The recorded shapes: bert-base's attention/output, intermediate and
#: FFN-output FCs, as (out_features, in_features).
RECORD_SHAPES = ((768, 768), (3072, 768), (768, 3072))
#: Activation rows per call: one token, then batch x sequence of a served
#: forward.
RECORD_ROWS = (1, 32, 128)
#: Timed repeats for the perf_counter measurements (median-of-N).
REPEATS = 15


@pytest.fixture(scope="module")
def layer():
    return synthetic_layer_weights((768, 768), SyntheticWeightSpec(), rng=0)


@pytest.fixture(scope="module")
def gaussian_group(layer):
    split = OutlierDetector().split(layer)
    return split.gaussian_values(layer).astype(np.float64)


@pytest.fixture(scope="module")
def codes():
    """The shared 3-bit code array for the bitpack benchmarks."""
    return np.random.default_rng(0).integers(0, 8, size=768 * 768)


@pytest.fixture(scope="module")
def quantized_kernel_layer():
    weights = synthetic_layer_weights(KERNEL_SHAPE, SyntheticWeightSpec(), rng=1)
    tensor, _ = quantize_tensor(weights, bits=3)
    return tensor


def test_bench_outlier_detection(benchmark, layer):
    split = benchmark(lambda: OutlierDetector().split(layer))
    assert 0 < split.outlier_count < layer.size // 100


def test_bench_equal_population_init(benchmark, gaussian_group):
    centroids = benchmark(lambda: equal_population_centroids(gaussian_group, 8))
    assert centroids.size == 8


def test_bench_assignment(benchmark, gaussian_group):
    centroids = equal_population_centroids(gaussian_group, 8)
    assignment = benchmark(lambda: assign_to_centroids(gaussian_group, centroids))
    assert assignment.size == gaussian_group.size


def test_bench_gobo_cluster(benchmark, gaussian_group):
    result = benchmark(lambda: gobo_cluster(gaussian_group, 3))
    assert result.converged


def test_bench_kmeans_cluster_to_fixpoint(benchmark, gaussian_group):
    result = benchmark.pedantic(
        lambda: kmeans_cluster(gaussian_group, 3), rounds=3, iterations=1
    )
    assert result.converged


def test_bench_full_layer_quantization(benchmark, layer):
    quantized = benchmark.pedantic(
        lambda: quantize_tensor(layer, bits=3)[0], rounds=3, iterations=1
    )
    assert quantized.compression_ratio() > 9.0


def test_bench_dequantize(benchmark, layer):
    quantized, _ = quantize_tensor(layer, bits=3)
    restored = benchmark(quantized.dequantize)
    assert restored.shape == layer.shape


def test_bench_pack_bits(benchmark, codes):
    packed = benchmark(lambda: pack_bits(codes, 3))
    assert len(packed) == (codes.size * 3 + 7) // 8


def test_bench_unpack_bits(benchmark, codes):
    packed = pack_bits(codes, 3)
    unpacked = benchmark(lambda: unpack_bits(packed, 3, codes.size))
    assert unpacked.size == codes.size


# --------------------------------------------------------- serving kernels
def test_bench_kernel_matmul_rows32(benchmark, quantized_kernel_layer):
    kernel = TiledKernel(quantized_kernel_layer)
    x = np.random.default_rng(2).normal(size=(32, KERNEL_SHAPE[1]))
    y = benchmark(lambda: kernel.matmul(x))
    assert y.shape == (32, KERNEL_SHAPE[0])


def test_bench_dequantize_matmul_rows32(benchmark, quantized_kernel_layer):
    x = np.random.default_rng(2).normal(size=(32, KERNEL_SHAPE[1]))
    y = benchmark(lambda: dequantize_matmul(x, quantized_kernel_layer))
    assert y.shape == (32, KERNEL_SHAPE[0])


def _median_seconds(func, repeats=REPEATS):
    """Median wall time over ``repeats`` calls after one warm-up;
    independent of pytest-benchmark so the JSON baseline records even
    under --benchmark-disable."""
    func()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _measure_kernels(rng):
    """Kernel vs decode-per-call vs dense BLAS at every recorded shape and
    row count.

    Each round times every (shape, rows, contender) once, so the repeats of
    one measurement are spread over the whole run: a stretch of host
    contention (a BLAS call on a busy shared host can stall for several
    milliseconds) lands on a few repeats of every contender instead of on
    all repeats of one.
    """
    cases = []
    for shape in RECORD_SHAPES:
        weights = synthetic_layer_weights(shape, SyntheticWeightSpec(), rng=1)
        tensor, _ = quantize_tensor(weights, bits=3)
        kernel = TiledKernel(tensor)
        dense = tensor.dequantize(dtype=np.float64)
        for rows in RECORD_ROWS:
            x = rng.normal(size=(rows, shape[1]))
            cases.append((shape, rows, kernel, tensor, {
                "kernel_seconds": lambda k=kernel, x=x: k.matmul(x),
                "dequantize_seconds": lambda t=tensor, x=x: dequantize_matmul(x, t),
                "dense_seconds": lambda d=dense, x=x: x @ d.T,
            }))
    samples = [{name: [] for name in funcs} for *_, funcs in cases]
    for round_index in range(REPEATS + 1):  # round 0 warms up
        for (*_, funcs), times in zip(cases, samples):
            for name, func in funcs.items():
                start = time.perf_counter()
                func()
                if round_index:
                    times[name].append(time.perf_counter() - start)

    shapes = {}
    for (shape, rows, kernel, tensor, _), times in zip(cases, samples):
        entry = shapes.setdefault(f"{shape[0]}x{shape[1]}", {
            "resident_bytes_per_weight": kernel.prepared_nbytes / tensor.total_count,
            "rows": {},
        })
        row = {name: float(np.median(values)) for name, values in times.items()}
        row["speedup_vs_dequantize"] = row["dequantize_seconds"] / row["kernel_seconds"]
        row["kernel_vs_dense"] = row["kernel_seconds"] / row["dense_seconds"]
        entry["rows"][str(rows)] = row
    return shapes


def _measure_lazy_load(tmp_path):
    """Archive size vs bytes actually mapped by a lazy load + one layer."""
    model = BertModel(get_config("tiny-bert-base")).eval()
    qmodel = quantize_model(model, weight_bits=3, embedding_bits=4)
    path = tmp_path / "bench_lazy.npz"
    save_quantized_model(qmodel, path)
    archive_bytes = path.stat().st_size

    def mapped_bytes(trace):
        return int(
            sum(e["value"] for e in trace.events if e["name"] == "npzmap.bytes_mapped")
        )

    start = time.perf_counter()
    with obs.scope() as load_trace:
        lazy = load_quantized_model(path, lazy=True)
    load_seconds = time.perf_counter() - start
    with obs.scope() as layer_trace:
        lazy.quantized[lazy.fc_names[0]]
    start = time.perf_counter()
    load_quantized_model(path)
    eager_seconds = time.perf_counter() - start
    return {
        "archive_bytes": archive_bytes,
        "lazy_load_seconds": load_seconds,
        "eager_load_seconds": eager_seconds,
        "bytes_touched_at_load": mapped_bytes(load_trace),
        "bytes_touched_first_layer": mapped_bytes(layer_trace),
    }


def test_record_bench_kernels_json(results_dir, tmp_path):
    """Record the BENCH_kernels.json baseline (see module docstring)."""
    rng = np.random.default_rng(2)
    measurements = {"shapes": _measure_kernels(rng)}

    codes = rng.integers(0, 8, size=768 * 768)
    packed = pack_bits(codes, 3)
    unpack_seconds = _median_seconds(lambda: unpack_bits(packed, 3, codes.size))
    measurements["unpack_seconds"] = unpack_seconds
    measurements["unpack_values_per_second"] = codes.size / unpack_seconds
    measurements["lazy_load"] = _measure_lazy_load(tmp_path)

    record = {
        "schema": "bench-kernels/v2",
        "smoke": _smoke_mode(),
        "config": {
            "shapes": [list(shape) for shape in RECORD_SHAPES],
            "rows": list(RECORD_ROWS),
            "bits": 3,
            "repeats": REPEATS,
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "measurements": measurements,
    }
    out = results_dir / "BENCH_kernels.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("\n[written to benchmarks/results/BENCH_kernels.json]")
    for shape, entry in measurements["shapes"].items():
        for rows, row in entry["rows"].items():
            print(f"  {shape} rows {rows:>3}: {row['speedup_vs_dequantize']:.2f}x "
                  f"dequantize, {row['kernel_vs_dense']:.2f}x dense")

    # The CI gate proper is scripts/check_bench.py; assert the invariants
    # here too so a local run fails loudly if the kernel regresses.
    for shape, entry in measurements["shapes"].items():
        for rows, row in entry["rows"].items():
            assert row["speedup_vs_dequantize"] >= 1.0, (shape, rows, row)
        assert entry["rows"]["128"]["kernel_vs_dense"] <= 4.0, (shape, entry)


def test_bench_kernels_json_is_fresh(results_dir):
    """The recording test above must have produced a parseable file."""
    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("ordering not guaranteed under xdist")
    path = results_dir / "BENCH_kernels.json"
    assert path.exists(), "test_record_bench_kernels_json did not run first"
    record = json.loads(path.read_text())
    assert record["schema"] == "bench-kernels/v2"
