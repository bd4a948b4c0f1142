#!/usr/bin/env python
"""Schema-check a BENCH_*.json record and enforce its perf gate.

Usage::

    python scripts/check_bench.py benchmarks/results/BENCH_kernels.json
    python scripts/check_bench.py benchmarks/results/BENCH_serve.json

The record's ``schema`` field selects the contract:

* ``bench-kernels/v2`` — the resident-code kernel at the bert-base FC
  shapes (768x768, 3072x768, 768x3072) and the row counts a served forward
  runs (1, 32, 128), medians over repeats; every measurement present,
  positive and finite.  Fails (exit 1) if the kernel is slower than the
  decode-per-call ``dequantize_matmul`` baseline at any shape and row
  count, or slower than 4.0x dense BLAS at 128 rows.
* ``bench-serve/v2`` — serving-layer numbers: p50/p95/p99 latency of
  sequential requests at each configured length, in-process through the
  micro-batcher and as keep-alive HTTP round trips to a real server.
  Fails if HTTP p50 exceeds in-process p50 by 20 ms or more at any length
  (a Nagle / delayed-ACK stall adds >= 40 ms per response), if the
  micro-batcher never fused concurrent requests (max batch size 1), or
  if it fused beyond its configured bound.  Absolute latencies and
  request rates are recorded, not gated — they are hardware-dependent.
* ``bench-jobs/v1`` — thread pool vs supervised process fleet; always
  fails unless the two backends produced byte-identical quantized tensors
  (crash isolation must be free in output).  The
  ``speedup_process_vs_thread >= 1.0`` gate applies only to non-smoke
  records from multi-core hosts — on one CPU the fleet's fork+IPC
  overhead is unamortizable and the honest number is below 1.
* ``bench-methods/v1`` — the method zoo: one entry per registered spec
  (at least 8).  Fails if any spec's archives differ across worker counts,
  if a timing/ratio is non-positive or non-finite, or if the full-scale
  compression ordering flips (GOBO 3-bit > Q-BERT 3-bit > Q8BERT).
  Measured tiny-model CRs are recorded but not gated (centroid-table
  overhead dominates tiny tensors).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

SCHEMA = "bench-kernels/v2"
SERVE_SCHEMA = "bench-serve/v2"
JOBS_SCHEMA = "bench-jobs/v1"
METHODS_SCHEMA = "bench-methods/v1"
GATE_SPEEDUP_VS_DEQUANTIZE = 1.0
GATE_VS_DENSE_ROWS = "128"
GATE_VS_DENSE = 4.0
GATE_SPEEDUP_FLEET = 1.0
GATE_HTTP_OVERHEAD_MS = 20.0

REQUIRED_MEASUREMENTS = ("unpack_seconds", "unpack_values_per_second")
REQUIRED_ROW_MEASUREMENTS = (
    "kernel_seconds",
    "dequantize_seconds",
    "dense_seconds",
    "speedup_vs_dequantize",
    "kernel_vs_dense",
)
REQUIRED_LAZY = (
    "archive_bytes",
    "lazy_load_seconds",
    "eager_load_seconds",
    "bytes_touched_at_load",
    "bytes_touched_first_layer",
)
REQUIRED_CONFIG = ("shapes", "rows", "bits", "repeats")

REQUIRED_SERVE_MEASUREMENTS = (
    "concurrent_wall_seconds",
    "concurrent_requests_per_second",
    "mean_batch_size",
    "max_batch_size",
    "reload_seconds",
)
REQUIRED_SERVE_CONFIG = (
    "model", "seq_lens", "sequential_requests", "clients",
    "requests_per_client", "batch_window_ms", "max_batch",
)
SERVE_PATHS = ("inprocess", "http")
PERCENTILES = ("p50", "p95", "p99")

REQUIRED_JOBS_MEASUREMENTS = (
    "thread_seconds",
    "process_seconds",
    "speedup_process_vs_thread",
    "thread_layers_per_second",
    "process_layers_per_second",
)
REQUIRED_JOBS_CONFIG = ("layers", "shape", "workers", "repeats", "cpu_count")

REQUIRED_METHODS_SPEC_MEASUREMENTS = (
    "seconds",
    "compression_ratio",
    "full_scale_compression_ratio",
    "rmse",
)
REQUIRED_METHODS_CONFIG = (
    "model", "full_scale_model", "specs", "workers", "repeats", "cpu_count",
)
MIN_METHOD_SPECS = 8


def fail(message: str) -> None:
    print(f"check_bench: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def positive_number(record: dict, key: str, context: str) -> float:
    value = record.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"{context}.{key} missing or not a number: {value!r}")
    if not math.isfinite(value) or value <= 0:
        fail(f"{context}.{key} must be finite and positive, got {value!r}")
    return float(value)


def check(path: Path) -> int:
    try:
        record = json.loads(path.read_text())
    except FileNotFoundError:
        fail(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        fail(f"{path} is not valid JSON: {exc}")

    schema = record.get("schema")
    if schema == SERVE_SCHEMA:
        return check_serve(record, path)
    if schema == JOBS_SCHEMA:
        return check_jobs(record, path)
    if schema == METHODS_SCHEMA:
        return check_methods(record, path)
    if schema != SCHEMA:
        fail(f"schema mismatch: expected {SCHEMA!r}, {SERVE_SCHEMA!r}, "
             f"{JOBS_SCHEMA!r} or {METHODS_SCHEMA!r}, got {schema!r}")
    if not isinstance(record.get("smoke"), bool):
        fail("missing boolean 'smoke' field")
    config = record.get("config")
    if not isinstance(config, dict):
        fail("missing 'config' object")
    for key in REQUIRED_CONFIG:
        if key not in config:
            fail(f"config.{key} missing")

    measurements = record.get("measurements")
    if not isinstance(measurements, dict):
        fail("missing 'measurements' object")
    for key in REQUIRED_MEASUREMENTS:
        positive_number(measurements, key, "measurements")
    lazy = measurements.get("lazy_load")
    if not isinstance(lazy, dict):
        fail("measurements.lazy_load missing")
    for key in REQUIRED_LAZY:
        positive_number(lazy, key, "measurements.lazy_load")

    if lazy["bytes_touched_at_load"] >= lazy["archive_bytes"]:
        fail(
            "lazy load touched the whole archive "
            f"({lazy['bytes_touched_at_load']} of {lazy['archive_bytes']} bytes)"
        )

    shapes = measurements.get("shapes")
    if not isinstance(shapes, dict):
        fail("measurements.shapes missing")
    worst_speedup, worst_dense = math.inf, 0.0
    for out, inp in config["shapes"]:
        shape = f"{out}x{inp}"
        entry = shapes.get(shape)
        if not isinstance(entry, dict) or not isinstance(entry.get("rows"), dict):
            fail(f"measurements.shapes.{shape} missing or has no rows")
        context = f"measurements.shapes.{shape}"
        positive_number(entry, "resident_bytes_per_weight", context)
        for rows in config["rows"]:
            row = entry["rows"].get(str(rows))
            if not isinstance(row, dict):
                fail(f"{context}.rows.{rows} missing")
            for key in REQUIRED_ROW_MEASUREMENTS:
                positive_number(row, key, f"{context}.rows.{rows}")
            speedup = row["speedup_vs_dequantize"]
            worst_speedup = min(worst_speedup, speedup)
            if speedup < GATE_SPEEDUP_VS_DEQUANTIZE:
                fail(f"kernel below {GATE_SPEEDUP_VS_DEQUANTIZE:.1f}x the "
                     f"dequantize baseline at {shape}, {rows} rows: {speedup:.3f}x")
        dense = entry["rows"].get(GATE_VS_DENSE_ROWS)
        if dense is None:
            fail(f"{context} has no {GATE_VS_DENSE_ROWS}-row measurement to gate")
        worst_dense = max(worst_dense, dense["kernel_vs_dense"])
        if dense["kernel_vs_dense"] > GATE_VS_DENSE:
            fail(f"kernel slower than {GATE_VS_DENSE:.1f}x dense BLAS at {shape}, "
                 f"{GATE_VS_DENSE_ROWS} rows: {dense['kernel_vs_dense']:.3f}x")
    print(
        f"check_bench: OK: {path} ({len(config['shapes'])} shapes x rows "
        f"{config['rows']}, smoke={record['smoke']}) — worst "
        f"{worst_speedup:.2f}x dequantize, worst {worst_dense:.2f}x dense at "
        f"{GATE_VS_DENSE_ROWS} rows, unpack "
        f"{measurements['unpack_values_per_second'] / 1e6:.0f}M values/s, "
        f"lazy load touched {lazy['bytes_touched_at_load']} of "
        f"{lazy['archive_bytes']} archive bytes"
    )
    return 0


def check_serve(record: dict, path: Path) -> int:
    if not isinstance(record.get("smoke"), bool):
        fail("missing boolean 'smoke' field")
    config = record.get("config")
    if not isinstance(config, dict):
        fail("missing 'config' object")
    for key in REQUIRED_SERVE_CONFIG:
        if key not in config:
            fail(f"config.{key} missing")
    measurements = record.get("measurements")
    if not isinstance(measurements, dict):
        fail("missing 'measurements' object")
    for key in REQUIRED_SERVE_MEASUREMENTS:
        positive_number(measurements, key, "measurements")

    latency = measurements.get("latency_ms")
    if not isinstance(latency, dict) or not config["seq_lens"]:
        fail("measurements.latency_ms missing or config.seq_lens empty")
    worst_overhead = -math.inf
    for tokens in config["seq_lens"]:
        entry = latency.get(str(tokens))
        context = f"measurements.latency_ms.{tokens}"
        if not isinstance(entry, dict):
            fail(f"{context} missing")
        for route in SERVE_PATHS:
            stats = entry.get(route)
            if not isinstance(stats, dict):
                fail(f"{context}.{route} missing")
            for key in PERCENTILES:
                positive_number(stats, key, f"{context}.{route}")
            if not stats["p50"] <= stats["p95"] <= stats["p99"]:
                fail(f"{context}.{route} percentiles out of order: {stats}")
        overhead = entry["http"]["p50"] - entry["inprocess"]["p50"]
        worst_overhead = max(worst_overhead, overhead)
        if overhead >= GATE_HTTP_OVERHEAD_MS:
            fail(f"HTTP p50 exceeds in-process p50 by {overhead:.1f}ms at "
                 f"{tokens} tokens (gate < {GATE_HTTP_OVERHEAD_MS:g}ms): the "
                 "HTTP front is stalling responses")

    mean_batch = measurements["mean_batch_size"]
    max_batch = measurements["max_batch_size"]
    if max_batch <= 1:
        fail("micro-batcher never fused concurrent requests "
             f"(max batch size {max_batch:g})")
    if max_batch > config["max_batch"]:
        fail(f"recorded max batch {max_batch:g} exceeds the configured "
             f"bound {config['max_batch']}")
    if mean_batch > max_batch:
        fail(f"mean batch {mean_batch:g} exceeds max batch {max_batch:g}")
    p50s = ", ".join(
        f"{tokens} tokens {latency[str(tokens)]['inprocess']['p50']:.1f}/"
        f"{latency[str(tokens)]['http']['p50']:.1f}ms"
        for tokens in config["seq_lens"]
    )
    print(
        f"check_bench: OK: {path} ({config['model']}, smoke={record['smoke']}) — "
        f"p50 in-process/HTTP {p50s} (worst HTTP overhead "
        f"{worst_overhead:.1f}ms, gate < {GATE_HTTP_OVERHEAD_MS:g}ms); "
        f"{measurements['concurrent_requests_per_second']:.0f} req/s across "
        f"{config['clients']} clients, mean batch {mean_batch:.2f} "
        f"(max {max_batch:g}), reload "
        f"{measurements['reload_seconds'] * 1000:.0f}ms"
    )
    return 0


def check_jobs(record: dict, path: Path) -> int:
    if not isinstance(record.get("smoke"), bool):
        fail("missing boolean 'smoke' field")
    config = record.get("config")
    if not isinstance(config, dict):
        fail("missing 'config' object")
    for key in REQUIRED_JOBS_CONFIG:
        if key not in config:
            fail(f"config.{key} missing")
    measurements = record.get("measurements")
    if not isinstance(measurements, dict):
        fail("missing 'measurements' object")
    for key in REQUIRED_JOBS_MEASUREMENTS:
        positive_number(measurements, key, "measurements")

    if measurements.get("byte_identical") is not True:
        fail("process backend was not byte-identical to the thread backend")

    speedup = measurements["speedup_process_vs_thread"]
    cpus = config["cpu_count"]
    gated = not record["smoke"] and isinstance(cpus, int) and cpus >= 2
    if gated and speedup < GATE_SPEEDUP_FLEET:
        fail(
            f"process fleet below {GATE_SPEEDUP_FLEET:.1f}x the thread pool "
            f"at {config['workers']} workers on {cpus} CPUs: {speedup:.3f}x"
        )
    shape = "x".join(str(d) for d in config["shape"])
    note = "gated" if gated else (
        f"gate waived: {'smoke record' if record['smoke'] else 'single CPU'}"
    )
    print(
        f"check_bench: OK: {path} ({config['layers']}x{shape}, "
        f"smoke={record['smoke']}) — thread "
        f"{measurements['thread_seconds'] * 1000:.0f}ms, process "
        f"{measurements['process_seconds'] * 1000:.0f}ms "
        f"({speedup:.2f}x, {note}), byte-identical"
    )
    return 0


def check_methods(record: dict, path: Path) -> int:
    if not isinstance(record.get("smoke"), bool):
        fail("missing boolean 'smoke' field")
    config = record.get("config")
    if not isinstance(config, dict):
        fail("missing 'config' object")
    for key in REQUIRED_METHODS_CONFIG:
        if key not in config:
            fail(f"config.{key} missing")
    measurements = record.get("measurements")
    if not isinstance(measurements, dict):
        fail("missing 'measurements' object")
    specs = measurements.get("specs")
    if not isinstance(specs, dict):
        fail("measurements.specs missing")
    if len(specs) < MIN_METHOD_SPECS:
        fail(f"only {len(specs)} method specs recorded; the zoo needs at "
             f"least {MIN_METHOD_SPECS}")
    if set(specs) != set(config["specs"]):
        fail("measurements.specs does not match config.specs")
    for spec, row in specs.items():
        if not isinstance(row, dict):
            fail(f"measurements.specs.{spec} is not an object")
        for key in REQUIRED_METHODS_SPEC_MEASUREMENTS:
            if key == "rmse":
                value = row.get(key)
                ok = (isinstance(value, (int, float))
                      and not isinstance(value, bool)
                      and math.isfinite(value) and value >= 0)
                if not ok:
                    fail(f"measurements.specs.{spec}.rmse must be finite and "
                         f"non-negative, got {value!r}")
            else:
                positive_number(row, key, f"measurements.specs.{spec}")
        if row.get("byte_identical") is not True:
            fail(f"{spec} archives were not byte-identical across worker counts")

    def full_scale(spec: str) -> float:
        if spec not in specs:
            fail(f"ordering gate needs spec {spec!r} in the record")
        return specs[spec]["full_scale_compression_ratio"]

    if not full_scale("gobo-3bit") > full_scale("qbert-3bit") > full_scale("q8bert"):
        fail("full-scale compression ordering flipped: expected "
             "gobo-3bit > qbert-3bit > q8bert, got "
             f"{full_scale('gobo-3bit'):.2f} / {full_scale('qbert-3bit'):.2f} "
             f"/ {full_scale('q8bert'):.2f}")
    slowest = max(specs, key=lambda spec: specs[spec]["seconds"])
    print(
        f"check_bench: OK: {path} ({config['model']}, smoke={record['smoke']}) — "
        f"{len(specs)} specs byte-identical across workers {config['workers']}, "
        f"full-scale CR {full_scale('gobo-3bit'):.2f}x (gobo-3bit) > "
        f"{full_scale('qbert-3bit'):.2f}x (qbert-3bit) > "
        f"{full_scale('q8bert'):.2f}x (q8bert), slowest {slowest} "
        f"{specs[slowest]['seconds'] * 1000:.0f}ms"
    )
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return check(Path(argv[1]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
