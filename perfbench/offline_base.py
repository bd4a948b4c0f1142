"""offline-base: quantize, save and register one bert-base-width encoder
layer, then run fixed batches through the registered model.

The layer keeps bert-base's FC shapes (hidden 768, intermediate 3072, 12
heads), so every kernel call is a real bert-base shape at >= 32 rows and the
lookup state is far larger than cache.  The vocabulary (2048) and positions
(128) are cut so that embedding clustering does not dominate quantization.
"""

from __future__ import annotations

import os
import time

import numpy as np

from perfbench import harness as h

#: (batch, sequence) shapes run in every pass, in this order.
BATCHES = ((1, 32), (4, 32), (1, 128))
#: A batch forward slower than this misses the SLO.
SLO_S = 30.0
#: Extra timed registers before the measured one and after the batches.
SETUP_SAMPLES_PER_POINT = 2
#: Kernel shapes and row counts reported as ``kernels.gflops.*``.
GFLOPS_SHAPES = ("768x768", "3072x768", "768x3072")
GFLOPS_ROWS = (32, 128)


def base_config():
    from repro.models import BERT_BASE

    return BERT_BASE.scaled("bert-base-1layer", num_layers=1, vocab_size=2048,
                            max_position=128)


def _gflops(tracer) -> dict:
    flops, seconds = {}, {}
    for span in tracer.named("kernels.matmul"):
        key = (span.attrs["shape"], span.attrs["rows"])
        out, inp = map(int, span.attrs["shape"].split("x"))
        flops[key] = flops.get(key, 0) + 2 * span.attrs["rows"] * out * inp
        seconds[key] = seconds.get(key, 0.0) + span.seconds
    return {key: flops[key] / seconds[key] / 1e9 for key in flops}


def _print_analytical(config, qmodel, gflops: dict) -> None:
    """Per FC shape: computed operation count and weight bytes, the repo's
    traffic and roofline models, and the measured rate beside them.

    Both models are linear in each layer's weight count, so the per-shape
    prediction is the model total apportioned by weight count.
    """
    from repro.hw import EDGE_NPU, SERVER_ACCELERATOR
    from repro.hw.latency import inference_latency
    from repro.memory.traffic import compressed_traffic
    from repro.models import fc_weight_count

    fc = [qmodel.quantized[name] for name in qmodel.fc_names]
    fc_bits = 8.0 * sum(t.storage().compressed_bytes for t in fc) / sum(
        t.total_count for t in fc)
    emb = [qmodel.quantized[name] for name in qmodel.embedding_names]
    emb_bits = 8.0 * sum(t.storage().compressed_bytes for t in emb) / sum(
        t.total_count for t in emb)
    total = fc_weight_count(config)
    print(f"analytical models (effective FC bits {fc_bits:.3f}; weight bytes "
          f"are computed from tensor sizes, not measured):")
    print(f"  {'shape':>9} {'rows':>4} {'GFLOP':>8} {'fp32 MB':>8} "
          f"{'gobo MB':>8} {'traffic MB':>10} {'edge ms':>8} {'server ms':>9} "
          f"{'meas GFLOP/s':>12}")
    seen = set()
    for name in qmodel.fc_names:
        tensor = qmodel.quantized[name]
        out, inp = tensor.shape
        shape = f"{out}x{inp}"
        if name == "pooler.weight" or shape in seen:
            continue
        seen.add(shape)
        share = out * inp / total
        for rows in GFLOPS_ROWS:
            traffic = compressed_traffic(config, fc_bits, emb_bits, rows)
            edge = inference_latency(config, EDGE_NPU, rows, fc_bits)
            server = inference_latency(config, SERVER_ACCELERATOR, rows, fc_bits)
            print(f"  {shape:>9} {rows:>4} {2 * rows * out * inp / 1e9:>8.4f} "
                  f"{out * inp * 4 / h.MB:>8.3f} "
                  f"{tensor.storage().compressed_bytes / h.MB:>8.3f} "
                  f"{traffic.weight_bytes * share / h.MB:>10.3f} "
                  f"{edge.latency_seconds * share * 1e3:>8.4f} "
                  f"{server.latency_seconds * share * 1e3:>9.5f} "
                  f"{gflops.get((shape, rows), float('nan')):>12.4f}")


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.models import build_model
    from repro.serve import ModelRegistry

    rng = np.random.default_rng(seed)
    config = base_config()
    tracer = h.Tracer() if trace else None
    span = tracer.span if trace else h.no_span
    path = h.WORK / f"offline-base-{os.getpid()}.npz"

    network = build_model(config, task="encoder", rng=seed)
    with span("core.quantize_and_save"):
        qmodel, quantize_s, save_s = h.quantize_and_save(
            network, path, os.cpu_count())
    del network
    h.check_archive(path)
    batches = [rng.integers(0, config.vocab_size, size=shape) for shape in BATCHES]
    dense = h.dense_model(path, config)
    references, dense_s = [], []
    for ids in batches:
        start = time.perf_counter()
        references.append(h.pooled(dense, ids))
        dense_s.append(time.perf_counter() - start)
    del dense

    setup_s = []

    def sample_setup():
        for _ in range(SETUP_SAMPLES_PER_POINT):
            scratch = ModelRegistry()
            start = time.perf_counter()
            scratch.register("bench", path, config=config)
            setup_s.append(time.perf_counter() - start)
            scratch.close()

    sample_setup()
    h.reset_peak()
    rss0 = h.proc_mb("VmRSS")
    registry = ModelRegistry()
    start = time.perf_counter()
    with span("serve.registry.register"):
        registry.register("bench", path, config=config)
    setup_s.append(time.perf_counter() - start)
    resident_mb = h.proc_mb("VmRSS") - rss0
    setup_peak_mb = h.proc_mb("VmHWM") - rss0
    served = registry.get("bench").model
    if trace:
        h.instrument_model(tracer, served)

    phase = h.Phase("batches")
    forward_s = []
    tokens = sequences = within_slo = 0
    loop_start = time.perf_counter()
    while True:
        for index, ids in enumerate(batches):
            start = time.perf_counter()
            out = h.pooled(served, ids)
            took = time.perf_counter() - start
            error = h.max_error(out, references[index])
            phase.record("ok", error)
            forward_s.append(took)
            tokens += ids.size
            sequences += ids.shape[0]
            within_slo += error <= h.TOLERANCE and took <= SLO_S
        elapsed = time.perf_counter() - loop_start
        per_pass = elapsed * len(batches) / len(forward_s)
        if elapsed + per_pass > seconds:
            break
    loop_s = time.perf_counter() - loop_start
    peak_mb = h.proc_mb("VmHWM") - rss0
    busy = sum(forward_s)
    # One latency per batch shape (its median over passes), so the
    # percentiles do not shift with the number of passes that fit.
    latencies = [h.median(forward_s[i::len(batches)]) * 1000.0
                 for i in range(len(batches))]
    print(f"offline-base: {len(forward_s) // len(batches)} pass(es) over "
          f"batches {BATCHES}; forward {busy:.2f}s of {loop_s:.2f}s")

    end_to_end = {
        "setup_s": None,  # set once the later samples are in
        "latency_p50_ms": h.pct(latencies, 50),
        "latency_p95_ms": h.pct(latencies, 95),
        "latency_p99_ms": h.pct(latencies, 99),
        "slo_share": within_slo / len(forward_s),
        "saturated_rps": sequences / busy,
        "throughput_rps": sequences / busy,
        "tokens_per_s": tokens / busy,
        "quantize_s": quantize_s + save_s,
        "archive_mb": path.stat().st_size / h.MB,
        "resident_mb": resident_mb,
        "peak_mb": peak_mb,
    }
    per_layer = h.empty_per_layer()
    per_layer.update(h.core_metrics(qmodel, save_s))
    per_layer["serve.registry.setup_peak_mb"] = setup_peak_mb
    per_layer["kernels.vs_dense_ratio"] = (sum(forward_s[:len(batches)])
                                           / sum(dense_s))
    result = {"phases": [phase], "end_to_end": end_to_end,
              "per_layer": per_layer, "ok": True, "tracer": tracer}
    if trace:
        breakdown = h.nn_breakdown(tracer)
        gflops = _gflops(tracer)
        _print_analytical(config, qmodel, gflops)
        probe = batches[0][:, :8]
        traced_s, untraced_s = h.overhead_probe(tracer, served, probe, 3)
        per_layer.update(breakdown["shares"])
        per_layer.update({
            f"kernels.gflops.{shape}.r{rows}": gflops[(shape, rows)]
            for shape in GFLOPS_SHAPES for rows in GFLOPS_ROWS
        })
        per_layer.update({
            "models.forward_ms_per_token": breakdown["forward_s"] * 1000.0 / tokens,
            "models.forward_busy_share": busy / loop_s,
            "trace.overhead_share": traced_s / untraced_s - 1.0,
        })
    registry.close()
    sample_setup()
    end_to_end["setup_s"] = h.median(setup_s)
    if trace:
        per_layer.update(h.load_attach_metrics(path, config))
        result["ok"] = breakdown["ok"]
    path.unlink()
    return result
