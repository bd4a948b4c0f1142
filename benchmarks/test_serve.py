"""Serving-layer benchmarks: request latency, micro-batch throughput, swap cost.

Measures the end-to-end serving path the paper's latency argument is about:
compressed-representation inference behind the micro-batching queue of
:mod:`repro.serve`.  Four numbers matter:

* **in-process latency** — p50/p95/p99 of one request at a time through the
  batcher (no fusion window, batch size 1), at 16 and 64 tokens;
* **HTTP latency** — the same requests as keep-alive round trips to a real
  :class:`~repro.serve.QuantServer`, so everything the HTTP front adds over
  the batcher (parsing, JSON, the socket) is on file beside it;
* **concurrent throughput** — a burst of clients sharing kernel forwards
  through the micro-batcher, plus the mean fused batch size it achieved;
* **hot-swap cost** — wall time of an atomic registry reload, the pause-free
  redeploy path.

``test_record_bench_serve_json`` writes ``BENCH_serve.json`` to
``benchmarks/results/`` (own ``perf_counter`` timings, so it records under
``--benchmark-disable``); ``scripts/check_bench.py`` gates it — HTTP p50 may
exceed in-process p50 by less than 20 ms at every length, which a
Nagle / delayed-ACK stall (>= 40 ms per response) fails — and the committed
baseline lives at ``benchmarks/BENCH_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np
import pytest

from benchmarks.conftest import _smoke_mode
from repro import obs
from repro.core.model_quantizer import quantize_model
from repro.core.serialization import save_quantized_model
from repro.models import build_model, get_config
from repro.serve import AdmissionController, MicroBatcher, ModelRegistry, QuantServer

CONFIG_NAME = "tiny-bert-base"
#: Client threads x requests per client for the throughput burst.
CLIENTS = 4 if _smoke_mode() else 8
REQUESTS_PER_CLIENT = 4 if _smoke_mode() else 16
#: Sequential requests per (path, length) latency distribution.
SEQUENTIAL_REQUESTS = 20 if _smoke_mode() else 60
#: Request lengths in tokens: a short query and a paragraph.
SEQ_LENS = (16, 64)


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    model = build_model(get_config(CONFIG_NAME), task="encoder", rng=0)
    quantized = quantize_model(model, weight_bits=3, embedding_bits=4)
    path = tmp_path_factory.mktemp("serve_bench") / "model.npz"
    save_quantized_model(quantized, path)
    return path


@pytest.fixture
def registry(archive):
    registry = ModelRegistry()
    registry.register("bench", archive, config=CONFIG_NAME)
    yield registry
    registry.close()


def make_batcher(registry, window=0.02, max_batch=16):
    admission = AdmissionController(max_pending=256, request_timeout=60.0)
    return MicroBatcher(registry, admission,
                        batch_window=window, max_batch=max_batch)


def request_ids(index: int, tokens: int) -> list[int]:
    """A ``tokens``-long request whose first id varies with ``index``."""
    return [1 + (index + position) % 7 for position in range(tokens)]


def percentiles_ms(durations: list[float]) -> dict[str, float]:
    p50, p95, p99 = np.percentile(np.asarray(durations) * 1000.0, (50, 95, 99))
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


def _inprocess_latency(batcher, tokens: int, requests: int) -> dict:
    durations = []
    for index in range(requests):
        start = time.perf_counter()
        pending = batcher.submit("bench", request_ids(index, tokens))
        batcher.wait(pending)
        durations.append(time.perf_counter() - start)
    return percentiles_ms(durations)


def _http_latency(server, tokens: int, requests: int) -> dict:
    """Keep-alive round trips: every request reuses one connection."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    durations = []
    try:
        for index in range(requests):
            body = json.dumps({"input_ids": request_ids(index, tokens)})
            start = time.perf_counter()
            connection.request("POST", "/models/bench/predict", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            durations.append(time.perf_counter() - start)
            assert response.status == 200, response.status
    finally:
        connection.close()
    return percentiles_ms(durations)


def _burst(batcher, clients: int, per_client: int):
    """(wall seconds, mean fused batch size) for a concurrent burst."""
    barrier = threading.Barrier(clients + 1)
    errors = []

    def client(index):
        barrier.wait()
        for request in range(per_client):
            try:
                pending = batcher.submit(
                    "bench", request_ids(index + request, SEQ_LENS[0])
                )
                batcher.wait(pending)
            except Exception as exc:  # noqa: BLE001 — recorded, not raised
                errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    with obs.scope() as trace:
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
    assert not errors, errors[0]
    batch_sizes = [
        event["attrs"]["batch_size"] for event in trace.events
        if event["event"] == "span" and event["name"] == "serve.batch"
    ]
    assert sum(batch_sizes) == clients * per_client
    mean_batch = sum(batch_sizes) / len(batch_sizes)
    return wall, mean_batch, max(batch_sizes)


def test_bench_sequential_request(benchmark, registry):
    batcher = make_batcher(registry, window=0.0)  # no fusion window: floor
    try:
        def one():
            pending = batcher.submit("bench", request_ids(0, SEQ_LENS[0]))
            return batcher.wait(pending)

        result = benchmark(one)
        assert result["batch_size"] == 1
    finally:
        batcher.close()


def test_bench_registry_reload(benchmark, registry):
    entry = benchmark.pedantic(
        lambda: registry.reload("bench"), rounds=3, iterations=1
    )
    assert entry.version > 1


def test_record_bench_serve_json(results_dir, archive, registry):
    """Record the BENCH_serve.json baseline (see module docstring)."""
    measurements = {"latency_ms": {}}

    floor_batcher = make_batcher(registry, window=0.0)
    try:
        for tokens in SEQ_LENS:
            measurements["latency_ms"][str(tokens)] = {
                "inprocess": _inprocess_latency(
                    floor_batcher, tokens, SEQUENTIAL_REQUESTS
                )
            }
    finally:
        floor_batcher.close()

    # The server owns (and closes) its registry, so it gets its own.
    server_registry = ModelRegistry()
    server_registry.register("bench", archive, config=CONFIG_NAME)
    server = QuantServer(server_registry, port=0, batch_window=0.0)
    server.serve_in_background()
    try:
        for tokens in SEQ_LENS:
            measurements["latency_ms"][str(tokens)]["http"] = _http_latency(
                server, tokens, SEQUENTIAL_REQUESTS
            )
    finally:
        server.shutdown()

    batcher = make_batcher(registry, window=0.02, max_batch=16)
    try:
        wall, mean_batch, max_batch = _burst(batcher, CLIENTS, REQUESTS_PER_CLIENT)
        total = CLIENTS * REQUESTS_PER_CLIENT
        measurements["concurrent_wall_seconds"] = wall
        measurements["concurrent_requests_per_second"] = total / wall
        measurements["mean_batch_size"] = mean_batch
        measurements["max_batch_size"] = max_batch
    finally:
        batcher.close()

    start = time.perf_counter()
    registry.reload("bench")
    measurements["reload_seconds"] = time.perf_counter() - start

    record = {
        "schema": "bench-serve/v2",
        "smoke": _smoke_mode(),
        "config": {
            "model": CONFIG_NAME,
            "seq_lens": list(SEQ_LENS),
            "sequential_requests": SEQUENTIAL_REQUESTS,
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "batch_window_ms": 20,
            "max_batch": 16,
        },
        "measurements": measurements,
    }
    out = results_dir / "BENCH_serve.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    latency = ", ".join(
        f"{tokens} tokens p50 {entry['inprocess']['p50']:.1f}ms in-process / "
        f"{entry['http']['p50']:.1f}ms HTTP"
        for tokens, entry in measurements["latency_ms"].items()
    )
    print(
        f"\n[written to benchmarks/results/BENCH_serve.json] {latency}; "
        f"{measurements['concurrent_requests_per_second']:.0f} req/s, "
        f"mean batch {mean_batch:.2f}"
    )

    # Micro-batching must actually fuse under a concurrent burst — the
    # subsystem's reason to exist.  check_bench.py gates the recorded file
    # the same way, plus the HTTP-over-in-process latency bound.
    assert measurements["max_batch_size"] > 1, (
        f"no request fusion observed (max batch {measurements['max_batch_size']})"
    )


def test_bench_serve_json_is_fresh(results_dir):
    import os

    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("ordering not guaranteed under xdist")
    path = results_dir / "BENCH_serve.json"
    assert path.exists(), "test_record_bench_serve_json did not run first"
    record = json.loads(path.read_text())
    assert record["schema"] == "bench-serve/v2"
