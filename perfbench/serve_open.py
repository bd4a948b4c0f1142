"""serve-open: an in-process registry + micro-batcher under an open loop,
then under saturation.

Phase 1 sends requests on a Poisson schedule at ``RATE`` req/s, whatever the
server is doing, so a slow forward shows up as queueing for the requests
behind it.  Latency is timed from each request's scheduled send time.
Phase 2 keeps ``2 * max_batch`` requests outstanding and measures capacity.
"""

from __future__ import annotations

import os
import queue
import threading
import time

import numpy as np

from perfbench import harness as h

CONFIG = "tiny-bert-base"
#: Open-loop arrival rate, about half of what phase 2 sustains on a 2-core
#: Xeon (README.md, "Seed-time findings").
RATE = 7.0
#: Phase 1 answers slower than this miss the SLO.
SLO_MS = 250.0
#: Share of the run given to the open loop; the rest is saturation.
OPEN_SHARE = 0.75
MIN_TOKENS, MAX_TOKENS = 8, 64
#: Seeds the arrival schedule and request lengths (fixed; see run()).
TRAFFIC_SEED = 0
SAMPLES_PER_POINT = 5


class _Request:
    __slots__ = ("index", "ids", "due", "sent", "done", "result", "outcome",
                 "wait")

    def __init__(self, index: int, ids: np.ndarray, due: float = 0.0):
        self.index, self.ids, self.due = index, ids, due
        self.sent = self.done = 0.0
        self.result = self.outcome = self.wait = None


def _collector(batcher, inbox: queue.Queue, release=None) -> threading.Thread:
    """One thread that waits for each submitted request in order."""
    from repro.errors import ReproError, RequestTimeoutError

    def loop():
        while (request := inbox.get()) is not None:
            pending, req = request
            try:
                req.result = batcher.wait(pending)
                req.outcome = "ok"
            except RequestTimeoutError:
                req.outcome = "expired"
            except ReproError:
                req.outcome = "failed"
            req.done = time.perf_counter()
            if release is not None:
                release()

    thread = threading.Thread(target=loop, name="perfbench-collector",
                              daemon=True)
    thread.start()
    return thread


def _submit(batcher, req: _Request, submitted: list, inbox: queue.Queue,
            span) -> int | None:
    """Submit one request; returns the admission depth, None if refused."""
    from repro.errors import QueueFullError

    submitted.append(req)
    req.sent = time.perf_counter()
    try:
        with span("serve.batcher.submit"):
            pending = batcher.submit("bench", req.ids)
    except QueueFullError:
        req.outcome, req.done = "refused", time.perf_counter()
        return None
    depth = batcher.admission.depth
    inbox.put((pending, req))
    return depth


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.models import build_model, get_config
    from repro.serve import AdmissionController, MicroBatcher, ModelRegistry

    rng = np.random.default_rng(seed)
    config = get_config(CONFIG)
    tracer = h.Tracer() if trace else None
    span = tracer.span if trace else h.no_span
    path = h.WORK / f"serve-open-{os.getpid()}.npz"

    # ---- inputs, archive and dense references (untimed preparation)
    network = build_model(config, task="encoder", rng=seed)
    with span("core.quantize_and_save"):
        qmodel, _, save_s = h.quantize_and_save(network, path, os.cpu_count())
    h.check_archive(path)
    open_s = seconds * OPEN_SHARE
    arrivals = int(round(RATE * open_s))
    # Poisson arrivals (exponential gaps, stratified: see h.stratified) and
    # request lengths come from a fixed traffic seed; --seed draws the model
    # and the tokens.  The tail is set by a handful of coincident arrivals,
    # so a per-seed schedule moved p95 by 2x between seeds (README.md).
    traffic = np.random.default_rng(TRAFFIC_SEED)
    schedule = np.cumsum(
        h.stratified(traffic, arrivals, lambda u: -np.log1p(-u) / RATE))
    lengths = h.uniform_lengths(traffic, arrivals, MIN_TOKENS, MAX_TOKENS)
    inputs = [rng.integers(0, config.vocab_size, size=n) for n in lengths]
    probe = rng.integers(0, config.vocab_size, size=(1, 32))
    dense = h.dense_model(path, config)
    references = [h.pooled(dense, ids[None, :])[0] for ids in inputs]

    # ---- set-up samples: quantize + save, and register (medians of many)
    scratch_path = h.WORK / f"serve-open-{os.getpid()}-scratch.npz"
    quantize_s, setup_s = [], []

    def sample_setup():
        # Taken at three points of the run, so that one burst of host noise
        # moves only a third of the samples.
        h.quantize_samples(network, scratch_path, SAMPLES_PER_POINT, quantize_s)
        for _ in range(SAMPLES_PER_POINT):
            scratch = ModelRegistry()
            start = time.perf_counter()
            scratch.register("bench", path, config=CONFIG)
            setup_s.append(time.perf_counter() - start)
            scratch.close()

    sample_setup()
    h.reset_peak()
    rss0 = h.proc_mb("VmRSS")
    registry = ModelRegistry()
    start = time.perf_counter()
    with span("serve.registry.register"):
        registry.register("bench", path, config=CONFIG)
    setup_s.append(time.perf_counter() - start)
    resident_mb = h.proc_mb("VmRSS")
    setup_peak_mb = h.proc_mb("VmHWM") - rss0

    submitted: list[_Request] = []
    slots, tokens = [0], [0]
    if trace:
        cursor = [0]

        def on_forward(attrs, input_ids, mask):
            # The single worker forwards in FIFO order: match each row to the
            # next submitted request with the same tokens.
            now = time.perf_counter()
            slots[0] += int(mask.size)
            tokens[0] += int(mask.sum())
            for row in range(mask.shape[0]):
                ids = input_ids[row, : int(mask[row].sum())]
                while cursor[0] < len(submitted):
                    req = submitted[cursor[0]]
                    cursor[0] += 1
                    if np.array_equal(req.ids, ids):
                        req.wait = now - req.sent
                        break

        h.instrument_model(tracer, registry.get("bench").model, on_forward)

    batcher = MicroBatcher(registry, AdmissionController(
        max_pending=64, request_timeout=10.0))

    # ---- phase 1: open loop
    open_loop = h.Phase("open-loop")
    inbox: queue.Queue = queue.Queue()
    collector = _collector(batcher, inbox)
    requests = [_Request(i, ids) for i, ids in enumerate(inputs)]
    depths, late = [], []
    t0 = time.perf_counter() + 0.05
    for req, offset in zip(requests, schedule):
        req.due = t0 + offset
        pause = req.due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        late.append(time.perf_counter() - req.due)
        depth = _submit(batcher, req, submitted, inbox, span)
        if depth is not None:
            depths.append(depth)
    inbox.put(None)
    collector.join()
    latencies, within_slo = [], 0
    for req in requests:
        error = 0.0
        if req.outcome == "ok":
            error = h.max_error(req.result["pooled"], references[req.index])
            latencies.append((req.done - req.due) * 1000.0)
            within_slo += error <= h.TOLERANCE and latencies[-1] <= SLO_MS
        open_loop.record(req.outcome if req.outcome != "expired" else "failed",
                         error)
    open_end = max(req.done for req in requests)
    answered = [req for req in requests if req.outcome == "ok"]
    sample_setup()

    # ---- phase 2: saturation (2 x max_batch outstanding)
    saturation = h.Phase("saturation")
    window = threading.Semaphore(2 * batcher.max_batch)
    inbox = queue.Queue()
    collector = _collector(batcher, inbox, release=window.release)
    sat_requests = []
    sat_start = time.perf_counter()
    sat_end = sat_start + seconds - open_s
    while time.perf_counter() < sat_end:
        window.acquire()
        index = len(sat_requests) % arrivals
        req = _Request(index, inputs[index])
        sat_requests.append(req)
        if _submit(batcher, req, submitted, inbox, span) is None:
            window.release()
    inbox.put(None)
    collector.join()
    batcher.close()
    sat_ok = [req for req in sat_requests if req.outcome == "ok"]
    for req in sat_requests:
        error = (h.max_error(req.result["pooled"], references[req.index])
                 if req.outcome == "ok" else 0.0)
        saturation.record(req.outcome if req.outcome != "expired" else "failed",
                          error)
    # 2 x max_batch outstanding keeps every batch full from the first submit
    # to the last answer, so the whole span is saturated.
    sat_span = max(r.done for r in sat_ok) - sat_start
    peak_mb = h.proc_mb("VmHWM")
    sample_setup()
    expired = sum(req.outcome == "expired" for req in requests + sat_requests)
    refused = sum(req.outcome == "refused" for req in requests + sat_requests)

    end_to_end = {
        "setup_s": h.median(setup_s),
        "latency_p50_ms": h.pct(latencies, 50),
        "latency_p95_ms": h.pct(latencies, 95),
        "latency_p99_ms": h.pct(latencies, 99),
        "slo_share": within_slo / len(requests),
        "saturated_rps": len(sat_ok) / sat_span,
        "throughput_rps": len(answered) / (open_end - t0),
        "tokens_per_s": sum(r.ids.size for r in sat_ok) / sat_span,
        "quantize_s": h.median(quantize_s),
        "archive_mb": path.stat().st_size / h.MB,
        "resident_mb": resident_mb,
        "peak_mb": peak_mb,
    }
    print(f"serve-open: {arrivals} arrivals at {RATE:g} req/s over {open_s:.1f}s, "
          f"then {len(sat_requests)} requests at {2 * batcher.max_batch} "
          f"outstanding over {seconds - open_s:.1f}s; latency samples "
          f"{len(latencies)}; SLO {SLO_MS:g} ms; generator late p50 "
          f"{h.pct(late, 50) * 1e3:.2f} ms, p99 {h.pct(late, 99) * 1e3:.2f} ms")
    per_layer = h.empty_per_layer()
    per_layer.update({
        "serve.admission.depth_p95": h.pct(depths, 95),
        "serve.admission.rejected": float(refused),
        "serve.batcher.batch_size_mean":
            float(np.mean([r.result["batch_size"] for r in sat_ok])),
        "serve.batcher.expired": float(expired),
        "serve.registry.setup_peak_mb": setup_peak_mb,
        "loadgen.late_ms_p99": h.pct(late, 99) * 1000.0,
    })
    per_layer.update(h.core_metrics(qmodel, save_s))
    result = {"phases": [open_loop, saturation], "end_to_end": end_to_end,
              "per_layer": per_layer, "ok": True, "tracer": tracer}
    if trace:
        served = registry.get("bench").model
        forwards = tracer.named("models.forward")
        busy = sum(s.seconds for s in forwards if s.start >= sat_start)
        waits = [req.wait for req in requests if req.wait is not None]
        breakdown = h.nn_breakdown(tracer)
        traced_s, untraced_s = h.overhead_probe(tracer, served, probe, 10)
        per_layer.update(breakdown["shares"])
        per_layer.update({
            "serve.batcher.queue_wait_ms_p50": h.pct(waits, 50) * 1000.0,
            "serve.batcher.queue_wait_ms_p95": h.pct(waits, 95) * 1000.0,
            "serve.batcher.pad_share": 1.0 - tokens[0] / slots[0],
            "models.forward_ms_per_token":
                breakdown["forward_s"] * 1000.0 / tokens[0],
            "models.forward_busy_share": busy / sat_span,
            "trace.overhead_share": traced_s / untraced_s - 1.0,
            "kernels.vs_dense_ratio":
                untraced_s / h.forward_seconds(dense, probe, 10),
        })
        per_layer.update(h.load_attach_metrics(path, config))
        result["ok"] = breakdown["ok"]
    registry.close()
    path.unlink()
    scratch_path.unlink()
    return result
