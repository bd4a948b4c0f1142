"""serve-http: the deployed ``repro serve`` process under a closed loop of
short predicts over keep-alive HTTP, with periodic hot-swap reloads.

Two client threads each hold one ``http.client`` connection with default
socket options and send the next request as soon as the previous answer
arrives.  With 4-16-token requests the forward is a small share of each
round trip, so HTTP/JSON handling, the batch window (at most two requests
are ever outstanding) and registry reloads beside reads dominate.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from perfbench import harness as h
from perfbench.serve_open import CONFIG, SAMPLES_PER_POINT

CLIENTS = 2
MIN_TOKENS, MAX_TOKENS = 4, 16
#: Distinct request inputs (with dense references), cycled through.
POOL = 128
#: Connection 0 issues ``POST /models/bench/reload`` after every this many
#: of its own predicts.
RELOAD_EVERY = 50
#: Predicts slower than this miss the SLO.
SLO_MS = 250.0
SETUP_REPEATS = 3
STARTUP_TIMEOUT_S = 60.0
_SERVING = re.compile(r"serving .* on http://([\d.]+):(\d+)")


class Server:
    """One ``repro serve`` child process."""

    def __init__(self, path, trace_path=None):
        command = [sys.executable, "-m", "repro", "serve", "--model",
                   f"bench={path}:{CONFIG}", "--port", "0"]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        env = dict(os.environ, PYTHONPATH=str(h.ROOT / "src"))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=h.ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        # A child that never announces would block the read below forever.
        watchdog = threading.Timer(STARTUP_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            self._await_ready(start)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            watchdog.cancel()

    def _await_ready(self, start: float) -> None:
        lines = []
        for line in self.proc.stdout:
            lines.append(line)
            match = _SERVING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        else:
            raise SystemExit("repro serve exited before serving:\n" + "".join(lines))
        while self.get("/healthz")[0] != 200:
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - start

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def get(self, route: str):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", route)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def memory_mb(self, field_name: str) -> float:
        return h.proc_mb(field_name, self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; SIGKILL if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def _load(server: Server, inputs, references, seconds: float):
    """Run the closed loop; returns (predict records, reload records, wall s).

    A predict record is (round-trip s, status, max error, batch size,
    tokens); a reload record is (round-trip s, status).
    """
    predicts, reloads = [], []
    lock = threading.Lock()
    counter = [0]
    end = time.perf_counter() + seconds

    def exchange(conn, route: str, body):
        """(status, parsed body or None); status 0 when the connection broke."""
        try:
            conn.request("POST", route, body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            return response.status, json.loads(raw) if raw else None
        except (OSError, http.client.HTTPException, ValueError):
            conn.close()  # reconnects on the next request
            return 0, None

    def client(index: int):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        sent = 0
        while time.perf_counter() < end:
            with lock:
                item = counter[0] % len(inputs)
                counter[0] += 1
            body = json.dumps({"input_ids": inputs[item].tolist()})
            start = time.perf_counter()
            status, payload = exchange(conn, "/models/bench/predict", body)
            took = time.perf_counter() - start
            error, batch = float("inf"), 0
            if status == 200:
                error = h.max_error(payload["pooled"], references[item])
                batch = payload["batch_size"]
            with lock:
                predicts.append((took, status, error, batch, inputs[item].size))
            sent += 1
            if index == 0 and sent % RELOAD_EVERY == 0:
                start = time.perf_counter()
                status, _ = exchange(conn, "/models/bench/reload", b"")
                with lock:
                    reloads.append((time.perf_counter() - start, status))
        conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return predicts, reloads, time.perf_counter() - start


def _account(predicts, reloads):
    requests, swaps = h.Phase("predict"), h.Phase("reload")
    for _, status, error, _, _ in predicts:
        if status == 200:
            requests.record("ok", error)
        else:
            requests.record("refused" if status in (429, 503) else "failed")
    for _, status in reloads:
        swaps.record("ok" if status == 200 else "failed")
    return requests, swaps


def _read_child_trace(path):
    spans, depths = {}, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event["event"] == "span":
                spans.setdefault(event["name"], []).append(event)
            elif (event["event"] == "gauge" and event["name"] == "serve.queue_depth"
                  and event["parent"] == "serve.request"):
                depths.append(event["value"])  # sampled at admission
    return spans, depths


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.models import build_model, get_config

    rng = np.random.default_rng(seed)
    config = get_config(CONFIG)
    path = h.WORK / f"serve-http-{os.getpid()}.npz"
    network = build_model(config, task="encoder", rng=seed)
    qmodel, _, save_s = h.quantize_and_save(network, path, os.cpu_count())
    h.check_archive(path)
    scratch_path = h.WORK / f"serve-http-{os.getpid()}-scratch.npz"
    quantize_s = []
    h.quantize_samples(network, scratch_path, SAMPLES_PER_POINT, quantize_s)
    inputs = [rng.integers(0, config.vocab_size, size=length)
              for length in h.uniform_lengths(rng, POOL, MIN_TOKENS, MAX_TOKENS)]
    dense = h.dense_model(path, config)
    references = [h.pooled(dense, ids[None, :])[0] for ids in inputs]

    with Server(path) as server:
        setup_s = [server.setup_s]
        resident_mb = server.memory_mb("VmRSS")
        load_s = seconds / 2 if trace else seconds
        predicts, reloads, wall = _load(server, inputs, references, load_s)
        peak_mb = server.memory_mb("VmHWM")
    # More set-up samples after the load, so host noise at the start of the
    # run does not set the median alone.
    for _ in range(SETUP_REPEATS - 1):
        with Server(path) as extra:
            setup_s.append(extra.setup_s)
    h.quantize_samples(network, scratch_path, SAMPLES_PER_POINT, quantize_s)
    requests, swaps = _account(predicts, reloads)

    ok = [p for p in predicts if p[1] == 200 and p[2] <= h.TOLERANCE]
    rtt_ms = [p[0] * 1000.0 for p in predicts if p[1] == 200]
    answered_rps = len(ok) / wall
    end_to_end = {
        "setup_s": h.median(setup_s),
        "latency_p50_ms": h.pct(rtt_ms, 50),
        "latency_p95_ms": h.pct(rtt_ms, 95),
        "latency_p99_ms": h.pct(rtt_ms, 99),
        "slo_share": sum(p[0] * 1000.0 <= SLO_MS for p in ok) / len(predicts),
        "saturated_rps": answered_rps,
        "throughput_rps": answered_rps,
        "tokens_per_s": sum(p[4] for p in ok) / wall,
        "quantize_s": h.median(quantize_s),
        "archive_mb": path.stat().st_size / h.MB,
        "resident_mb": resident_mb,
        "peak_mb": peak_mb,
    }
    print(f"serve-http: {CLIENTS} keep-alive connections for {wall:.1f}s, "
          f"{len(predicts)} predicts, {len(reloads)} reloads; SLO {SLO_MS:g} ms")
    per_layer = h.empty_per_layer()
    per_layer.update(h.core_metrics(qmodel, save_s))
    phases = [requests, swaps]
    result = {"phases": phases, "end_to_end": end_to_end,
              "per_layer": per_layer, "ok": True, "tracer": None}
    if trace:
        trace_path = h.WORK / f"child-trace-serve-http-{seed}.jsonl"
        with Server(path, trace_path) as server:
            t_predicts, t_reloads, t_wall = _load(server, inputs, references,
                                                  seconds / 2)
        t_requests, t_swaps = _account(t_predicts, t_reloads)
        t_requests.name, t_swaps.name = "predict (traced)", "reload (traced)"
        phases += [t_requests, t_swaps]
        spans, depths = _read_child_trace(trace_path)
        t_ok = [p for p in t_predicts if p[1] == 200 and p[2] <= h.TOLERANCE]
        t_rtt_ms = [p[0] * 1000.0 for p in t_predicts if p[1] == 200]
        request_ms = [s["duration"] * 1000.0 for s in spans["serve.request"]
                      if s["attrs"].get("route") == "predict"]
        batch_s = sum(s["duration"] for s in spans["serve.batch"])
        reload_ms = [s["duration"] * 1000.0 for s in spans["serve.model_load"]
                     if s["attrs"].get("generation", 1) > 1]
        waits_ms = [s["duration"] * 1000.0 for s in spans["serve.queue_wait"]]
        per_layer.update({
            "serve.admission.depth_p95": h.pct(depths, 95),
            "serve.admission.rejected":
                float(sum(p[1] == 429 for p in t_predicts)),
            "serve.batcher.queue_wait_ms_p50": h.pct(waits_ms, 50),
            "serve.batcher.queue_wait_ms_p95": h.pct(waits_ms, 95),
            "serve.batcher.batch_size_mean": float(np.mean([p[3] for p in t_ok])),
            "serve.batcher.expired": float(sum(p[1] == 504 for p in t_predicts)),
            "models.forward_ms_per_token":
                batch_s * 1000.0 / sum(p[4] for p in t_ok),
            "models.forward_busy_share": batch_s / t_wall,
            "serve.registry.reload_ms_p50": h.pct(reload_ms, 50),
            "serve.server.request_ms_p50": h.pct(request_ms, 50),
            "serve.server.outside_ms_p50":
                h.pct(t_rtt_ms, 50) - h.pct(request_ms, 50),
            "trace.overhead_share":
                h.pct(t_rtt_ms, 50) / end_to_end["latency_p50_ms"] - 1.0,
        })
        per_layer.update(h.load_attach_metrics(path, config))
    path.unlink()
    scratch_path.unlink()
    return result
