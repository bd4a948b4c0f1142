"""Shared machinery of the benchmark: statistics, process memory, the
benchmark-side span tracer, output checks and the result record.

Nothing here reaches inside ``src/``: spans are recorded around calls into
the program's public functions and around the ``forward`` of the model's own
module instances, which the benchmark wraps after it has built them.
"""

from __future__ import annotations

import ctypes
import gc
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import betainc

#: The checkout root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Metric names, units and directions: one source for every workload.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: Scratch space for archives and traces; listed in ``.gitignore``.
WORK = ROOT / ".perfbench"
#: Largest |served - dense| allowed on any pooled-output element.  Batched
#: (padded + masked) forwards reorder float64 sums; probes saw <= 4e-8.
TOLERANCE = 1e-6
#: ``nn.*_share`` must sum to the traced forward time within this margin.
BREAKDOWN_TOLERANCE = 0.05
MB = 1e6


# ------------------------------------------------------------------ statistics
def pct(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile; NaN when empty.

    A Beta-weighted mean of all order statistics: for the tail of a few
    hundred samples it is far steadier than one interpolated order statistic.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    if n < 2:
        return float(ordered[0]) if n else float("nan")
    p = q / 100.0
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered)


def median(values) -> float:
    return pct(values, 50)


def stratified(rng, n: int, ppf) -> np.ndarray:
    """``n`` draws from the distribution with inverse CDF ``ppf``, one from
    each of ``n`` equal-probability strata, in random order.

    Every value still has the intended marginal distribution, but the
    sample's histogram no longer varies from seed to seed (a Latin-hypercube
    sample), so a run of a few hundred requests gives steady percentiles.
    """
    return ppf((rng.permutation(n) + rng.uniform(size=n)) / n)


def uniform_lengths(rng, n: int, low: int, high: int) -> np.ndarray:
    """Stratified sequence lengths, uniform over ``low..high`` inclusive."""
    return stratified(rng, n, lambda u: low + (u * (high - low + 1)).astype(int))


# ---------------------------------------------------------------------- memory
def proc_mb(field_name: str, pid: int | str = "self") -> float:
    """``VmRSS``/``VmHWM`` of a process in MB (10^6 bytes)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) * 1024 / MB
    raise KeyError(field_name)


def reset_peak() -> None:
    """Release freed heap memory, then reset this process's VmHWM to its RSS.

    Trimming first makes later RSS growth count new allocations, rather than
    depend on how much freed memory the allocator happens to reuse.
    """
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if trim is not None:
        trim(0)
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError as exc:
        print(f"cannot reset VmHWM ({exc}); peaks include earlier work")


# ---------------------------------------------------------------------- tracer
@contextmanager
def no_span(_name: str, **attrs):
    """Stand-in for :meth:`Tracer.span` in untraced runs."""
    yield attrs


def empty_per_layer() -> dict:
    """Every per-layer metric, unset (None prints as n/a on the workload)."""
    return {metric["name"]: None for metric in SPEC["per_layer"]}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans with per-thread nesting; written out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   threading.get_ident(), attrs))

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered, cursor = 0.0, span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.id] = span.seconds - covered
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "start": span.start, "end": span.end,
                    "thread": span.thread, "attrs": span.attrs,
                }) + "\n")


def instrument_model(tracer: Tracer, model, on_forward=None) -> None:
    """Time every module instance of ``model`` (and its lookup kernels).

    Span names: ``models.forward`` for the root, ``nn.qlinear`` for each
    ``QuantizedLinear``, ``kernels.matmul`` inside it, ``nn.attention`` for
    each self-attention block and ``nn.other`` for every other module.
    ``on_forward(span_attrs, input_ids, attention_mask)`` runs at the start
    of each root forward.  Wrapping is per instance: nothing in ``src/``
    changes, and an untraced run never calls this.
    """
    from repro.nn import QuantizedLinear
    from repro.nn.attention import MultiHeadSelfAttention

    def wrap(name: str, inner, note=None):
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return inner(*args, **kwargs)
            with tracer.span(name) as attrs:
                if note is not None:
                    note(attrs, *args)
                return inner(*args, **kwargs)
        return traced

    def note_root(attrs, input_ids, attention_mask=None, *_):
        mask = (np.ones_like(input_ids) if attention_mask is None
                else np.asarray(attention_mask))
        attrs.update(batch=int(mask.shape[0]), slots=int(mask.size),
                     tokens=int(mask.sum()))
        if on_forward is not None:
            on_forward(attrs, np.asarray(input_ids), mask)

    def note_kernel(shape):
        def note(attrs, x, *_):
            attrs.update(shape=shape, rows=int(np.prod(np.shape(x)[:-1])))
        return note

    for _, module in model.named_modules():
        if module is model:
            module.forward = wrap("models.forward", module.forward, note_root)
        elif isinstance(module, QuantizedLinear):
            module.forward = wrap("nn.qlinear", module.forward)
            shape = f"{module.out_features}x{module.in_features}"
            module.kernel.matmul = wrap("kernels.matmul", module.kernel.matmul,
                                        note_kernel(shape))
        elif isinstance(module, MultiHeadSelfAttention):
            module.forward = wrap("nn.attention", module.forward)
        else:
            module.forward = wrap("nn.other", module.forward)


def nn_breakdown(tracer: Tracer) -> dict:
    """Shares of traced forward time, plus the integrity check on their sum."""
    own = tracer.self_seconds()
    forward = sum(span.seconds for span in tracer.named("models.forward"))
    qlinear = sum(span.seconds for span in tracer.named("nn.qlinear"))
    attention = sum(own[span.id] for span in tracer.named("nn.attention"))
    other = sum(own[span.id] for span in tracer.named("nn.other"))
    shares = {
        "nn.qlinear_share": qlinear / forward,
        "nn.attention_share": attention / forward,
        "nn.other_share": other / forward,
    }
    total = sum(shares.values())
    print(f"breakdown check: nn shares sum to {total:.4f} of models.forward "
          f"({forward:.3f}s traced); tolerance {BREAKDOWN_TOLERANCE}; "
          f"{'ok' if abs(total - 1) <= BREAKDOWN_TOLERANCE else 'FAILED'}")
    return {"shares": shares, "ok": abs(total - 1) <= BREAKDOWN_TOLERANCE,
            "forward_s": forward}


def overhead_probe(tracer: Tracer, model, input_ids, pairs: int):
    """Median forward seconds of one batch (traced, untraced), alternating."""
    times = {True: [], False: []}
    for _ in range(pairs):
        for enabled in (False, True):
            tracer.enabled = enabled
            times[enabled].append(forward_seconds(model, input_ids, 1))
    tracer.enabled = True
    return median(times[True]), median(times[False])


# ---------------------------------------------------------- models and checks
def dense_model(path: Path, config):
    """The dense-dequantized reference: ``QuantizedModel.apply_to`` on a
    freshly built network (the same archive the program serves)."""
    from repro.core import load_quantized_model
    from repro.models import build_model

    model = build_model(config, task="encoder", rng=0)
    return load_quantized_model(path).apply_to(model).eval()


def pooled(model, input_ids: np.ndarray) -> np.ndarray:
    """Pooled output rows of an unpadded ``(batch, seq)`` forward."""
    _, out = model(input_ids, np.ones_like(input_ids), np.zeros_like(input_ids))
    return np.asarray(out.data, dtype=np.float64)


def max_error(served, reference) -> float:
    served = np.asarray(served, dtype=np.float64)
    if served.shape != reference.shape or not np.all(np.isfinite(served)):
        return float("inf")
    return float(np.max(np.abs(served - reference)))


def check_archive(path: Path) -> None:
    from repro.core import verify_archive

    check = verify_archive(path)
    print(f"verify_archive({path.name}): {check.status} ({check.detail})")
    if not check.ok:
        raise SystemExit(f"archive failed verification: {check.status}")


def quantize_and_save(model, path: Path, workers: int):
    """(QuantizedModel, quantize seconds, save seconds)."""
    from repro.core import quantize_model, save_quantized_model

    start = time.perf_counter()
    qmodel = quantize_model(model, weight_bits=3, embedding_bits=4,
                            workers=workers)
    middle = time.perf_counter()
    save_quantized_model(qmodel, path)
    return qmodel, middle - start, time.perf_counter() - middle


def quantize_samples(network, path: Path, count: int, into: list) -> None:
    """Append ``count`` timed quantize + save runs (seconds) to ``into``."""
    for _ in range(count):
        _, quantize_s, save_s = quantize_and_save(network, path, os.cpu_count())
        into.append(quantize_s + save_s)


def core_metrics(qmodel, save_s: float) -> dict:
    report = qmodel.report
    return {
        "core.parallel.effective_parallelism":
            report.layer_seconds / report.wall_seconds,
        "core.parallel.layer_s_max": max(r.seconds for r in report.layers),
        "core.clustering.iterations": float(sum(qmodel.iterations.values())),
        "core.serialization.save_s": save_s,
    }


def forward_seconds(model, input_ids, repeats: int) -> float:
    """Median wall time of ``repeats`` unpadded forwards of one batch."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        pooled(model, input_ids)
        times.append(time.perf_counter() - start)
    return median(times)


def load_attach_metrics(path: Path, config) -> dict:
    """Time the registry's two load steps on their own, through the public
    API: the lazy archive load, then build + attach (which prepares the
    lookup kernels); plus the prepared kernels' resident bytes per weight."""
    from repro.core import load_quantized_model
    from repro.models import attach_quantized_linears, build_model
    from repro.nn import QuantizedLinear

    start = time.perf_counter()
    qmodel = load_quantized_model(path, lazy=True)
    loaded = time.perf_counter()
    model = attach_quantized_linears(build_model(config, task="encoder", rng=0),
                                     qmodel)
    attached = time.perf_counter()
    layers = [m for _, m in model.named_modules() if isinstance(m, QuantizedLinear)]
    kernel_bytes = sum(m.kernel.prepared_nbytes for m in layers)
    weights = sum(m.out_features * m.in_features for m in layers)
    qmodel.quantized.close()
    return {
        "core.serialization.load_s": loaded - start,
        "models.attach_s": attached - loaded,
        "kernels.resident_bytes_per_weight": kernel_bytes / weights,
    }


# ----------------------------------------------------------------- accounting
class Phase:
    """Operation counts of one phase: sent, succeeded, failed, refused."""

    def __init__(self, name: str):
        self.name = name
        self.sent = self.succeeded = self.failed = self.refused = 0
        self.wrong = 0
        self.worst_error = 0.0

    def record(self, outcome: str, error: float = 0.0) -> None:
        self.sent += 1
        if outcome == "ok":
            self.worst_error = max(self.worst_error, error)
            if error <= TOLERANCE:
                self.succeeded += 1
                return
            self.wrong += 1
            outcome = "failed"
        setattr(self, outcome, getattr(self, outcome) + 1)

    def line(self) -> str:
        return (f"phase {self.name}: sent {self.sent}, succeeded {self.succeeded}, "
                f"failed {self.failed} (wrong answers {self.wrong}), "
                f"refused {self.refused}; worst |served - dense| "
                f"{self.worst_error:.3g} (tolerance {TOLERANCE:g})")


def print_metrics(metrics: dict) -> None:
    for name, value in metrics.items():
        shown = "n/a on this workload" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown} {UNITS[name]}")


def finish(phases: list[Phase], metrics: dict, extra_ok: bool = True) -> int:
    """Print the per-phase counts and the final JSON line for ``metrics``.

    Returns the exit code: non-zero when a served output was wrong or an
    integrity check failed.
    """
    for phase in phases:
        print(phase.line())
    attempted = sum(phase.sent for phase in phases)
    failed = sum(phase.failed + phase.refused for phase in phases)
    correct = extra_ok and all(phase.wrong == 0 for phase in phases)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": 0.0 if value is None else value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1
