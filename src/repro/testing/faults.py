"""Deterministic fault injectors for quantization, serving and storage.

Every injector is one callable, ``injector(site, **ctx)``, called at three
named sites — only when an injector is set, so production pays nothing:

* ``"layer"`` — :meth:`repro.core.parallel.JobRunner.attempt`, before each
  layer quantizes, with ``index=``, ``job=`` and ``weights=``.  The injector
  may raise (a layer failure) or return a replacement weight array
  (poisoned input).
* ``"forward"`` — :class:`repro.serve.batcher.MicroBatcher`, before each
  model forward, with ``model=``.
* ``"load"`` — :class:`repro.serve.registry.ModelRegistry`, before each
  archive load, with ``model=``.

Each built-in injector (an :class:`Injector` subclass) acts at the one site
its class declares and is inert at the others, so one injector — one
``REPRO_FAULTS`` value — carries engine and serve faults together.

Layer-site injectors prove every ``on_error``/``validation`` policy path and
the durable-job machinery: :class:`RaiseOnLayer` (persistent failure),
:class:`RaiseNth` (transient failure), :class:`PoisonTensor` (NaN/Inf/
constant weights), :class:`HangOnLayer` and :class:`SlowLayer` (caught by
the per-layer watchdog), :class:`TransientIOFault` (an ``OSError`` the
transient-retry loop absorbs) and :class:`CrashOnCall` (SIGKILL, recovered
by ``--resume``).  :class:`KillWorker`, :class:`MuteWorker` and
:class:`HangWorker` act only inside one worker process of a
``backend="process"`` fleet (:mod:`repro.jobs.fleet`) and are inert under
the thread backend.

Serve-site injectors drive the self-healing runtime (DESIGN.md §5i):
:class:`HangForward` (a non-cooperative hang only the batch watchdog
catches), :class:`FailForward` (breaker feed), :class:`CorruptMemberAtServe`
(the lazy-CRC integrity error that quarantines a model) and
:class:`SlowLoad` (widens reload/probe race windows).

Subprocesses and fleet workers cannot receive injector objects (they hold
locks, which do not pickle), so injectors are also described by text specs
(``"crash:3"``, ``"kill-worker:1"``, ``"fail-forward:alpha:0"``, ...; the
grammar is the table in :func:`injector_from_spec`).  The quantize and
serve CLIs build theirs from the ``REPRO_FAULTS`` variable via
:func:`injector_from_env`; each fleet worker rebuilds its own from the spec
(stateful injectors count per worker, not globally).

:func:`truncate_file` and :func:`corrupt_bytes` simulate the two ways an
archive dies on disk: a crash mid-write and bit rot.

None of these depend on pytest; they are plain callables/functions usable
from any harness.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.core.parallel import LayerJob
from repro.errors import ChecksumMismatchError
from repro.jobs.watchdog import checkpoint

#: Environment variable the CLIs read fault specs from.
FAULTS_ENV = "REPRO_FAULTS"

#: Lowest accepted value of each numeric injector field, checked at
#: construction: an injector that can never fire would make a chaos test
#: pass vacuously.
_MINIMUM = {"nth": 1, "times": 0, "worker": 0, "stride": 1,
            "seconds": 0.0, "max_seconds": 0.0}

_POISON_MODES = ("nan", "inf", "constant")


class InjectedFault(RuntimeError):
    """The exception type raised by the built-in injectors.

    A distinct type so tests can assert that a captured
    :class:`~repro.core.parallel.LayerFailure` came from the harness and
    not from a genuine defect.
    """


class InjectedIOError(OSError):
    """An injected *transient* fault: an ``OSError`` subclass, so the
    engine's transient-retry classifier (:func:`repro.jobs.retry.is_transient`)
    treats it exactly like a real I/O blip."""


@dataclass
class Injector:
    """Base of the built-in injectors: acts at :attr:`site`, inert elsewhere.

    Subclasses set ``site`` and implement ``fire`` with that site's context
    keywords.  Counting injectors share :meth:`_hit`.
    """

    site: ClassVar[str]
    #: Fields handed straight to ``time.sleep``, which overflows on ``inf``.
    _finite: ClassVar[tuple[str, ...]] = ()
    _counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for spec in fields(self):
            low = _MINIMUM.get(spec.name)
            value = getattr(self, spec.name)
            if low is not None and not value >= low:
                raise ValueError(
                    f"{type(self).__name__}.{spec.name} must be >= {low}, got {value!r}"
                )
            if spec.name in self._finite and not math.isfinite(value):
                raise ValueError(
                    f"{type(self).__name__}.{spec.name} must be finite, got {value!r}"
                )

    def __call__(self, site: str, **ctx):
        return self.fire(**ctx) if site == self.site else None

    def _hit(self, first: int = 1, times: int = 1, key=None) -> int | None:
        """Count one matching call (per ``key``, thread-safely).

        Returns the call's 1-based number when it is one of calls
        ``first .. first + times - 1`` (``times=0``: every call from
        ``first`` on), else None.
        """
        with self._lock:
            count = self._counts[key] = self._counts.get(key, 0) + 1
        if count >= first and (times == 0 or count < first + times):
            return count
        return None


def _matches_layer(selector: int | str, index: int, job: LayerJob) -> bool:
    """A layer selector matches by job index (int) or layer name (str)."""
    if isinstance(selector, str):
        return job.name == selector
    return index == selector


@dataclass
class RaiseOnLayer(Injector):
    """Raise whenever the targeted layer is attempted.

    ``layer`` selects by job index (int) or layer name (str).  Persistent:
    retries at higher bit widths hit the same fault, so under
    ``on_error="retry-higher-bits"`` the layer ends in FP32 fallback.
    """

    site = "layer"
    layer: int | str
    message: str = "injected fault"

    def fire(self, index: int, job: LayerJob, weights: np.ndarray) -> None:
        if _matches_layer(self.layer, index, job):
            raise InjectedFault(f"{self.message} (layer {job.name!r}, index {index})")


@dataclass
class RaiseNth(Injector):
    """Raise on the ``nth`` layer call (1-based) and the ``times - 1`` after
    it (``times=0``: every call from the ``nth`` on).

    Under parallel fan-out *which layer* the Nth call hits depends on
    scheduling, but the invariant the robustness suite needs — exactly
    ``times`` injected failures per run — holds for every worker count.
    """

    site = "layer"
    nth: int = 1
    times: int = 1
    message: str = "injected transient fault"

    def fire(self, index: int, job: LayerJob, weights: np.ndarray) -> None:
        call = self._hit(self.nth, self.times)
        if call is not None:
            raise InjectedFault(f"{self.message} (call {call}, layer {job.name!r})")


@dataclass
class PoisonTensor(Injector):
    """Replace the targeted layer's weights with a poisoned copy.

    ``mode`` is one of ``"nan"`` (every ``stride``-th entry becomes NaN),
    ``"inf"`` (same with +inf) or ``"constant"`` (the whole tensor becomes
    one value — a zero-variance tensor).  The poison goes through the
    normal validation path, so this exercises ``validation=`` policies
    rather than the exception-isolation path.
    """

    site = "layer"
    layer: int | str
    mode: str = "nan"
    stride: int = 7
    value: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in _POISON_MODES:
            raise ValueError(
                f"unknown poison mode {self.mode!r}; expected one of {_POISON_MODES}"
            )

    def fire(self, index: int, job: LayerJob, weights: np.ndarray):
        if not _matches_layer(self.layer, index, job):
            return None
        poisoned = np.array(weights, dtype=np.float64, copy=True)
        flat = poisoned.ravel()
        if self.mode == "constant":
            flat[:] = self.value
        else:
            flat[:: self.stride] = np.nan if self.mode == "nan" else np.inf
        return poisoned


def _hang_until_deadline(hang: "HangOnLayer | HangWorker", job: LayerJob) -> None:
    """Spin on :func:`checkpoint` until the layer's deadline raises
    :class:`~repro.errors.LayerTimeoutError`; give up after
    ``hang.max_seconds`` with :class:`InjectedFault`."""
    give_up = time.monotonic() + hang.max_seconds
    while time.monotonic() < give_up:
        checkpoint()
        time.sleep(0.002)
    raise InjectedFault(
        f"{type(hang).__name__} gave up after {hang.max_seconds}s without a "
        f"deadline (layer {job.name!r}): was layer_timeout set?"
    )


@dataclass
class HangOnLayer(Injector):
    """Stall the targeted layer until the watchdog deadline fires.

    The stall is *cooperative*: it spins on
    :func:`repro.jobs.watchdog.checkpoint`, which raises
    :class:`~repro.errors.LayerTimeoutError` the moment the engine's
    per-layer deadline expires — the same mechanism that catches a hang in
    the clustering loop.  ``max_seconds`` is a harness safety net: with no
    deadline armed (no ``layer_timeout``), the hang gives up after that long
    and raises :class:`InjectedFault` instead of wedging the test suite.
    """

    site = "layer"
    layer: int | str
    max_seconds: float = 30.0

    def fire(self, index: int, job: LayerJob, weights: np.ndarray) -> None:
        if _matches_layer(self.layer, index, job):
            _hang_until_deadline(self, job)


@dataclass
class SlowLayer(Injector):
    """Delay layers by ``seconds`` (every layer, or just the targeted one).

    Sleeps in small checkpointed slices, so a ``layer_timeout`` shorter than
    the delay still converts it into a timeout failure promptly.
    """

    site = "layer"
    seconds: float
    layer: int | str | None = None

    def fire(self, index: int, job: LayerJob, weights: np.ndarray) -> None:
        if self.layer is not None and not _matches_layer(self.layer, index, job):
            return
        deadline = time.monotonic() + self.seconds
        while time.monotonic() < deadline:
            checkpoint()
            time.sleep(min(0.005, self.seconds))


@dataclass
class TransientIOFault(Injector):
    """Raise :class:`InjectedIOError` the first ``times`` attempts of a layer.

    Counted per layer, thread-safely, across retries: attempt 1..``times``
    raise, attempt ``times+1`` succeeds.  With ``transient_retries >= times``
    the engine absorbs the fault in place and the run's output is
    bit-identical to a fault-free run; with a smaller budget the error
    escalates to the ``on_error`` policy like any other exception.
    ``times`` must be >= 1: a transient fault both fires and clears.
    """

    site = "layer"
    layer: int | str
    times: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.times < 1:
            raise ValueError(f"TransientIOFault.times must be >= 1, got {self.times!r}")

    def fire(self, index: int, job: LayerJob, weights: np.ndarray) -> None:
        if not _matches_layer(self.layer, index, job):
            return
        attempt = self._hit(times=self.times, key=job.name)
        if attempt is not None:
            raise InjectedIOError(
                f"injected transient I/O fault (layer {job.name!r}, "
                f"attempt {attempt}/{self.times})"
            )


def crash_process() -> None:
    """SIGKILL the current process: no cleanup, no atexit, no flushing.

    The honest simulation of OOM-kills and power loss — everything not
    already fsynced is lost, which is exactly what the journal's
    append-then-fsync discipline is designed to survive.
    """
    os.kill(os.getpid(), signal.SIGKILL)


@dataclass
class CrashOnCall(Injector):
    """SIGKILL the process on the ``nth`` layer call (1-based).

    Counted thread-safely across workers.  Used (via ``REPRO_FAULTS=crash:N``)
    by the kill-and-resume tests: the subprocess dies mid-run, the journal
    keeps every layer that finished, and ``--resume`` completes the rest.
    """

    site = "layer"
    nth: int = 1

    def fire(self, index: int, job: LayerJob, weights: np.ndarray) -> None:
        if self._hit(self.nth) is not None:
            crash_process()


@dataclass
class _OnWorker(Injector):
    """Acts only inside fleet worker ``worker``
    (:func:`repro.jobs.fleet.current_worker_id`), so the same spec is inert
    under the thread backend."""

    site = "layer"
    worker: int

    def __call__(self, site: str, **ctx):
        from repro.jobs.fleet import current_worker_id

        if current_worker_id() != self.worker:
            return None
        return super().__call__(site, **ctx)


@dataclass
class KillWorker(CrashOnCall, _OnWorker):
    """SIGKILL fleet worker ``worker`` on its ``nth`` layer call (1-based).

    :class:`CrashOnCall` counted within one worker: the canonical fleet
    chaos fault.  The supervisor must reassign the leased layer to a
    survivor and the final archive must be byte-identical to an
    undisturbed run.
    """


@dataclass
class MuteWorker(_OnWorker):
    """Silence worker ``worker``'s heartbeats, then wedge it.

    Simulates the worker that is alive but unresponsive — stuck in
    GIL-holding native code, swapping, or otherwise never beating.  The
    fault mutes the heartbeat thread
    (:func:`repro.jobs.fleet.mute_heartbeat`) and then sleeps without
    checkpointing; the supervisor must notice the silence, SIGKILL the
    worker and reassign its layer.  ``max_seconds`` bounds the wedge so a
    misconfigured harness fails loudly instead of hanging.
    """

    _finite = ("max_seconds",)
    max_seconds: float = 30.0

    def fire(self, index: int, job: LayerJob, weights: np.ndarray) -> None:
        from repro.jobs.fleet import mute_heartbeat

        mute_heartbeat()
        time.sleep(self.max_seconds)  # the supervisor SIGKILLs us long before
        raise InjectedFault(
            f"MuteWorker outlived {self.max_seconds}s of silence "
            f"(layer {job.name!r}): did the supervisor's liveness check run?"
        )


@dataclass
class HangWorker(_OnWorker):
    """Cooperatively hang worker ``worker``'s current layer.

    The fleet counterpart of :class:`HangOnLayer`: the stall polls
    :func:`repro.jobs.watchdog.checkpoint`, so the *worker-local* watchdog
    converts it into a ``timeout`` failure while heartbeats keep flowing —
    proving per-layer deadlines still work inside fleet workers, distinct
    from the heartbeat-silence path :class:`MuteWorker` exercises.
    """

    max_seconds: float = 30.0

    def fire(self, index: int, job: LayerJob, weights: np.ndarray) -> None:
        _hang_until_deadline(self, job)


@dataclass
class HangForward(Injector):
    """Wedge the batch worker inside a forward for ``seconds``.

    The sleep is deliberately *non-cooperative* (no checkpoints): this is
    the hung-mmap-read / stuck-native-code hang class only an external
    watchdog can catch.  Fires on the first ``times`` forwards of ``model``
    (None = any model; ``times=0`` = every forward), then clears — so a
    replaced worker's retry of the next request succeeds, proving recovery.
    """

    site = "forward"
    _finite = ("seconds",)
    model: str | None = None
    seconds: float = 30.0
    times: int = 1

    def fire(self, model: str) -> None:
        if self.model in (None, model) and self._hit(times=self.times) is not None:
            time.sleep(self.seconds)


@dataclass
class FailForward(Injector):
    """Raise :class:`InjectedFault` from the first ``times`` forwards of
    ``model`` (None = any model; ``times=0`` = every forward, persistent).

    The transient-failure shape the health breaker counts: enough of these
    inside the breaker window must trip the model into quarantine.
    """

    site = "forward"
    model: str | None = None
    times: int = 1

    def fire(self, model: str) -> None:
        if self.model not in (None, model):
            return
        hit = self._hit(times=self.times)
        if hit is not None:
            raise self._error(model, hit)

    def _error(self, model: str, hit: int) -> Exception:
        return InjectedFault(f"injected forward failure (model {model!r}, hit {hit})")


@dataclass
class CorruptMemberAtServe(FailForward):
    """:class:`FailForward` raising a lazy-CRC integrity error instead.

    Raises :class:`~repro.errors.ChecksumMismatchError` — the exact type a
    ``verify="lazy"`` member read produces on bit rot.  Deterministic
    regardless of which members earlier batches already touched and cached,
    which is what makes it usable from a live chaos script; the
    genuinely-corrupt-bytes path is covered by the in-process self-healing
    suite, which flips real bytes on disk before first touch.
    """

    def _error(self, model: str, hit: int) -> Exception:
        return ChecksumMismatchError(
            f"injected member CRC mismatch for model {model!r} "
            f"(corrupt-member-at-serve)"
        )


@dataclass
class SlowLoad(Injector):
    """Delay every archive load (or just ``model``'s) by ``seconds``.

    Exercises that a slow quarantine reload or hot-swap never blocks the
    request path of *other* models, and widens probe/reload race windows
    for tests.
    """

    site = "load"
    _finite = ("seconds",)
    seconds: float
    model: str | None = None

    def fire(self, model: str) -> None:
        if self.model in (None, model):
            time.sleep(self.seconds)


@dataclass(frozen=True)
class _Chain:
    """Injectors called in order; see :func:`compose_injectors`."""

    injectors: tuple

    def __call__(self, site: str, **ctx):
        replaced = None
        for inject in self.injectors:
            outcome = inject(site, **ctx)
            if outcome is not None:
                replaced = ctx["weights"] = outcome
        return replaced


def compose_injectors(*injectors) -> _Chain:
    """Chain injectors: each may sleep or raise (the first raise wins); a
    replacement array is the ``weights`` the injectors after it see.
    Chains compare equal when their injectors do."""
    return _Chain(injectors)


def _parse_layer(token: str) -> int | str:
    """Layer selector from a spec token: an int job index or a layer name."""
    try:
        return int(token)
    except ValueError:
        return token


#: The spec grammar: kind -> (injector, its fields in argument order).  The
#: first argument is required; omitted later ones take the class defaults.
_SPEC_KINDS = {
    "raise": (RaiseOnLayer, ("layer",)),
    "hang": (HangOnLayer, ("layer",)),
    "slow": (SlowLayer, ("seconds", "layer")),
    "transient-io": (TransientIOFault, ("layer", "times")),
    "crash": (CrashOnCall, ("nth",)),
    "poison": (PoisonTensor, ("layer", "mode")),
    "kill-worker": (KillWorker, ("worker", "nth")),
    "mute-worker": (MuteWorker, ("worker", "max_seconds")),
    "hang-worker": (HangWorker, ("worker", "max_seconds")),
    "hang-forward": (HangForward, ("model", "seconds", "times")),
    "fail-forward": (FailForward, ("model", "times")),
    "corrupt-member-at-serve": (CorruptMemberAtServe, ("model", "times")),
    "slow-load": (SlowLoad, ("seconds", "model")),
}

#: How a spec argument becomes a field value (fields not listed stay str).
_ARG_PARSERS = {"layer": _parse_layer, "seconds": float, "max_seconds": float,
                "times": int, "nth": int, "worker": int}


def injector_from_spec(spec: str):
    """Build a fault injector from a comma-separated text spec.

    Forms (``LAYER`` is a job index or a layer name, ``W`` a fleet worker
    id, ``MODEL`` a registered model name; ``TIMES=0`` means every call)::

        raise:LAYER                            RaiseOnLayer
        hang:LAYER                             HangOnLayer
        slow:SECONDS[:LAYER]                   SlowLayer
        transient-io:LAYER[:TIMES]             TransientIOFault
        crash:NTH                              CrashOnCall
        poison:LAYER[:MODE]                    PoisonTensor
        kill-worker:W[:NTH]                    KillWorker
        mute-worker:W[:MAX_SECONDS]            MuteWorker
        hang-worker:W[:MAX_SECONDS]            HangWorker
        hang-forward:MODEL[:SECONDS[:TIMES]]   HangForward
        fail-forward:MODEL[:TIMES]             FailForward
        corrupt-member-at-serve:MODEL[:TIMES]  CorruptMemberAtServe
        slow-load:SECONDS[:MODEL]              SlowLoad

    Returns None for an empty spec, the injector for one part, and the
    :func:`compose_injectors` chain for several.  Raises ``ValueError`` on
    any part it cannot parse or that could never fire — a silently ignored
    fault spec would make a chaos test pass vacuously.
    """
    injectors = []
    for part in filter(None, (p.strip() for p in spec.split(","))):
        kind, _, rest = part.partition(":")
        try:
            if kind not in _SPEC_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
            cls, names = _SPEC_KINDS[kind]
            args = rest.split(":") if rest else []
            if not 1 <= len(args) <= len(names) or "" in args:
                usage = names[0] + "".join(f"[:{n}" for n in names[1:])
                raise ValueError(
                    f"expected {kind}:{usage.upper()}{']' * (len(names) - 1)}"
                )
            injectors.append(cls(**{
                name: _ARG_PARSERS.get(name, str)(arg) for name, arg in zip(names, args)
            }))
        except ValueError as exc:
            raise ValueError(f"bad fault spec {part!r}: {exc}") from exc
    if not injectors:
        return None
    return injectors[0] if len(injectors) == 1 else compose_injectors(*injectors)


def injector_from_env(env: str = FAULTS_ENV):
    """Injector described by the ``REPRO_FAULTS`` environment variable.

    Returns None when unset/empty — the universal production case; the
    variable exists so chaos tests can plant faults inside a CLI subprocess
    without test-only flags.
    """
    return injector_from_spec(os.environ.get(env, ""))


def truncate_file(path: str | Path, keep: int | float) -> int:
    """Truncate the file at ``path``, simulating a crash mid-write.

    ``keep`` is an absolute byte count (int) or a fraction of the current
    size (float in (0, 1)).  Returns the resulting size in bytes.
    """
    path = Path(path)
    size = path.stat().st_size
    if isinstance(keep, float):
        if not 0.0 <= keep < 1.0:
            raise ValueError(f"fractional keep must be in [0, 1), got {keep}")
        keep_bytes = int(size * keep)
    else:
        keep_bytes = min(int(keep), size)
    data = path.read_bytes()[:keep_bytes]
    path.write_bytes(data)
    return keep_bytes


def corrupt_bytes(path: str | Path, offset: int, xor: int = 0xFF, count: int = 1) -> None:
    """Flip bits in ``count`` bytes at ``offset``, simulating bit rot.

    ``offset`` may be negative (from the end).  ``xor`` is the mask applied
    to each byte (default 0xFF: invert); it must be non-zero, otherwise
    nothing would change.
    """
    if xor == 0:
        raise ValueError("xor mask 0 would be a no-op")
    path = Path(path)
    data = bytearray(path.read_bytes())
    if offset < 0:
        offset += len(data)
    if not 0 <= offset < len(data):
        raise ValueError(f"offset {offset} outside file of {len(data)} bytes")
    for i in range(offset, min(offset + count, len(data))):
        data[i] ^= xor
    path.write_bytes(bytes(data))
