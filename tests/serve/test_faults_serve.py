"""Serve-path fault injectors: spec parsing and end-to-end chaos behavior."""

from __future__ import annotations

import time

import pytest

from repro.errors import ChecksumMismatchError, ModelQuarantinedError
from repro.serve import AdmissionController, MicroBatcher, ModelRegistry
from repro.serve.health import QUARANTINED, HealthMonitor, HealthPolicy
from repro.testing.faults import (
    FAULTS_ENV,
    CorruptMemberAtServe,
    FailForward,
    HangForward,
    InjectedFault,
    SlowLoad,
    injector_from_env,
    injector_from_spec,
)
from tests.conftest import MICRO_CONFIG


class TestSpecParsing:
    def test_engine_kinds_are_skipped(self):
        """One REPRO_FAULTS value carries both families; engine kinds are
        inert at the serve sites."""
        spec = "raise:0,slow:5,hang-forward:alpha:5:1,kill-worker:1"
        injector = injector_from_spec(spec)
        started = time.monotonic()
        assert injector("forward", model="beta") is None
        assert injector("load", model="alpha") is None
        assert time.monotonic() - started < 1.0

    def test_engine_only_spec_yields_none(self):
        injector = injector_from_spec("raise:0,slow:5")
        started = time.monotonic()
        assert injector("forward", model="alpha") is None
        assert injector("load", model="alpha") is None
        assert time.monotonic() - started < 1.0

    def test_unknown_kind_raises_in_both_parsers(self):
        """One parser checks every part, whichever path the process serves."""
        for spec in ("melt-cpu:1", "fail-forward:alpha,melt-cpu:1", "crash:2,melt-cpu:1"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                injector_from_spec(spec)

    def test_composition_first_raise_wins(self):
        injector = injector_from_spec(
            "fail-forward:alpha:1,slow-load:0.01")
        with pytest.raises(InjectedFault):
            injector("forward", model="alpha")
        injector("forward", model="alpha")  # times=1: cleared
        injector("load", model="alpha")  # only the slow-load applies

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert injector_from_env() is None
        monkeypatch.setenv(FAULTS_ENV, "fail-forward:alpha:2")
        injector = injector_from_env()
        assert isinstance(injector, FailForward)


class TestInjectorBehavior:
    def test_fail_forward_counts_and_clears(self):
        injector = FailForward("alpha", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector("forward", model="alpha")
        injector("forward", model="alpha")  # cleared
        injector("forward", model="beta")  # other models never matched

    def test_fail_forward_persistent(self):
        injector = FailForward(times=0)  # any model, forever
        for _ in range(5):
            with pytest.raises(InjectedFault):
                injector("forward", model="anything")

    def test_corrupt_member_raises_integrity_type(self):
        injector = CorruptMemberAtServe("alpha")
        with pytest.raises(ChecksumMismatchError, match="CRC"):
            injector("forward", model="alpha")
        injector("forward", model="alpha")  # times=1: cleared
        injector("load", model="alpha")  # wrong site: inert

    def test_hang_forward_ignores_load_stage(self):
        injector = HangForward("alpha", seconds=5.0, times=1)
        started = time.monotonic()
        injector("load", model="alpha")
        injector("forward", model="beta")
        assert time.monotonic() - started < 1.0

    def test_hang_forward_times_zero_is_every_call(self):
        """times=0 means every call for all three forward kinds,
        hang-forward included."""
        injector = HangForward("alpha", seconds=0.05, times=0)
        started = time.monotonic()
        for _ in range(3):
            injector("forward", model="alpha")
        assert time.monotonic() - started >= 0.15


@pytest.fixture
def registry(micro_archive):
    registry = ModelRegistry()
    registry.register("micro", micro_archive, config=MICRO_CONFIG)
    yield registry
    registry.close()


class TestFaultsDriveTheBreaker:
    def test_fail_forward_trips_quarantine(self, registry):
        """Persistent forward failures walk the model through the breaker:
        requests 1..threshold get 500-shaped errors, request threshold+1
        is refused at admission with 503-shaped ModelQuarantinedError."""
        policy = HealthPolicy(breaker_window=30.0, breaker_threshold=3,
                              cooldown=60.0)
        health = HealthMonitor(registry, policy=policy)
        batcher = MicroBatcher(
            registry, AdmissionController(max_pending=16, request_timeout=5.0),
            batch_window=0.0, health=health, fault=FailForward("micro", times=0),
        )
        try:
            for _ in range(policy.breaker_threshold):
                with pytest.raises(InjectedFault):
                    batcher.wait(batcher.submit("micro", [1, 2, 3]))
            assert health.model("micro").state == QUARANTINED
            with pytest.raises(ModelQuarantinedError):
                batcher.submit("micro", [1, 2, 3])
            assert batcher.admission.depth == 0
        finally:
            batcher.close()
            health.close()

    def test_slow_load_delays_registry_loads(self, micro_archive):
        registry = ModelRegistry(fault=SlowLoad(0.2, model="slowpoke"))
        try:
            started = time.monotonic()
            registry.register("slowpoke", micro_archive, config=MICRO_CONFIG)
            assert time.monotonic() - started >= 0.2
        finally:
            registry.close()
