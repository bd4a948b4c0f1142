"""EngineSettings: one validated path from explicit values and REPRO_* variables."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.parallel import LayerJob, quantize_layers
from repro.core.settings import EngineSettings
from repro.errors import QuantizationError
from repro.jobs.fleet import run_fleet_layers

FIELDS = [spec.name for spec in fields(EngineSettings)]

# Per field: a valid environment string and the value it resolves to.
GOOD_ENV = {
    "workers": ("3", 3),
    "backend": ("process", "process"),
    "on_error": ("skip", "skip"),
    "layer_timeout": ("2.5", 2.5),
    "transient_retries": ("4", 4),
    "heartbeat_interval": ("0.05", 0.05),
    "heartbeat_timeout": ("30", 30.0),
    "max_reassignments": ("0", 0),
}

# Per field: (explicit malformed, explicit out of range,
#             env malformed, env out of range).
BAD = {
    "workers": (2.5, -1, "many", "-1"),
    "backend": (3, "carrier-pigeon", "Thread", "carrier-pigeon"),
    "on_error": (["fail"], "panic", "FAIL", "explode"),
    "layer_timeout": ("soon", 0, "soon", "-1"),
    "transient_retries": (1.5, -1, "1.5", "-1"),
    "heartbeat_interval": ("fast", 0, "fast", "0"),
    "heartbeat_timeout": (True, -1.0, "slow", "-1"),
    "max_reassignments": (2.5, -1, "x", "-1"),
}
TEXT_FIELDS = ("backend", "on_error")


def variable(name: str) -> str:
    return f"REPRO_{name.upper()}"


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in FIELDS:
        monkeypatch.delenv(variable(name), raising=False)


def test_tables_cover_every_field():
    assert set(GOOD_ENV) == set(BAD) == set(FIELDS)
    assert len(FIELDS) == 8


def test_defaults():
    settings = EngineSettings.resolve()
    assert settings == EngineSettings(
        workers=1,
        backend="thread",
        on_error="fail",
        layer_timeout=None,
        transient_retries=0,
        heartbeat_interval=0.2,
        heartbeat_timeout=10.0,
        max_reassignments=3,
    )


@pytest.mark.parametrize("name", FIELDS)
def test_environment_read_under_field_name(monkeypatch, name):
    raw, expected = GOOD_ENV[name]
    monkeypatch.setenv(variable(name), raw)
    assert getattr(EngineSettings.resolve(), name) == expected
    # An empty variable counts as unset.
    monkeypatch.setenv(variable(name), "")
    assert getattr(EngineSettings.resolve(), name) == getattr(EngineSettings(), name)


@pytest.mark.parametrize("name", FIELDS)
def test_explicit_value_wins_over_environment(monkeypatch, name):
    monkeypatch.setenv(variable(name), BAD[name][2])
    explicit = getattr(EngineSettings(), name)
    if explicit is None:
        explicit = 1.0
    assert getattr(EngineSettings.resolve(**{name: explicit}), name) == explicit


@pytest.mark.parametrize("kind", ["malformed", "out-of-range"])
@pytest.mark.parametrize("source", ["explicit", "env"])
@pytest.mark.parametrize("name", FIELDS)
def test_bad_values_rejected(monkeypatch, name, source, kind):
    explicit_bad, explicit_range, env_bad, env_range = BAD[name]
    if source == "explicit":
        value = explicit_bad if kind == "malformed" else explicit_range
        with pytest.raises(QuantizationError, match=name):
            EngineSettings.resolve(**{name: value})
    else:
        monkeypatch.setenv(variable(name), env_bad if kind == "malformed" else env_range)
        # A string that does not parse names the variable; a parsed value
        # out of range names the field.
        parse_error = kind == "malformed" and name not in TEXT_FIELDS
        expected = variable(name) if parse_error else name
        with pytest.raises(QuantizationError, match=expected):
            EngineSettings.resolve()


def test_heartbeat_timeout_must_exceed_interval(monkeypatch):
    with pytest.raises(QuantizationError, match="heartbeat_timeout"):
        EngineSettings(heartbeat_interval=1.0, heartbeat_timeout=0.5)
    monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "0.1")
    with pytest.raises(QuantizationError, match="heartbeat_timeout"):
        EngineSettings.resolve()


def test_unknown_setting_is_a_type_error():
    with pytest.raises(TypeError, match="wokers"):
        EngineSettings.resolve(wokers=2)


class TestEntryPointsValidate:
    """Every engine entry rejects bad knobs at resolve time, on either backend."""

    @pytest.fixture
    def state(self):
        rng = np.random.default_rng(0)
        return {"a": rng.normal(0, 0.05, size=(16, 16))}

    def test_thread_backend_rejects_bad_heartbeat_env(self, state, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "bogus")
        with pytest.raises(QuantizationError, match="REPRO_HEARTBEAT_INTERVAL"):
            quantize_layers(state, [LayerJob("a", 3)])

    @pytest.mark.parametrize("value", [-1, 2.5])
    def test_fleet_rejects_bad_explicit_reassignments(self, state, value):
        with pytest.raises(QuantizationError, match="max_reassignments"):
            run_fleet_layers(state, [LayerJob("a", 3)], max_reassignments=value)

    def test_fleet_rejects_bad_env_reassignments(self, state, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_REASSIGNMENTS", "-1")
        with pytest.raises(QuantizationError, match="max_reassignments"):
            quantize_layers(state, [LayerJob("a", 3)], backend="process")
