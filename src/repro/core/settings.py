"""Engine settings: the one place the ``REPRO_*`` engine knobs are read.

:class:`EngineSettings` holds the eight knobs that steer a quantization run
(DESIGN.md §5a has the table).  Each knob's environment variable is
``REPRO_`` + the field name in upper case.  :meth:`EngineSettings.resolve`
runs once per run, at the outermost engine entry
(:func:`~repro.core.parallel.quantize_layers`,
:func:`~repro.jobs.fleet.run_fleet_layers`,
:func:`~repro.jobs.runner.run_durable_layers`); inner hops receive the
resolved object and never consult the environment again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.errors import QuantizationError

ON_ERROR_POLICIES = ("fail", "skip", "fp32-fallback", "retry-higher-bits")
BACKENDS = ("thread", "process")

# How an environment string becomes a field value, keyed by annotation.
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number of seconds"),
    "float | None": (float, "a number of seconds"),
    "str": (str, "a string"),
}


@dataclass(frozen=True)
class EngineSettings:
    """Resolved, validated engine knobs; construction rejects bad values.

    ``workers=0`` normalizes to ``os.cpu_count()``; ``layer_timeout=None``
    disables the per-layer watchdog.
    """

    workers: int = 1
    backend: str = "thread"
    on_error: str = "fail"
    layer_timeout: float | None = None
    transient_retries: int = 0
    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 10.0
    max_reassignments: int = 3

    def __post_init__(self) -> None:
        for name in ("workers", "transient_retries", "max_reassignments"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise QuantizationError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise QuantizationError(f"{name} must be >= 0, got {value}")
        for name in ("layer_timeout", "heartbeat_interval", "heartbeat_timeout"):
            value = getattr(self, name)
            if value is None and name == "layer_timeout":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise QuantizationError(
                    f"{name} must be a number of seconds, got {value!r}"
                )
            if not value > 0:
                raise QuantizationError(f"{name} must be > 0 seconds, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.backend not in BACKENDS:
            raise QuantizationError(
                f"unknown engine backend {self.backend!r}; use one of {BACKENDS}"
            )
        if self.on_error not in ON_ERROR_POLICIES:
            raise QuantizationError(
                f"unknown on_error policy {self.on_error!r}; "
                f"use one of {ON_ERROR_POLICIES}"
            )
        if not self.heartbeat_timeout > self.heartbeat_interval:
            raise QuantizationError(
                f"heartbeat_timeout ({self.heartbeat_timeout!r}s) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval!r}s)"
            )
        if self.workers == 0:
            object.__setattr__(self, "workers", os.cpu_count() or 1)

    @classmethod
    def resolve(cls, **explicit) -> "EngineSettings":
        """An explicit non-None value wins, then ``REPRO_<FIELD>``, then the default.

        An empty variable counts as unset.  Raises
        :class:`~repro.errors.QuantizationError` naming the variable when it
        does not parse, and naming the field when a value is out of range.
        """
        values = {}
        for spec in fields(cls):
            value = explicit.pop(spec.name, None)
            if value is None:
                variable = f"REPRO_{spec.name.upper()}"
                raw = os.environ.get(variable)
                if raw:
                    parse, kind = _PARSERS[spec.type]
                    try:
                        value = parse(raw)
                    except ValueError:
                        raise QuantizationError(
                            f"{variable} must be {kind}, got {raw!r}"
                        ) from None
            if value is not None:
                values[spec.name] = value
        if explicit:
            raise TypeError(f"unknown engine settings: {sorted(explicit)}")
        return cls(**values)
