"""Deterministic fault-injection harness for robustness testing.

Every injector is called as ``injector(site, **ctx)`` at the ``"layer"``,
``"forward"`` or ``"load"`` site; :func:`injector_from_spec` builds one from
a ``REPRO_FAULTS`` text spec (see :mod:`repro.testing.faults`).
"""

from repro.testing.faults import (
    InjectedFault,
    Injector,
    PoisonTensor,
    RaiseNth,
    RaiseOnLayer,
    compose_injectors,
    corrupt_bytes,
    injector_from_env,
    injector_from_spec,
    truncate_file,
)

__all__ = [
    "InjectedFault",
    "Injector",
    "PoisonTensor",
    "RaiseNth",
    "RaiseOnLayer",
    "compose_injectors",
    "corrupt_bytes",
    "injector_from_env",
    "injector_from_spec",
    "truncate_file",
]
