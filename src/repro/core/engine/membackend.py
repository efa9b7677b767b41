"""The memory-backend registry: pluggable models behind one contract.

Every accelerator prices its off-chip traffic through the six-method
:class:`~repro.core.engine.memory.MemoryModel` contract.  This registry
maps a backend *name* — carried by accelerator configs and therefore by
``repro.spec/1`` fingerprints — to a builder producing a model honouring
that contract:

- ``analytic`` (default) — the scalar interface model, bit-identical to
  the pre-registry behaviour.
- ``hbm`` — the bank-conflict-aware, trace-capable device model of
  :mod:`repro.core.engine.hbm`.
- ``hbm-pim`` — the same device model with near-bank compute enabled
  (``pim_reduce_cost`` available, accelerators may offload reductions).

Example:
    >>> from repro.electronics.memory import MemorySystem
    >>> sorted(list_memory_backends())
    ['analytic', 'hbm', 'hbm-pim']
    >>> type(build_memory_backend("analytic", MemorySystem())).__name__
    'MemoryModel'
    >>> build_memory_backend("hbm-pim", MemorySystem()).pim_active
    True
    >>> build_memory_backend("sram", MemorySystem())
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: unknown memory backend 'sram'; registered backends: analytic, hbm, hbm-pim
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.core.context import ExecutionContext
from repro.core.engine.hbm.geometry import HBMGeometry
from repro.core.engine.memory import MemoryModel
from repro.electronics.memory import MemorySystem
from repro.errors import ConfigurationError

#: A builder maps (system, context, geometry) to a contract-honouring model.
MemoryBackendBuilder = Callable[
    [MemorySystem, Optional[ExecutionContext], HBMGeometry], MemoryModel
]

_BACKENDS: Dict[str, MemoryBackendBuilder] = {}


def register_memory_backend(
    name: str, builder: MemoryBackendBuilder
) -> None:
    """Register ``builder`` under ``name`` (idempotent re-registration)."""
    if not name:
        raise ConfigurationError("memory backend name must be non-empty")
    _BACKENDS[name] = builder


def list_memory_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def check_memory_backend(name: str) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless ``name``
    is a registered backend (the error lists the registered ones)."""
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown memory backend {name!r}; registered backends: "
            + ", ".join(list_memory_backends())
        )


def build_memory_backend(
    name: str,
    system: MemorySystem,
    context: Optional[ExecutionContext] = None,
    geometry: Optional[HBMGeometry] = None,
) -> MemoryModel:
    """Build the named backend over ``system`` at ``context``.

    ``geometry`` defaults to :class:`HBMGeometry`'s defaults; the
    analytic backend ignores it entirely.
    """
    check_memory_backend(name)
    return _BACKENDS[name](system, context, geometry or HBMGeometry())


def _build_analytic(
    system: MemorySystem,
    context: Optional[ExecutionContext],
    geometry: HBMGeometry,
) -> MemoryModel:
    return MemoryModel(system, context=context)


def _build_hbm(
    system: MemorySystem,
    context: Optional[ExecutionContext],
    geometry: HBMGeometry,
    pim: bool = False,
) -> MemoryModel:
    # Deferred: only runs that pick an HBM backend load the device model.
    from repro.core.engine.hbm.model import HBMMemoryModel

    return HBMMemoryModel(system, context=context, geometry=geometry, pim=pim)


register_memory_backend("analytic", _build_analytic)
register_memory_backend("hbm", _build_hbm)
register_memory_backend("hbm-pim", partial(_build_hbm, pim=True))
