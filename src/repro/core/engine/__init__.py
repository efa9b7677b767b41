"""The shared photonic execution engine.

TRON and GHOST run on the same photonic substrate — MR-bank matmul
arrays, HBM streaming, linear streaming pipelines — and this package is
that substrate's single implementation:

- :mod:`repro.core.engine.matmul` — the :func:`photonic_matmul`
  primitive and the tiled :class:`ArrayExecutor` (functional + cost
  paths, memoized device-physics curves).
- :mod:`repro.core.engine.memory` — the :class:`MemoryModel` costing
  streamed weights, burst/random feature traffic and buffer bounces
  (thermal corners derate the HBM interface).
- :mod:`repro.core.engine.corners` — per-context array physics:
  variation sampling, TED correction power, ring-yield gating (scalar
  and batched Monte-Carlo forms, memoized per corner).
- :mod:`repro.core.engine.pipeline` — streaming-pipeline composition
  built on :mod:`repro.core.scheduling`.
- :mod:`repro.core.engine.memo` — the bounded in-process LRU memos
  behind every physics cache (physics is never persisted across
  processes) and :func:`fingerprint`, the key digest of the serving
  caches and experiment specs.

Accelerators compose these into workload-specific datapaths; the
analysis layer (figures, claims, sweeps) only ever sees the uniform
``Accelerator.run(workload)`` entry point of :mod:`repro.core.base`.
"""

from repro.core.engine.corners import (
    ArrayContextPhysics,
    BatchContextPhysics,
    batch_context_physics,
    batch_context_physics_for,
    context_physics,
    reserve_dies,
)
from repro.core.engine.matmul import (
    ArrayExecutor,
    ArraySpec,
    nominal_breakdown_pj,
    photonic_matmul,
    prime_breakdown_cache,
)
from repro.core.engine.soa import (
    ColumnEnergy,
    ColumnLatency,
    SoAStats,
    register_soa_evaluator,
    soa_evaluator,
    workload_evaluator,
)
from repro.core.engine.hbm import CommandTrace, HBMGeometry, HBMMemoryModel
from repro.core.engine.membackend import (
    build_memory_backend,
    list_memory_backends,
    register_memory_backend,
)
from repro.core.engine import memo
from repro.core.engine.memo import LRUMemo, MemoStats, fingerprint
from repro.core.engine.memory import MemoryModel, Traffic
from repro.core.engine.pipeline import (
    PipelineStage,
    overlapped_stage_latency_ns,
    pipeline_latency_ns,
    serial_waves,
)


#: The ``engine.*`` memos, in ``physics_cache`` envelope order.
_PHYSICS_MEMOS = ("breakdown", "context_physics", "design_fsr", "movement")


def physics_cache_stats() -> dict:
    """One dict aggregating every physics-cache observable: the
    registry's ``engine.*`` memos — what ``repro sweep --json`` and
    ``repro serve --stats`` surface.
    """
    registry = memo.stats("engine.")
    return {name: registry["engine." + name] for name in _PHYSICS_MEMOS}


def clear_physics_cache() -> None:
    """Drop the ``engine.*`` memos (benchmarks use this to time the
    unmemoized path).  The graph memo is deliberately untouched."""
    memo.clear("engine.")


__all__ = [
    "ArrayContextPhysics",
    "ArrayExecutor",
    "ArraySpec",
    "BatchContextPhysics",
    "ColumnEnergy",
    "ColumnLatency",
    "CommandTrace",
    "HBMGeometry",
    "HBMMemoryModel",
    "LRUMemo",
    "MemoStats",
    "MemoryModel",
    "PipelineStage",
    "SoAStats",
    "Traffic",
    "batch_context_physics",
    "batch_context_physics_for",
    "build_memory_backend",
    "clear_physics_cache",
    "context_physics",
    "fingerprint",
    "list_memory_backends",
    "memo",
    "nominal_breakdown_pj",
    "overlapped_stage_latency_ns",
    "photonic_matmul",
    "physics_cache_stats",
    "pipeline_latency_ns",
    "prime_breakdown_cache",
    "register_memory_backend",
    "register_soa_evaluator",
    "reserve_dies",
    "serial_waves",
    "soa_evaluator",
    "workload_evaluator",
]
