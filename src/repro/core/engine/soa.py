"""Structure-of-arrays evaluation machinery shared by the platform
evaluators.

The array-resident path evaluates a whole sweep x corner x sample batch
of configurations as NumPy columns: each knob is a column, each energy /
latency breakdown field is a column, and Monte-Carlo reductions (yield
masks) are boolean masks over those columns.  Scalar
:class:`~repro.core.reports.RunReport` objects materialize from the
stacked columns afterwards.

Bit-exactness contract: every helper here replicates the scalar cost
path's accumulation order exactly — chained left-associative adds
starting from the same identity, the same int-vs-float ceiling
divisions, the same memoized physics values — so a materialized point is
indistinguishable from one produced by the scalar oracle.  The property
suite (``tests/unit/test_soa_parity.py``) enforces this.

Platform evaluators register themselves per ``(platform, workload
kind)``; :func:`workload_evaluator` is how the sweep, Monte-Carlo and
serving engines look them up (returning ``None`` triggers the scalar
fallback).  Suites need no per-platform code: :func:`suite_evaluator`
chains the columns of each member's registered evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import WorkloadKind, check_kind_contract
from repro.core.context import ExecutionContext
from repro.core.engine.corners import context_physics
from repro.core.engine.hbm.geometry import HBMGeometry
from repro.core.engine.matmul import (
    ArraySpec,
    nominal_breakdown_pj,
    prime_breakdown_cache,
)
from repro.core.reports import (
    ENERGY_FIELDS,
    LATENCY_FIELDS,
    StackedRunReports,
)
from repro.errors import MappingError, YieldError


@dataclass
class SoAStats:
    """Bookkeeping of one array-resident evaluation.

    Surfaced in the ``--json`` envelopes so users can see how much work
    the SoA path collapsed (and whether it fell back to scalar).

    Attributes:
        points: evaluation points covered.
        groups: distinct evaluation groups the points collapsed into
            (shared physics / memory / device computations).
        materialized_reports: scalar reports constructed from the stack.
        fallback_points: points evaluated through the scalar path
            because no SoA evaluator covered them.
    """

    points: int = 0
    groups: int = 0
    materialized_reports: int = 0
    fallback_points: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "points": self.points,
            "groups": self.groups,
            "materialized_reports": self.materialized_reports,
            "fallback_points": self.fallback_points,
        }


class _Columns:
    """Per-field breakdown columns with the scalar report algebra.

    Mirrors ``EnergyReport`` / ``LatencyReport``: per-field ``+`` and
    ``scaled``, and a ``total`` that chains fields in declaration order
    from integer zero — exactly the scalar ``sum(...)`` order, so the
    float results match bit for bit.  Fields an evaluator never touches
    stay the scalar ``0.0`` (adding or scaling it is exact).
    """

    FIELDS: Tuple[str, ...] = ()

    def __init__(self, **values: object) -> None:
        for name in self.FIELDS:
            setattr(self, name, values.get(name, 0.0))

    def __add__(self, other: "_Columns") -> "_Columns":
        return type(self)(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in self.FIELDS
            }
        )

    def scaled(self, factor: object) -> "_Columns":
        return type(self)(
            **{name: getattr(self, name) * factor for name in self.FIELDS}
        )

    @property
    def total(self) -> object:
        out: object = 0
        for name in self.FIELDS:
            out = out + getattr(self, name)
        return out

    def as_arrays(self, num_points: int) -> Dict[str, np.ndarray]:
        """Columns as owned float64 arrays of length ``num_points``
        (scalar fields broadcast)."""
        out = {}
        for name in self.FIELDS:
            value = getattr(self, name)
            if np.ndim(value) == 0:
                out[name] = np.full(num_points, float(value))
            else:
                out[name] = np.asarray(value, dtype=float)
        return out


class ColumnEnergy(_Columns):
    """Stacked :class:`~repro.core.reports.EnergyReport` columns."""

    FIELDS = ENERGY_FIELDS


class ColumnLatency(_Columns):
    """Stacked :class:`~repro.core.reports.LatencyReport` columns."""

    FIELDS = LATENCY_FIELDS


def ceil_div(numerator: object, denominator: object) -> object:
    """Exact integer ceiling division, elementwise on int columns."""
    return -(-numerator // denominator)


def group_indices(keys: Sequence[object]) -> Dict[object, List[int]]:
    """Point indices grouped by a hashable per-point key, in first-seen
    order (frozen config sub-objects hash fast — never use repr)."""
    groups: Dict[object, List[int]] = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    return groups


def resolve_array_physics(
    specs: Sequence[ArraySpec],
    contexts: Sequence[Optional[ExecutionContext]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Yield-gated array dimensions and correction power, per point.

    Returns ``(usable_rows, usable_cols, correction_power_mw)`` columns.
    Nominal points keep the spec dimensions and zero correction power.

    Raises:
        YieldError: with the scalar path's exact message, if any point's
            die has no usable hardware (matching ``ArrayExecutor.cycles_for``).
    """
    n = len(specs)
    usable_rows = np.empty(n, dtype=np.int64)
    usable_cols = np.empty(n, dtype=np.int64)
    correction = np.empty(n, dtype=float)
    cache: Dict[object, Tuple[int, int, float]] = {}
    for i, (spec, ctx) in enumerate(zip(specs, contexts)):
        key = (spec, ctx)
        resolved = cache.get(key)
        if resolved is None:
            physics = context_physics(spec, ctx)
            if physics is None:
                resolved = (spec.rows, spec.cols, 0.0)
            else:
                if not physics.functional:
                    raise YieldError(
                        f"sampled die has no usable {spec.rows}x"
                        f"{spec.cols} array hardware "
                        f"({physics.usable_rows}x{physics.usable_cols}"
                        " usable)"
                    )
                resolved = (
                    physics.usable_rows,
                    physics.usable_cols,
                    physics.correction_power_mw,
                )
            cache[key] = resolved
        usable_rows[i] = resolved[0]
        usable_cols[i] = resolved[1]
        correction[i] = resolved[2]
    return usable_rows, usable_cols, correction


def breakdown_columns(
    specs: Sequence[ArraySpec],
    refresh: Sequence[int],
    correction_power_mw: np.ndarray,
    cycle_ns: np.ndarray,
    average_weight_magnitude: float = 0.5,
) -> Dict[str, np.ndarray]:
    """Per-cycle energy breakdown columns for a batch of points.

    One memoized :func:`nominal_breakdown_pj` read per distinct
    ``(spec, refresh)`` pair, broadcast across its points; the context's
    correction tuning power is added per point exactly as the scalar
    executor does (``tuning += correction_power_mw * cycle_ns``, which
    is an exact no-op for nominal points where the correction is zero).
    """
    n = len(specs)
    columns = {
        name: np.empty(n)
        for name in ("laser_pj", "tuning_pj", "dac_pj", "adc_pj")
    }
    groups = group_indices(
        [(spec, int(r)) for spec, r in zip(specs, refresh)]
    )
    prime_breakdown_cache(
        [
            (spec, average_weight_magnitude, window)
            for spec, window in groups
        ]
    )
    for (spec, window), indices in groups.items():
        breakdown = nominal_breakdown_pj(
            spec,
            average_weight_magnitude=average_weight_magnitude,
            weight_refresh_cycles=window,
        )
        for name in columns:
            columns[name][indices] = breakdown[name]
    columns["tuning_pj"] = (
        columns["tuning_pj"] + correction_power_mw * cycle_ns
    )
    return columns


def energy_for_cycles_columns(
    cycles: object, breakdown: Dict[str, np.ndarray]
) -> ColumnEnergy:
    """Column counterpart of ``ArrayExecutor.energy_for_cycles``."""
    return ColumnEnergy(
        laser_pj=cycles * breakdown["laser_pj"],
        tuning_pj=cycles * breakdown["tuning_pj"],
        dac_pj=cycles * breakdown["dac_pj"],
        adc_pj=cycles * breakdown["adc_pj"],
    )


def memory_context_key(
    ctx: Optional[ExecutionContext],
) -> Optional[ExecutionContext]:
    """The part of a context the memory model reads (None if inert)."""
    if ctx is not None and ctx.affects_memory:
        return ctx
    return None


def build_soa_memory_model(
    backend: str,
    system: object,
    mem_ctx: Optional[ExecutionContext],
    geometry: Optional[HBMGeometry],
):
    """The memory model one SoA group prices its traffic through.

    Tracing is forced off: a sweep group's model is transient, so a
    recorded command log would be both unobservable and a trace-limit
    hazard on large workloads.
    """
    from repro.core.engine.membackend import build_memory_backend

    if geometry is not None and geometry.op_trace:
        geometry = dataclass_replace(geometry, op_trace=False)
    return build_memory_backend(
        backend, system, context=mem_ctx, geometry=geometry
    )


def unique_traffic_columns(
    fn: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """A batch traffic primitive over the *distinct* byte counts only.

    Sweeps repeat a handful of transfer sizes across thousands of
    points, so the primitive prices each size once and the results
    scatter back through the inverse index (selection of identical
    floats — exact).
    """
    unique, inverse = np.unique(
        np.asarray(counts, dtype=np.int64), return_inverse=True
    )
    energy, latency = fn(unique)
    return energy[inverse], latency[inverse]


def weight_stream_columns(
    memory_systems: Sequence[object],
    contexts: Sequence[Optional[ExecutionContext]],
    ops_list: Sequence[object],
    bits: Sequence[int],
    compute_ns: np.ndarray,
    batch: np.ndarray,
    backends: Optional[Sequence[str]] = None,
    geometries: Optional[Sequence[Optional[HBMGeometry]]] = None,
) -> Tuple[ColumnEnergy, ColumnLatency]:
    """Column counterpart of ``MemoryModel.weight_stream_cost``.

    Points group by the model key — (memory system, memory-relevant
    context, backend, geometry) — and each group prices its whole
    column of weight/bounce byte counts through one vectorized
    primitive call (the ``*_batch`` methods are elementwise
    bit-identical to their scalar forms); batch amortization and
    compute overlap are per-point column arithmetic in the scalar
    path's exact order.  ``bits`` rides along for signature stability
    only — operand precision is already folded into the per-point byte
    counts.  ``backends``/``geometries`` default to the pre-registry
    analytic model for every point.
    """
    n = len(ops_list)
    if backends is None:
        backends = ["analytic"] * n
    if geometries is None:
        geometries = [None] * n
    weight_bytes = np.fromiter(
        (ops.weight_bytes for ops in ops_list), dtype=np.int64, count=n
    )
    bounce_bytes = np.fromiter(
        (2 * ops.activation_bytes for ops in ops_list),
        dtype=np.int64,
        count=n,
    )
    weight_e = np.empty(n)
    weight_l = np.empty(n)
    bounce_e = np.empty(n)
    bounce_l = np.empty(n)
    keys = [
        (system, memory_context_key(ctx), backend, geometry)
        for system, ctx, backend, geometry in zip(
            memory_systems, contexts, backends, geometries
        )
    ]
    for (system, mem_ctx, backend, geometry), indices in group_indices(
        keys
    ).items():
        model = build_soa_memory_model(backend, system, mem_ctx, geometry)
        idx = np.asarray(indices)
        we, wl = unique_traffic_columns(
            model.stream_offchip_batch, weight_bytes[idx]
        )
        be, bl = unique_traffic_columns(
            model.bounce_onchip_batch, bounce_bytes[idx]
        )
        weight_e[idx] = we
        weight_l[idx] = wl
        bounce_e[idx] = be
        bounce_l[idx] = bl
    energy = ColumnEnergy(memory_pj=weight_e / batch + bounce_e)
    stall_ns = np.maximum(weight_l / batch - compute_ns, 0.0)
    latency = ColumnLatency(memory_ns=stall_ns + bounce_l)
    return energy, latency


# ----------------------------------------------------------------------
# Evaluator registry
# ----------------------------------------------------------------------

#: fn(configs, contexts, workload) -> StackedRunReports
SoAEvaluator = Callable[
    [Sequence[object], Sequence[Optional[ExecutionContext]], object],
    StackedRunReports,
]

_EVALUATORS: Dict[Tuple[str, WorkloadKind], SoAEvaluator] = {}
_DEFAULTS_LOADED = False


def register_soa_evaluator(
    platform: str, kind: WorkloadKind, evaluator: SoAEvaluator
) -> None:
    """Register the array-resident evaluator for one platform/workload
    combination (platform modules call this at import time)."""
    _EVALUATORS[(platform, kind)] = evaluator


def soa_evaluator(
    platform: str, kind: WorkloadKind
) -> Optional[SoAEvaluator]:
    """The registered evaluator, or ``None`` (callers then fall back to
    the scalar path)."""
    global _DEFAULTS_LOADED
    if not _DEFAULTS_LOADED:
        # Deferred so repro.core.engine does not import the platform
        # packages (which import it back) at module load.
        import repro.core.ghost.soa  # noqa: F401
        import repro.core.tron.soa  # noqa: F401

        _DEFAULTS_LOADED = True
    return _EVALUATORS.get((platform, kind))


def workload_evaluator(
    platform: str, workload
) -> Optional[SoAEvaluator]:
    """The registered evaluator that can cost ``workload`` on
    ``platform``, or ``None`` (callers then run the scalar path, which
    costs the workload or raises its own error text).

    A suite has one only when every member has one, so a suite with a
    DECODE member on TRON, or a TEMPORAL_GNN member on GHOST, stays on
    the scalar path.
    """
    evaluator = soa_evaluator(platform, workload.kind)
    if evaluator is not None and workload.kind is WorkloadKind.SUITE:
        if any(
            workload_evaluator(platform, part) is None
            for part in workload.parts()
        ):
            return None
    return evaluator


def suite_evaluator(platform: str) -> SoAEvaluator:
    """The SUITE evaluator of ``platform``: each member through that
    member's registered evaluator over the same configs and contexts,
    the columns chained in member order exactly as
    ``Accelerator._merge_reports`` chains reports (ops and per-field
    latency / energy add left to right; precision is the first
    member's).  Platform modules register it next to their leaf
    evaluators; look it up through :func:`workload_evaluator`, which
    declines suites with a member this platform has no evaluator for.

    Raises:
        MappingError: if the suite has no parts or a member has no
            registered evaluator.
    """

    def evaluate_suite(configs, contexts, suite) -> StackedRunReports:
        stacks = []
        for part in suite.parts():
            check_kind_contract(part)
            evaluator = soa_evaluator(platform, part.kind)
            if evaluator is None:
                raise MappingError(
                    f"{platform} has no array-resident evaluator for "
                    f"{part.kind.value!r} member {part.name!r} of suite "
                    f"{suite.name!r}"
                )
            stacks.append(evaluator(configs, contexts, part))
        if not stacks:
            raise MappingError(f"suite {suite.name!r} has no parts")
        first = stacks[0]
        ops = list(first.ops)
        latency = dict(first.latency)
        energy = dict(first.energy)
        for stack in stacks[1:]:
            ops = [a + b for a, b in zip(ops, stack.ops)]
            latency = {k: v + stack.latency[k] for k, v in latency.items()}
            energy = {k: v + stack.energy[k] for k, v in energy.items()}
        return StackedRunReports(
            platform=platform,
            workload=suite.name,
            ops=ops,
            latency=latency,
            energy=energy,
            bits_per_value=first.bits_per_value,
            groups=sum(stack.groups for stack in stacks),
        )

    return evaluate_suite
