"""Workload-agnostic design-space sweeps and Pareto analysis.

Section VI: "The specific architectural details of each hardware
accelerator ... were determined through detailed design-space analysis."
This module replays that analysis with a single sweep engine: a
:class:`SweepSpace` names the knob grid, how to build an accelerator at
a point, and which workload to evaluate — the engine enumerates the
cartesian product and evaluates every point through :func:`run_sweep`.

There is one evaluation path.  The whole grid becomes
structure-of-arrays columns and a registered platform evaluator
(:func:`repro.core.engine.workload_evaluator`) computes every point's energy
/ latency breakdown as a handful of NumPy ops, with scalar
:class:`SweepPoint` reports materialized from the stacked columns
afterwards.  Spaces without an evaluator run one ``Accelerator.run`` per
point over a workload materialized once, which is also the scalar oracle
the parity tests compare the columns against.  The two are bit-identical because the
evaluators replicate the scalar operation order.

The classic TRON and GHOST sweeps are thin wrappers
(:func:`sweep_tron` / :func:`sweep_ghost`); any registered workload and
any config space sweeps the same way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.base import Accelerator, Workload
from repro.core.context import ExecutionContext
from repro.core.engine import SoAStats, workload_evaluator
from repro.core.ghost import GHOST, GHOSTConfig
from repro.core.reports import RunReport
from repro.core.tron import TRON, TRONConfig
from repro.errors import ConfigurationError
from repro.nn.gnn import GNNKind
from repro.nn.models import bert_base
from repro.workloads import TransformerWorkload, make_gnn_workload


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration.

    Attributes:
        label: human-readable knob setting.
        knobs: the swept parameter values.
        report: the workload RunReport at this configuration.
    """

    label: str
    knobs: Dict[str, float]
    report: RunReport

    @property
    def latency_ns(self) -> float:
        return self.report.latency_ns

    @property
    def energy_pj(self) -> float:
        return self.report.energy_pj


def pareto_frontier(points: Sequence[SweepPoint]) -> List[SweepPoint]:
    """Latency-energy Pareto-optimal subset (both minimized).

    A point survives if no other point is at least as good on both axes
    and strictly better on one; exact duplicates therefore survive
    together.  The frontier sorts by (latency, energy, label) so ties
    break deterministically.
    """
    if not points:
        raise ConfigurationError("need at least one sweep point")
    # Each total sums a report's fields, so read it once per point.
    totals = [(point.latency_ns, point.energy_pj) for point in points]
    frontier = [
        (latency, energy, point.label, point)
        for point, (latency, energy) in zip(points, totals)
        if not any(
            other_latency <= latency
            and other_energy <= energy
            and (other_latency < latency or other_energy < energy)
            for other_latency, other_energy in totals
        )
    ]
    frontier.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in frontier]


@dataclass(frozen=True)
class SweepSpace:
    """A named config space evaluated on one workload.

    Attributes:
        name: space name (for reports and benches).
        knobs: ordered knob name -> candidate values.
        build_accelerator: knob values -> configured accelerator.
        build_workload: materializes the reference workload (called once
            per sweep).
        label: knob values -> human-readable point label.
        corners: optional corner axis — named execution contexts every
            knob setting is additionally evaluated at (see
            :func:`with_corners`).  Empty = nominal-only, the classic
            sweep.
        platform: platform name of the accelerators this space builds
            (e.g. ``"TRON"``), keying the array-resident evaluator
            registry.  ``None`` keeps the space on the scalar loop.
        build_config: knob values -> bare platform configuration, the
            cheap counterpart of ``build_accelerator`` the array-resident
            path uses (no executor / block construction per point).
    """

    name: str
    knobs: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    build_accelerator: Callable[[Dict[str, Any]], Accelerator]
    build_workload: Callable[[], Workload]
    label: Callable[[Dict[str, Any]], str]
    corners: Tuple[Tuple[str, Optional[ExecutionContext]], ...] = ()
    platform: Optional[str] = None
    build_config: Optional[Callable[[Dict[str, Any]], Any]] = None

    @staticmethod
    def ordered_knobs(
        knobs: Mapping[str, Sequence[Any]]
    ) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
        """Normalize a knob mapping into the hashable internal form."""
        return tuple((name, tuple(values)) for name, values in knobs.items())

    def enumerate(self) -> List[Dict[str, Any]]:
        """All knob combinations, in deterministic grid order."""
        if not self.knobs:
            raise ConfigurationError(f"sweep space {self.name!r} has no knobs")
        names = [name for name, _ in self.knobs]
        grids = [values for _, values in self.knobs]
        if any(len(values) == 0 for values in grids):
            raise ConfigurationError(
                f"sweep space {self.name!r} has an empty knob grid"
            )
        return [
            dict(zip(names, combo)) for combo in itertools.product(*grids)
        ]

    @property
    def num_points(self) -> int:
        """Grid size (including the corner axis, when present)."""
        size = 1
        for _, values in self.knobs:
            size *= len(values)
        return size * max(1, len(self.corners))

    def evaluations(self) -> List[Tuple[Dict[str, Any], str, Optional[ExecutionContext]]]:
        """All (knobs, label, context) evaluations of this space.

        Without corners this is the plain knob grid at the nominal
        context; with corners every knob setting is repeated per corner,
        the label gains an ``@corner`` suffix and the knob dict a
        ``corner`` entry.
        """
        evaluations = []
        for knobs in self.enumerate():
            if not self.corners:
                evaluations.append((knobs, self.label(knobs), None))
                continue
            for corner_name, ctx in self.corners:
                corner_knobs = dict(knobs, corner=corner_name)
                evaluations.append(
                    (corner_knobs, f"{self.label(knobs)}@{corner_name}", ctx)
                )
        return evaluations


def with_corners(
    space: SweepSpace, corners: Mapping[str, Optional[ExecutionContext]]
) -> SweepSpace:
    """A sweep space extended with a corner axis.

    Every knob setting is evaluated once per named execution context —
    fabrication-process corners become one more swept dimension, so the
    Pareto analysis sees nominal and corner behaviour side by side::

        space = with_corners(tron_sweep_space(), standard_corners())
    """
    if not corners:
        raise ConfigurationError("need at least one corner")
    return replace(space, corners=tuple(corners.items()))


def _normalized_context(
    ctx: Optional[ExecutionContext],
) -> Optional[ExecutionContext]:
    """``None`` and nominal contexts evaluate as one group (they cost
    bit-identically by construction)."""
    if ctx is None or ctx.is_nominal:
        return None
    return ctx


def _run_serial(
    space: SweepSpace, evaluations: List[Tuple]
) -> List[SweepPoint]:
    """One ``Accelerator.run`` per point over a workload materialized
    once: the path of spaces without an evaluator, and the scalar oracle
    the parity tests compare the columns against."""
    workload = space.build_workload()
    workload.materialize()
    return [
        SweepPoint(
            label=label,
            knobs=knobs,
            report=space.build_accelerator(knobs).run(workload, ctx=ctx),
        )
        for knobs, label, ctx in evaluations
    ]


def run_sweep(space: SweepSpace) -> List[SweepPoint]:
    """Evaluate every point of a sweep space.

    The whole grid evaluates as structure-of-arrays NumPy columns
    through the platform's registered evaluator (no per-point
    accelerator or executor construction), and scalar reports
    materialize from the stacked columns afterwards.  Spaces without an
    evaluator (no ``platform`` / ``build_config``, or an unregistered
    workload kind) run one ``Accelerator.run`` per point instead, with
    bit-identical reports.
    """
    points, _ = run_sweep_with_stats(space)
    return points


def run_sweep_with_stats(
    space: SweepSpace,
) -> Tuple[List[SweepPoint], SoAStats]:
    """:func:`run_sweep` plus its evaluation stats (what the ``--json``
    envelopes surface): group collapse, materialization count and any
    scalar fallback (recorded as ``fallback_points``)."""
    evaluations = space.evaluations()
    evaluator = None
    if space.platform is not None and space.build_config is not None:
        workload = space.build_workload()
        workload.materialize()
        # None for a suite with any member the platform cannot cost.
        evaluator = workload_evaluator(space.platform, workload)
    if evaluator is None:
        points = _run_serial(space, evaluations)
        stats = SoAStats(points=len(points), fallback_points=len(points))
        return points, stats
    stacked = evaluator(
        [space.build_config(knobs) for knobs, _, _ in evaluations],
        [_normalized_context(ctx) for _, _, ctx in evaluations],
        workload,
    )
    stats = SoAStats(points=len(evaluations), groups=stacked.groups)
    points = [
        SweepPoint(label=label, knobs=knobs, report=stacked.materialize(i))
        for i, (knobs, label, _) in enumerate(evaluations)
    ]
    stats.materialized_reports = len(points)
    return points, stats


# ----------------------------------------------------------------------
# The classic TRON / GHOST spaces
# ----------------------------------------------------------------------


def tron_sweep_space(
    head_units: Sequence[int] = (4, 8, 16),
    array_sizes: Sequence[int] = (32, 64, 128),
    clocks_ghz: Sequence[float] = (2.5, 5.0),
    batch: int = 8,
    model_factory: Callable = bert_base,
) -> SweepSpace:
    """TRON's structural knobs on a transformer workload."""

    def build_config(knobs: Dict[str, Any]) -> TRONConfig:
        return TRONConfig(
            num_head_units=int(knobs["head_units"]),
            array_rows=int(knobs["array_size"]),
            array_cols=int(knobs["array_size"]),
            clock_ghz=float(knobs["clock_ghz"]),
            batch=batch,
        )

    def build(knobs: Dict[str, Any]) -> TRON:
        return TRON(build_config(knobs))

    return SweepSpace(
        name="tron",
        knobs=SweepSpace.ordered_knobs(
            {
                "head_units": head_units,
                "array_size": array_sizes,
                "clock_ghz": clocks_ghz,
            }
        ),
        build_accelerator=build,
        build_workload=lambda: TransformerWorkload(model=model_factory()),
        label=lambda knobs: (
            f"H{knobs['head_units']}/A{knobs['array_size']}/"
            f"{knobs['clock_ghz']:.1f}GHz"
        ),
        platform="TRON",
        build_config=build_config,
    )


def ghost_sweep_space(
    lanes: Sequence[int] = (8, 16, 32),
    edge_units: Sequence[int] = (16, 32, 64),
    dataset: str = "cora",
    hidden_dim: int = 64,
) -> SweepSpace:
    """GHOST's structural knobs on a GCN workload."""

    def build_config(knobs: Dict[str, Any]) -> GHOSTConfig:
        return GHOSTConfig(
            lanes=int(knobs["lanes"]), edge_units=int(knobs["edge_units"])
        )

    def build(knobs: Dict[str, Any]) -> GHOST:
        return GHOST(build_config(knobs))

    return SweepSpace(
        name="ghost",
        knobs=SweepSpace.ordered_knobs(
            {"lanes": lanes, "edge_units": edge_units}
        ),
        build_accelerator=build,
        build_workload=lambda: make_gnn_workload(
            GNNKind.GCN,
            dataset,
            hidden_dim=hidden_dim,
            rng_seed=0,
            name=f"GCN-{dataset}",
        ),
        label=lambda knobs: f"V{knobs['lanes']}/N{knobs['edge_units']}",
        platform="GHOST",
        build_config=build_config,
    )


def sweep_tron(
    head_units: Sequence[int] = (4, 8, 16),
    array_sizes: Sequence[int] = (32, 64, 128),
    clocks_ghz: Sequence[float] = (2.5, 5.0),
    batch: int = 8,
    model_factory: Callable = bert_base,
) -> List[SweepPoint]:
    """Sweep TRON's structural knobs on a transformer workload."""
    return run_sweep(
        tron_sweep_space(
            head_units=head_units,
            array_sizes=array_sizes,
            clocks_ghz=clocks_ghz,
            batch=batch,
            model_factory=model_factory,
        )
    )


def sweep_ghost(
    lanes: Sequence[int] = (8, 16, 32),
    edge_units: Sequence[int] = (16, 32, 64),
    dataset: str = "cora",
    hidden_dim: int = 64,
) -> List[SweepPoint]:
    """Sweep GHOST's structural knobs on a GCN workload."""
    return run_sweep(
        ghost_sweep_space(
            lanes=lanes,
            edge_units=edge_units,
            dataset=dataset,
            hidden_dim=hidden_dim,
        )
    )


def format_sweep(points: Sequence[SweepPoint], frontier: Sequence[SweepPoint]) -> str:
    """Text table of a sweep with Pareto points marked."""
    on_frontier = {id(p) for p in frontier}
    lines = [
        f"{'config':>18s} {'latency (us)':>13s} {'energy (uJ)':>12s} "
        f"{'GOPS':>12s} {'pareto':>7s}"
    ]
    for point in sorted(points, key=lambda p: p.latency_ns):
        marker = "*" if id(point) in on_frontier else ""
        lines.append(
            f"{point.label:>18s} {point.latency_ns / 1e3:>13.2f} "
            f"{point.energy_pj / 1e6:>12.2f} {point.report.gops:>12.1f} "
            f"{marker:>7s}"
        )
    return "\n".join(lines)
