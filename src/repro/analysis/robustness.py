"""Vectorized Monte-Carlo robustness analysis and yield-aware Pareto.

The paper's conclusion names fabrication-process variation as the open
challenge; this module turns the library into a variation-aware design
tool.  :func:`run_monte_carlo` evaluates one accelerator configuration
over N sampled dies and reports the **yield** plus the **latency,
energy, throughput and tuning-power distributions**;
:func:`monte_carlo_sweep` runs a whole design-space grid through it and
:func:`yield_aware_pareto` keeps only the configurations a fab could
actually ship (yield above threshold) before computing the
latency-energy frontier.

The workload materializes once, every die's ring errors / TED heater
solves / yield gating evaluate in one batched numpy pass per array
geometry (:func:`repro.core.engine.batch_context_physics`), and samples
collapse into groups sharing a yield signature.  Each group has one
unknown per pinned context: a zero-correction base plus one
unit-correction context per geometry.  Report energy is linear in the
standing correction power, so every sample in the group is an exact
affine combination of those unknowns.

Every signature's unknowns evaluate in one stacked call of the
platform's array-resident evaluator
(:func:`repro.core.engine.workload_evaluator`).  Where none is
registered (a suite needs one for every member; and for probes without a ``config``), the same contexts run through a
plain loop of scalar ``Accelerator.run`` calls, recorded as
``fallback_points``.  One affine reconstruction then serves both.

``_run_naive`` is the reference the tests and the Monte-Carlo bench
compare against: N scalar runs, each rebuilding the workload and
accelerator from cold physics caches and costing its die through
``Accelerator.run(workload, ctx=ctx.for_sample(i))``.  It produces the
same distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import Accelerator, Workload
from repro.core.context import ExecutionContext, PinnedArrayPhysics
from repro.core.engine import (
    SoAStats,
    batch_context_physics,
    context_physics,
    memo,
    workload_evaluator,
)
from repro.core.reports import RunReport
from repro.errors import ConfigurationError, YieldError

#: Default yield threshold of the yield-aware Pareto frontier.
DEFAULT_YIELD_THRESHOLD = 0.9

# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------


def _stats(values: np.ndarray) -> Dict[str, float]:
    """mean / p5 / p50 / p95 of a metric over the operational samples."""
    if len(values) == 0:
        return {"mean": 0.0, "p5": 0.0, "p50": 0.0, "p95": 0.0}
    return {
        "mean": float(np.mean(values)),
        "p5": float(np.percentile(values, 5)),
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
    }


@dataclass
class MonteCarloResult:
    """Distributions of one configuration over N sampled dies.

    Attributes:
        platform / workload: what was evaluated.
        nominal: the nominal-corner report (the number the figures show).
        operational: per-sample mask — the die has usable hardware.
        fully_functional: per-sample mask — every ring correctable (the
            classic bank-yield criterion; these dies meet nominal spec).
        latency_ns / energy_pj / tuning_power_mw: per-sample metrics
            (``nan`` where the die is dead).  Tuning power is the
            standing variation-correction power of one array per
            geometry.
        samples: sample count N.
        seed: base seed the dies derive from.
        evaluation: stats of the evaluation that ran (see
            :class:`repro.core.engine.SoAStats`), or ``None`` for
            results built outside the Monte-Carlo engine.
    """

    platform: str
    workload: str
    nominal: RunReport
    operational: np.ndarray
    fully_functional: np.ndarray
    latency_ns: np.ndarray
    energy_pj: np.ndarray
    tuning_power_mw: np.ndarray
    samples: int
    seed: int
    evaluation: Optional[Dict[str, object]] = None

    @property
    def yield_fraction(self) -> float:
        """Fraction of dies meeting nominal spec (no gated rows/cols)."""
        return float(np.mean(self.fully_functional))

    @property
    def operational_fraction(self) -> float:
        """Fraction of dies with any usable hardware at all."""
        return float(np.mean(self.operational))

    def _operational_values(self, values: np.ndarray) -> np.ndarray:
        return values[self.operational]

    @property
    def mean_latency_ns(self) -> float:
        """Mean latency over the operational dies (nan if none work)."""
        values = self._operational_values(self.latency_ns)
        return float(np.mean(values)) if len(values) else float("nan")

    @property
    def mean_energy_pj(self) -> float:
        """Mean energy over the operational dies (nan if none work)."""
        values = self._operational_values(self.energy_pj)
        return float(np.mean(values)) if len(values) else float("nan")

    @property
    def gops(self) -> np.ndarray:
        """Per-sample throughput (nan for dead dies)."""
        return self.nominal.ops.total_ops / self.latency_ns

    @property
    def epb_pj(self) -> np.ndarray:
        """Per-sample energy per bit (nan for dead dies)."""
        bits = self.nominal.ops.total_ops * self.nominal.bits_per_value
        return self.energy_pj / bits

    def to_dict(self) -> Dict:
        """JSON-serializable summary (no per-sample arrays)."""
        operational = self.operational
        summary = {
            "platform": self.platform,
            "workload": self.workload,
            "samples": self.samples,
            "seed": self.seed,
            "yield": self.yield_fraction,
            "operational_fraction": self.operational_fraction,
            "nominal": self.nominal.to_dict(),
            "latency_ns": _stats(self.latency_ns[operational]),
            "energy_pj": _stats(self.energy_pj[operational]),
            "gops": _stats(self.gops[operational]),
            "epb_pj": _stats(self.epb_pj[operational]),
            "tuning_power_mw": _stats(self.tuning_power_mw[operational]),
        }
        if self.evaluation is not None:
            summary["evaluation"] = dict(self.evaluation)
        return summary

    def summary(self) -> str:
        """Human-readable distribution table."""
        lines = [
            f"{self.platform} | {self.workload} | {self.samples} sampled dies "
            f"(seed {self.seed})",
            f"  yield: {100 * self.yield_fraction:.1f}% fully functional, "
            f"{100 * self.operational_fraction:.1f}% operational",
            f"  nominal: {self.nominal.latency_ns / 1e3:.2f} us, "
            f"{self.nominal.energy_pj / 1e6:.2f} uJ",
        ]
        rows = (
            ("latency (us)", self.latency_ns, 1e3),
            ("energy (uJ)", self.energy_pj, 1e6),
            ("GOPS", self.gops, 1.0),
            ("tuning (mW)", self.tuning_power_mw, 1.0),
        )
        lines.append(
            f"  {'metric':<14s} {'mean':>12s} {'p5':>12s} {'p50':>12s} "
            f"{'p95':>12s}"
        )
        for label, values, scale in rows:
            stats = _stats(values[self.operational] / scale)
            lines.append(
                f"  {label:<14s} {stats['mean']:>12.2f} {stats['p5']:>12.2f} "
                f"{stats['p50']:>12.2f} {stats['p95']:>12.2f}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The Monte-Carlo engine
# ----------------------------------------------------------------------


def _unique_geometries(accelerator: Accelerator) -> List:
    """The accelerator's distinct array geometries (one spec each)."""
    specs = getattr(accelerator, "array_specs", None)
    if specs is None:
        raise ConfigurationError(
            f"{accelerator.name} does not expose array_specs(); "
            "Monte-Carlo robustness needs the photonic array geometries"
        )
    unique = {}
    for spec in specs():
        unique.setdefault((spec.rows, spec.cols), spec)
    return list(unique.values())


def run_monte_carlo(
    make_accelerator: Callable[[], Accelerator],
    make_workload: Callable[[], Workload],
    context: ExecutionContext,
    samples: int = 256,
) -> MonteCarloResult:
    """Evaluate one configuration over ``samples`` sampled dies.

    Args:
        make_accelerator: factory for the configuration under test.
        make_workload: factory for the workload (materialized once).
        context: the sampling corner — its variation model, thermal
            corner and tuner range define the die population; its seed
            picks the population's first die.
        samples: number of dies (N).

    Example:
        >>> from repro.core import TRON, get_workload
        >>> from repro.core.context import ExecutionContext
        >>> from repro.photonics.variation import ProcessVariationModel
        >>> result = run_monte_carlo(
        ...     make_accelerator=TRON,
        ...     make_workload=lambda: get_workload("MLP-mnist"),
        ...     context=ExecutionContext(variation=ProcessVariationModel()),
        ...     samples=4)
        >>> result.samples
        4
        >>> 0.0 <= result.yield_fraction <= 1.0
        True
    """
    if samples < 1:
        raise ConfigurationError(f"need >= 1 sample, got {samples}")
    if context.pinned:
        raise ConfigurationError(
            "Monte-Carlo needs a sampling context (no pinned overrides)"
        )
    workload = make_workload()
    workload.materialize()  # once, shared by every sample
    probe = make_accelerator()
    geometries = _unique_geometries(probe)
    nominal = probe.run(workload)

    # One batched numpy pass per array geometry: every die's ring draws,
    # folding, TED heater solves and yield gating at once.
    batches = [
        batch_context_physics(spec, context, samples) for spec in geometries
    ]
    operational = np.ones(samples, dtype=bool)
    fully_functional = np.ones(samples, dtype=bool)
    tuning_power_mw = np.zeros(samples)
    for batch in batches:
        operational &= batch.functional
        fully_functional &= batch.fully_functional
        tuning_power_mw += batch.correction_power_mw
    tuning_power_mw[~operational] = np.nan

    # Samples sharing a yield signature differ only in their standing
    # correction power, which report energy is linear in — so each group
    # needs a zero-correction base plus one unit-correction context per
    # geometry.
    signatures: Dict[Tuple, List[int]] = {}
    for i in np.flatnonzero(operational):
        signature = tuple(
            (int(b.usable_rows[i]), int(b.usable_cols[i])) for b in batches
        )
        signatures.setdefault(signature, []).append(i)
    contexts = []
    for signature in signatures:
        pinned = {
            (spec.rows, spec.cols): PinnedArrayPhysics(rows, cols, 0.0)
            for spec, (rows, cols) in zip(geometries, signature)
        }
        contexts.append(context.with_pinned(pinned))
        for spec, (rows, cols) in zip(geometries, signature):
            unit_pinned = dict(pinned)
            unit_pinned[(spec.rows, spec.cols)] = PinnedArrayPhysics(
                rows, cols, 1.0
            )
            contexts.append(context.with_pinned(unit_pinned))
    unknown_latency, unknown_energy, fell_back = _evaluate_unknowns(
        probe, workload, contexts
    )

    latency_ns = np.full(samples, np.nan)
    energy_pj = np.full(samples, np.nan)
    stride = 1 + len(geometries)
    for group, indices in enumerate(signatures.values()):
        base = group * stride
        base_latency = float(unknown_latency[base])
        base_energy = float(unknown_energy[base])
        slopes = [
            float(unknown_energy[base + 1 + g]) - base_energy
            for g in range(len(geometries))
        ]
        for i in indices:
            latency_ns[i] = base_latency
            energy_pj[i] = base_energy + sum(
                slope * float(batch.correction_power_mw[i])
                for slope, batch in zip(slopes, batches)
            )
    return _result(
        probe,
        workload,
        nominal,
        context,
        operational,
        fully_functional,
        latency_ns,
        energy_pj,
        tuning_power_mw,
        evaluation=SoAStats(
            points=samples,
            groups=len(signatures),
            fallback_points=samples if fell_back else 0,
        ),
    )


def _result(
    accelerator: Accelerator,
    workload: Workload,
    nominal: RunReport,
    context: ExecutionContext,
    operational: np.ndarray,
    fully_functional: np.ndarray,
    latency_ns: np.ndarray,
    energy_pj: np.ndarray,
    tuning_power_mw: np.ndarray,
    evaluation: Optional[SoAStats] = None,
) -> MonteCarloResult:
    return MonteCarloResult(
        platform=accelerator.name,
        workload=workload.name,
        nominal=nominal,
        operational=operational,
        fully_functional=fully_functional,
        latency_ns=latency_ns,
        energy_pj=energy_pj,
        tuning_power_mw=tuning_power_mw,
        samples=len(operational),
        seed=context.seed,
        evaluation=evaluation.to_dict() if evaluation else None,
    )


def _run_naive(
    make_accelerator, make_workload, context, samples
) -> MonteCarloResult:
    """The reference: N scalar runs, nothing shared between samples.

    Takes :func:`run_monte_carlo`'s arguments and returns the same
    distributions; tests and the Monte-Carlo bench call it directly.
    """
    operational = np.zeros(samples, dtype=bool)
    fully_functional = np.zeros(samples, dtype=bool)
    latency_ns = np.full(samples, np.nan)
    energy_pj = np.full(samples, np.nan)
    tuning_power_mw = np.full(samples, np.nan)
    for i in range(samples):
        memo.clear("engine.")
        memo.clear("workloads.graph")
        workload = make_workload()
        accelerator = make_accelerator()
        ctx = context.for_sample(i)
        geometries = _unique_geometries(accelerator)
        try:
            report = accelerator.run(workload, ctx=ctx)
        except YieldError:
            continue
        operational[i] = True
        latency_ns[i] = report.latency_ns
        energy_pj[i] = report.energy_pj
        physics = [context_physics(spec, ctx) for spec in geometries]
        fully_functional[i] = all(
            p is None or p.ring_yield >= 1.0 for p in physics
        )
        tuning_power_mw[i] = sum(
            p.correction_power_mw for p in physics if p is not None
        )
    memo.clear("engine.")
    workload = make_workload()
    accelerator = make_accelerator()
    nominal = accelerator.run(workload)
    return _result(
        accelerator,
        workload,
        nominal,
        context,
        operational,
        fully_functional,
        latency_ns,
        energy_pj,
        tuning_power_mw,
        evaluation=SoAStats(points=samples),
    )


def _evaluate_unknowns(
    probe: Accelerator, workload: Workload, contexts: List[ExecutionContext]
) -> Tuple[Sequence[float], Sequence[float], bool]:
    """``(latency_ns, energy_pj, fell_back)`` of every pinned context.

    One stacked call of the probe's array-resident evaluator, or — where
    none is registered — one scalar run per context.
    """
    config = getattr(probe, "config", None)
    evaluator = None
    if config is not None:
        evaluator = workload_evaluator(probe.name, workload)
    if evaluator is None:
        reports = [probe.run(workload, ctx=ctx) for ctx in contexts]
        latency = [report.latency_ns for report in reports]
        energy = [report.energy_pj for report in reports]
        return latency, energy, True
    if not contexts:  # no operational dies: nothing to evaluate
        return [], [], False
    stacked = evaluator([config] * len(contexts), contexts, workload)
    return stacked.latency_ns, stacked.energy_pj, False


# ----------------------------------------------------------------------
# Yield-aware design-space analysis
# ----------------------------------------------------------------------


@dataclass
class RobustPoint:
    """One design point's Monte-Carlo outcome (sweep-compatible).

    Exposes ``latency_ns`` / ``energy_pj`` as the operational-die means,
    so :func:`repro.analysis.sweep.pareto_frontier` works on robust
    points exactly as on nominal sweep points.

    Example:
        >>> from repro.core import TRON, get_workload
        >>> from repro.core.context import ExecutionContext
        >>> from repro.photonics.variation import ProcessVariationModel
        >>> result = run_monte_carlo(
        ...     make_accelerator=TRON,
        ...     make_workload=lambda: get_workload("MLP-mnist"),
        ...     context=ExecutionContext(variation=ProcessVariationModel()),
        ...     samples=2)
        >>> point = RobustPoint(label="demo", knobs={}, result=result)
        >>> point.to_dict()["label"]
        'demo'
    """

    label: str
    knobs: Dict
    result: MonteCarloResult

    @property
    def yield_fraction(self) -> float:
        return self.result.yield_fraction

    @property
    def latency_ns(self) -> float:
        return self.result.mean_latency_ns

    @property
    def energy_pj(self) -> float:
        return self.result.mean_energy_pj

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "knobs": dict(self.knobs),
            "yield": self.yield_fraction,
            "mean_latency_ns": self.latency_ns,
            "mean_energy_pj": self.energy_pj,
        }


def yield_aware_pareto(
    points: Sequence[RobustPoint],
    yield_threshold: float = DEFAULT_YIELD_THRESHOLD,
) -> List[RobustPoint]:
    """The latency-energy frontier over configurations a fab could ship.

    A configuration only competes if at least ``yield_threshold`` of its
    sampled dies are fully functional — and at least one die is
    operational at all (a config with no working dies has no metrics to
    compete with, even at ``yield_threshold=0``).  The survivors'
    frontier uses the operational-die mean latency/energy.  A
    fast-but-fragile design that dominates the nominal frontier is cut
    here — the yield-aware frontier is the actionable one.

    Example:
        >>> yield_aware_pareto([])           # nothing survives nothing
        []
        >>> yield_aware_pareto([], yield_threshold=1.5)
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: yield threshold must be in [0, 1], got 1.5
    """
    from repro.analysis.sweep import pareto_frontier

    if not 0.0 <= yield_threshold <= 1.0:
        raise ConfigurationError(
            f"yield threshold must be in [0, 1], got {yield_threshold}"
        )
    survivors = [
        p
        for p in points
        if p.yield_fraction >= yield_threshold
        and p.result.operational_fraction > 0.0
    ]
    if not survivors:
        return []
    return pareto_frontier(survivors)


def monte_carlo_sweep(
    space,
    context: ExecutionContext,
    samples: int = 128,
) -> List[RobustPoint]:
    """Monte-Carlo every knob setting of a sweep space at one corner.

    The workload materializes once and is shared by every point and
    every sample; each point runs :func:`run_monte_carlo`.

    Example:
        >>> from repro.analysis.sweep import tron_sweep_space
        >>> from repro.core.context import ExecutionContext
        >>> from repro.photonics.variation import ProcessVariationModel
        >>> space = tron_sweep_space(
        ...     head_units=(4,), array_sizes=(32,), clocks_ghz=(5.0,))
        >>> points = monte_carlo_sweep(
        ...     space,
        ...     ExecutionContext(variation=ProcessVariationModel()),
        ...     samples=2)
        >>> len(points) == space.num_points
        True
    """
    workload = space.build_workload()
    workload.materialize()
    points = []
    for knobs in space.enumerate():
        result = run_monte_carlo(
            make_accelerator=lambda knobs=knobs: space.build_accelerator(knobs),
            make_workload=lambda: workload,
            context=context,
            samples=samples,
        )
        points.append(
            RobustPoint(label=space.label(knobs), knobs=knobs, result=result)
        )
    return points
