"""Typed result objects: every Session entry point returns one.

Each result owns two renderings of itself:

- :meth:`envelope` — the schema-versioned machine-readable JSON
  envelope (``{"schema": "repro.<cmd>/1", "repro_version": ...,
  "context": {...}, ...}``) the CLI's ``--json`` flag prints.  The
  single :func:`json_envelope` builder here is what every command
  shares — there is exactly one place the envelope shape is defined.
- :meth:`format` — the human-readable text the CLI prints otherwise.

The envelopes are validatable: :mod:`repro.api.schemas` carries a JSON
Schema per tag, and the CI schema job checks every ``--json`` command
output against them.

Example:
    >>> env = json_envelope("run", {"corner": "nominal", "seed": 0},
    ...                     {"latency_ns": 12.5})
    >>> env["schema"], env["latency_ns"]
    ('repro.run/1', 12.5)
    >>> from repro._version import __version__
    >>> env["repro_version"] == __version__
    True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro._version import __version__
from repro.core.reports import RunReport

#: Version suffix of every JSON envelope this build emits.
JSON_SCHEMA_VERSION = 1


def json_envelope(
    command: str, context: Dict[str, Any], payload: Dict[str, Any]
) -> Dict[str, Any]:
    """The uniform machine-readable envelope of ``--json`` output.

    Every JSON-emitting command wraps its payload as
    ``{"schema": "repro.<command>/<version>", "repro_version": "...",
    "context": {...}, ...}`` so consumers can dispatch on the schema
    tag, know which build produced the numbers, and always know which
    corner/seed (or trace) they describe.  The schemas are documented
    in ``docs/cli.md`` and machine-checkable via
    :mod:`repro.api.schemas`.
    """
    return {
        "schema": f"repro.{command}/{JSON_SCHEMA_VERSION}",
        "repro_version": __version__,
        "context": context,
        **payload,
    }


@dataclass
class RunResult:
    """One costed workload: the report plus the corner it ran at.

    Example:
        >>> from repro.api import Session
        >>> result = Session().run("MLP-mnist")
        >>> result.report.platform
        'TRON'
        >>> result.envelope()["schema"]
        'repro.run/1'
    """

    report: RunReport
    corner: str = "nominal"
    seed: int = 0
    #: Non-default memory-backend block (backend name, trace digest);
    #: ``None`` on the analytic default so its envelope stays
    #: byte-identical to pre-backend builds.
    memory: Optional[Dict[str, Any]] = None
    #: Per-token decode-series block (decode workloads only); ``None``
    #: everywhere else so existing envelopes stay byte-identical.
    decode: Optional[Dict[str, Any]] = None

    def envelope(self) -> Dict[str, Any]:
        """The ``repro.run/1`` JSON envelope."""
        payload = self.report.to_dict()
        if self.memory is not None:
            payload["memory"] = self.memory
        if self.decode is not None:
            payload["decode"] = self.decode
        return json_envelope(
            "run",
            {"corner": self.corner, "seed": self.seed},
            payload,
        )

    def format(self) -> str:
        """The CLI's human-readable report text."""
        lines = [self.report.summary(), "energy breakdown (uJ):"]
        for key, pj in self.report.energy.as_dict().items():
            if pj > 0.0:
                lines.append(f"  {key:<14s} {pj / 1e6:10.2f}")
        if self.memory is not None:
            line = f"memory backend: {self.memory['backend']}"
            trace = self.memory.get("trace")
            if trace:
                line += (
                    f" ({trace['commands']} DRAM commands, "
                    f"{trace['data_bytes']} data bytes)"
                )
            path = self.memory.get("trace_path")
            if path:
                line += f" -> {path}"
            lines.append(line)
        if self.decode is not None:
            lines.append(
                f"decode: {self.decode['tokens_per_second']:,.0f} tok/s, "
                f"token latency {self.decode['first_token_ns'] / 1e3:.2f} -> "
                f"{self.decode['last_token_ns'] / 1e3:.2f} us over "
                f"{self.decode['generated_tokens']} tokens"
            )
        return "\n".join(lines)


@dataclass
class SweepResult:
    """One or more swept spaces with their Pareto frontiers.

    Attributes:
        points: space name → evaluated points (grid order).
        frontiers: space name → Pareto-optimal subset.
        corners_axis: whether the standard-corner axis was swept.
        seed: die-selection seed of the corner axis.
        physics_cache: engine memo counters after the sweep.
        evaluation: space name → evaluation stats (point/group
            counts, materialized reports, scalar fallbacks —
            :class:`repro.core.engine.SoAStats`).
    """

    points: "Dict[str, List]"
    frontiers: "Dict[str, List]"
    corners_axis: bool = False
    seed: int = 0
    physics_cache: Dict[str, Any] = field(default_factory=dict)
    evaluation: Dict[str, Any] = field(default_factory=dict)

    def envelope(self) -> Dict[str, Any]:
        """The ``repro.sweep/1`` JSON envelope."""
        spaces = {}
        for name, space_points in self.points.items():
            on_frontier = {id(p) for p in self.frontiers[name]}
            spaces[name] = [
                dict(
                    label=p.label,
                    knobs={k: str(v) for k, v in p.knobs.items()},
                    latency_ns=p.latency_ns,
                    energy_pj=p.energy_pj,
                    gops=p.report.gops,
                    pareto=id(p) in on_frontier,
                )
                for p in space_points
            ]
        return json_envelope(
            "sweep",
            {"corners_axis": self.corners_axis, "seed": self.seed},
            {
                "spaces": spaces,
                "physics_cache": self.physics_cache,
                "evaluation": self.evaluation,
            },
        )

    def format(self) -> str:
        """Per-space tables with Pareto marks (the CLI text output)."""
        from repro.analysis.sweep import format_sweep

        blocks = []
        for name, space_points in self.points.items():
            frontier = self.frontiers[name]
            blocks.append(
                f"--- {name} ---\n"
                f"{format_sweep(space_points, frontier)}\n\n"
                f"{len(frontier)} Pareto-optimal of "
                f"{len(space_points)} configs\n"
            )
        return "\n".join(blocks)


@dataclass
class MonteCarloRunResult:
    """A Monte-Carlo robustness analysis plus the corner it sampled.

    ``result`` is the underlying
    :class:`repro.analysis.robustness.MonteCarloResult` (per-die
    distributions, yield fractions, the nominal report).
    """

    result: Any
    corner: str = "typical"
    seed: int = 0

    def envelope(self) -> Dict[str, Any]:
        """The ``repro.mc/1`` JSON envelope."""
        return json_envelope(
            "mc",
            {"corner": self.corner, "seed": self.seed},
            self.result.to_dict(),
        )

    def format(self) -> str:
        """The distribution table (`MonteCarloResult.summary`)."""
        return self.result.summary()


@dataclass
class CornersResult:
    """The standard corner grid evaluated on the stock scenarios."""

    rows: List[Dict[str, Any]]
    seed: int = 0

    def envelope(self) -> Dict[str, Any]:
        """The ``repro.corners/1`` JSON envelope."""
        return json_envelope("corners", {"seed": self.seed}, {"rows": self.rows})

    def format(self) -> str:
        """The per-(corner, platform) table the CLI prints."""
        lines = [
            f"{'corner':>10s} {'platform':>8s} {'workload':<12s} "
            f"{'latency(us)':>12s} {'energy(uJ)':>11s} {'pJ/bit':>8s} "
            f"{'corr(mW)':>9s} {'yield':>6s}"
        ]
        for row in self.rows:
            lines.append(
                f"{row['corner']:>10s} {row['platform']:>8s} "
                f"{row['workload']:<12s} {row['latency_ns'] / 1e3:>12.2f} "
                f"{row['energy_pj'] / 1e6:>11.2f} {row['epb_pj']:>8.4f} "
                f"{row['correction_power_mw']:>9.1f} "
                f"{row['ring_yield']:>6.3f}"
            )
        return "\n".join(lines)


@dataclass
class ServeResult:
    """One trace replay through the serving engine, fully accounted.

    Attributes:
        trace: the trace path replayed (or a label for in-memory
            request lists).
        repeat / window: replay parameters.
        served: requests resolved.
        stats / cache / scheduler / physics_cache: the engine's
            accounting dicts (fleet runs: summed over workers, with
            throughput and latency percentiles measured open-loop at
            the fleet front door).
        cache_len / cache_bound: report-cache occupancy after the run.
        fleet: the fleet-tier accounting block (worker count, shard
            load spread, admission/shed counters, per-run open-loop
            results) — ``None`` for in-process serving.
    """

    trace: str
    repeat: int
    window: int
    served: int
    stats: Dict[str, Any]
    cache: Dict[str, Any]
    scheduler: Dict[str, Any]
    physics_cache: Dict[str, Any]
    cache_len: int = 0
    cache_bound: int = 0
    fleet: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Whether every request produced a report."""
        return self.stats.get("errors", 0) == 0

    def envelope(self) -> Dict[str, Any]:
        """The ``repro.serve/1`` JSON envelope."""
        payload = {
            "stats": self.stats,
            "cache": self.cache,
            "scheduler": self.scheduler,
            "physics_cache": self.physics_cache,
        }
        if self.fleet is not None:
            payload["fleet"] = self.fleet
        return json_envelope(
            "serve",
            {"trace": self.trace, "repeat": self.repeat, "window": self.window},
            payload,
        )

    def format(self, detailed: bool = False) -> str:
        """The serving summary (``detailed`` adds the fleet stats)."""
        stats, scheduler, cache = self.stats, self.scheduler, self.cache
        lines = [
            f"served {self.served} requests in {stats['busy_s']:.2f} s "
            f"({stats['throughput_rps']:.0f} req/s)"
        ]
        if self.fleet is not None:
            admission = self.fleet.get("admission", {})
            lines[0] = (
                f"served {self.served} requests over "
                f"{self.fleet['workers']} workers "
                f"({stats['throughput_rps']:.0f} req/s aggregate, "
                f"{admission.get('shed_queue', 0) + admission.get('shed_quota', 0)} shed)"
            )
            # Percentiles are measured at the fleet front door either
            # way; only an arrival schedule makes them "open-loop".
            kind = (
                "open-loop"
                if self.fleet.get("arrivals")
                else "submit-to-completion"
            )
            lines.append(
                f"  {kind} p50/p95/p99 "
                f"{1e3 * stats['p50_latency_s']:.2f} / "
                f"{1e3 * stats['p95_latency_s']:.2f} / "
                f"{1e3 * stats['p99_latency_s']:.2f} ms"
            )
        if detailed:
            physics = self.physics_cache
            breakdown = physics["breakdown"]
            context = physics["context_physics"]
            lines += [
                f"  cache hit rate   {100 * stats['hit_rate']:.1f}%",
                f"  deduplicated     {stats['deduped']}",
                f"  run-path evals   {scheduler['evaluated']}",
                f"  request groups   {scheduler['groups']}",
                f"  physics batches  {scheduler['physics_batches']}",
                f"  batched dies     {scheduler['batched_dies']}",
                f"  errors           {stats['errors']}",
                f"  latency mean/p95 {1e3 * stats['mean_latency_s']:.2f} / "
                f"{1e3 * stats['p95_latency_s']:.2f} ms",
                f"  cache entries    {self.cache_len} "
                f"(bound {self.cache_bound}, "
                f"{cache['evictions']} evicted)",
                f"  physics memo     {100 * breakdown['hit_rate']:.1f}% "
                f"breakdown hits, {100 * context['hit_rate']:.1f}% context "
                f"hits ({breakdown['evictions'] + context['evictions']} "
                "evicted)",
            ]
        return "\n".join(lines)


@dataclass
class TraceResult:
    """A synthesized request trace (optionally written to disk)."""

    records: List[Dict[str, Any]]
    output: Optional[str] = None
    #: Arrival-spec hint stored in the trace (shaped traffic only).
    arrivals: Optional[str] = None

    @property
    def distinct(self) -> int:
        """Distinct request types in the trace."""
        # Canonical-JSON fingerprints: tenant-wrapped records nest the
        # embedded spec, which sorted-items tuples cannot hash.
        return len({json.dumps(r, sort_keys=True) for r in self.records})

    @property
    def tenants(self) -> List[str]:
        """Tenant names appearing in the trace (sorted; empty when flat)."""
        return sorted({r["tenant"] for r in self.records if "tenant" in r})

    def format(self) -> str:
        """The confirmation line the CLI prints."""
        where = f" to {self.output}" if self.output else ""
        tenants = self.tenants
        mix = f", {len(tenants)} tenants" if tenants else ""
        shaped = f", arrivals {self.arrivals}" if self.arrivals else ""
        return (
            f"wrote {len(self.records)} requests "
            f"({self.distinct} distinct types{mix}{shaped}){where}"
        )
