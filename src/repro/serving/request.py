"""The request/response contract of the serving layer.

A :class:`ServeRequest` names everything that determines a cost report —
the workload, the target platform, the batch size folded into the
platform configuration, and the execution context (die + thermal corner)
— and a :class:`ServeResponse` carries the resulting
:class:`~repro.core.reports.RunReport` back together with serving
metadata: whether it was a cache hit, whether it was deduplicated
against an identical request in the same micro-batch, and the request's
service latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.api import registry
from repro.core.base import WorkloadKind
from repro.core.context import ExecutionContext
from repro.core.reports import RunReport
from repro.errors import ConfigurationError

#: Valid ``ServeRequest.platform`` values.
PLATFORM_CHOICES = ("auto", "tron", "ghost")


@dataclass(frozen=True)
class ServeRequest:
    """One costing request: a frozen (workload, platform, ctx, batch).

    Attributes:
        workload: registered workload name (see
            :func:`repro.core.base.list_workloads`).
        platform: ``"tron"``, ``"ghost"``, or ``"auto"`` — auto routes
            graph workloads (static and temporal) to GHOST and
            everything else to TRON, by the API registry's rule
            (:func:`repro.api.registry.resolve_platform`).
        ctx: the evaluation corner (``None`` = nominal).
        batch: inferences sharing one weight-streaming pass; folded into
            the TRON configuration (GHOST costs full-graph inferences,
            so it only accepts ``batch=1``).

    Example:
        >>> ServeRequest(workload="BERT-base").platform
        'auto'
        >>> ServeRequest(workload="BERT-base", batch=0)
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: batch must be >= 1, got 0
    """

    workload: str
    platform: str = "auto"
    ctx: Optional[ExecutionContext] = None
    batch: int = 1

    def __post_init__(self) -> None:
        if not self.workload:
            raise ConfigurationError("a request needs a workload name")
        if self.platform not in PLATFORM_CHOICES:
            raise ConfigurationError(
                f"platform must be one of {PLATFORM_CHOICES}, "
                f"got {self.platform!r}"
            )
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {self.batch}")

    def resolve_platform(self, kind: WorkloadKind) -> str:
        """The concrete platform this request runs on (auto-routing).

        Example:
            >>> ServeRequest(workload="GCN-ba-temporal").resolve_platform(
            ...     WorkloadKind.TEMPORAL_GNN)
            'ghost'
        """
        return registry.resolve_platform(self.platform, kind)

    @classmethod
    def from_spec(cls, spec) -> "ServeRequest":
        """The request a run-kind :class:`~repro.api.ExperimentSpec`
        (or its dict form) denotes.

        The spec's context block resolves through the shared corner
        rule; its platform overrides may name only ``batch`` — the one
        knob serving parameterizes (anything else would
        silently serve a different platform than the spec describes).

        Example:
            >>> from repro.api import ExperimentSpec, PlatformSpec
            >>> spec = ExperimentSpec(
            ...     platform=PlatformSpec("tron", {"batch": 8}),
            ...     workload="BERT-base")
            >>> request = ServeRequest.from_spec(spec)
            >>> request.workload, request.batch
            ('BERT-base', 8)
        """
        from repro.api.spec import ExperimentSpec

        if isinstance(spec, dict):
            spec = ExperimentSpec.from_dict(spec)
        if spec.analysis.kind != "run":
            raise ConfigurationError(
                "only run-kind specs serve as requests; got analysis "
                f"kind {spec.analysis.kind!r}"
            )
        if not spec.workload:
            raise ConfigurationError("a serveable spec needs a workload")
        extra = sorted(set(spec.platform.overrides) - {"batch"})
        if extra:
            raise ConfigurationError(
                f"serving requests support only the 'batch' platform "
                f"override, got {extra}"
            )
        return cls(
            workload=spec.workload,
            platform=spec.platform.name,
            ctx=spec.context.resolve(),
            batch=int(spec.platform.overrides.get("batch", 1)),
        )


@dataclass
class ServeResponse:
    """The serving layer's answer to one :class:`ServeRequest`.

    Attributes:
        request: the originating request.
        report: the cost report, or ``None`` if the request failed
            (``error`` says why — e.g. the sampled die was dead).
        cached: served straight from the report cache.
        deduped: coalesced onto an identical request evaluated in the
            same micro-batch (shares that request's report object).
        error: failure description for dead dies / unmappable workloads.
        latency_s: service latency from scheduling start to resolution,
            including any batching delay.
    """

    request: ServeRequest
    report: Optional[RunReport]
    cached: bool = False
    deduped: bool = False
    error: Optional[str] = None
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the request produced a report."""
        return self.report is not None

    def to_dict(self) -> Dict:
        """JSON-serializable form of the response: the request fields as
        submitted (``platform`` is the requested target, possibly
        ``"auto"``; the report's own ``platform`` says where it ran),
        the serving metadata, and the report."""
        return {
            "workload": self.request.workload,
            "platform": self.request.platform,
            "batch": self.request.batch,
            "cached": self.cached,
            "deduped": self.deduped,
            "error": self.error,
            "latency_s": self.latency_s,
            "report": self.report.to_dict() if self.report else None,
        }
