"""Accelerator and workload interfaces shared across the library.

Two contracts live here:

- :class:`Workload` — a named, countable unit of work (a transformer
  inference, a full-graph GNN pass, an MLP batch, or a suite of those).
  Workloads are registered by name so the CLI, the sweep engine and the
  figure generators can all resolve ``"BERT-base"`` or ``"GCN-cora"`` to
  the same object.
- :class:`Accelerator` — a platform that can estimate the cost of running
  a workload through the uniform ``run(workload, ctx=...) -> RunReport``
  entry point (``ctx`` selects the evaluation corner; ``None`` is the
  nominal corner).  Platforms declare what they can execute by overriding
  ``_run_workload``; unsupported kinds raise :class:`MappingError`.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.context import ExecutionContext
from repro.core.reports import RunReport
from repro.errors import ConfigurationError, MappingError


class WorkloadKind(Enum):
    """Coarse workload families an accelerator can declare support for.

    Example:
        >>> WorkloadKind("gnn").name
        'GNN'
        >>> [k.value for k in WorkloadKind]
        ['transformer', 'gnn', 'mlp', 'suite', 'decode', 'temporal_gnn']
    """

    TRANSFORMER = "transformer"
    GNN = "gnn"
    MLP = "mlp"
    SUITE = "suite"
    DECODE = "decode"
    TEMPORAL_GNN = "temporal_gnn"


class Workload(abc.ABC):
    """A named unit of work every platform costs with the same op counts.

    Concrete workloads (``repro.workloads``) wrap a model configuration
    plus whatever input description the cost models need (sequence
    length, a synthesized graph, a batch of samples).

    Example:
        >>> workload = get_workload("MLP-mnist")
        >>> workload.kind.value
        'mlp'
        >>> workload.parts() == (workload,)   # leaf: its own only part
        True
    """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Workload name as it appears in figures and the registry."""

    @property
    @abc.abstractmethod
    def kind(self) -> WorkloadKind:
        """Which family this workload belongs to (dispatch key)."""

    @abc.abstractmethod
    def op_count(self, bytes_per_value: int = 1):
        """The :class:`repro.nn.counting.OpCount` of one inference."""

    def parts(self) -> Sequence["Workload"]:
        """Sub-workloads of a suite; leaf workloads return themselves."""
        return (self,)

    def materialize(self) -> None:
        """Force any expensive lazy state (graph synthesis, trace loading)
        into existence now.  No-op by default; the sweep engine calls this
        once before fanning points out to workers."""

    def describe(self) -> str:
        """Human-readable one-line description (defaults to the name)."""
        return self.name


#: Name -> factory registry.  Factories are called lazily (workload
#: materialization can be expensive — e.g. graph synthesis) and the
#: resulting instance is cached so repeated lookups share it.
_WORKLOAD_FACTORIES: Dict[str, Callable[[], Workload]] = {}
_WORKLOAD_INSTANCES: Dict[str, Workload] = {}


def register_workload(name: str, factory: Callable[[], Workload]) -> None:
    """Register a workload factory under a unique name.

    Example:
        >>> import repro.workloads  # default registrations
        >>> register_workload("MLP-mnist", lambda: None)
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: workload 'MLP-mnist' is already registered
    """
    if name in _WORKLOAD_FACTORIES:
        raise ConfigurationError(f"workload {name!r} is already registered")
    _WORKLOAD_FACTORIES[name] = factory


def get_workload(name: str) -> Workload:
    """Resolve a registered workload by name (materializing it once).

    Example:
        >>> get_workload("MLP-mnist").describe()
        'MLP-mnist: MLP 784-512-256-10, batch 64'
        >>> get_workload("MLP-mnist") is get_workload("MLP-mnist")
        True

    Raises:
        ConfigurationError: for unknown names (message lists valid ones).
    """
    # The default registrations live in repro.workloads; importing it here
    # keeps `get_workload("BERT-base")` working without a prior import.
    import repro.workloads  # noqa: F401  (registers on import)

    if name not in _WORKLOAD_FACTORIES:
        raise ConfigurationError(
            f"unknown workload {name!r}; known workloads: {list_workloads()}"
        )
    if name not in _WORKLOAD_INSTANCES:
        _WORKLOAD_INSTANCES[name] = _WORKLOAD_FACTORIES[name]()
    return _WORKLOAD_INSTANCES[name]


def list_workloads() -> List[str]:
    """Sorted names of all registered workloads.

    Example:
        >>> "BERT-base" in list_workloads()
        True
    """
    import repro.workloads  # noqa: F401  (registers on import)

    return sorted(_WORKLOAD_FACTORIES)


#: The attributes a workload must expose for each kind — the dispatch
#: contract the accelerators' ``_run_workload`` implementations rely on.
WORKLOAD_KIND_CONTRACTS: Dict[WorkloadKind, Sequence[str]] = {
    WorkloadKind.TRANSFORMER: ("model",),
    WorkloadKind.GNN: ("model_config", "graph"),
    WorkloadKind.MLP: ("layer_dims", "samples"),
    WorkloadKind.SUITE: ("parts",),
    WorkloadKind.DECODE: ("model", "prompt_tokens", "generated_tokens"),
    WorkloadKind.TEMPORAL_GNN: ("model_config", "snapshots"),
}


def check_kind_contract(workload: Workload) -> None:
    """Raise :class:`MappingError` if ``workload`` declares a kind whose
    required attributes it does not provide.

    Example:
        >>> check_kind_contract(get_workload("MLP-mnist")) is None
        True
    """
    missing = [
        attr
        for attr in WORKLOAD_KIND_CONTRACTS.get(workload.kind, ())
        if not hasattr(workload, attr)
    ]
    if missing:
        raise MappingError(
            f"workload {workload.name!r} declares kind "
            f"{workload.kind.value!r} but lacks the required "
            f"attribute(s) {missing}"
        )


class Accelerator(abc.ABC):
    """A platform that can estimate the cost of running a workload.

    Every platform — TRON, GHOST, roofline and reported baselines —
    executes through the uniform entry point ``run(workload)``.  Suites
    fan out to their parts and merge; leaf workloads dispatch to the
    platform's ``_run_workload`` implementation.

    Example:
        >>> from repro.core import TRON
        >>> report = TRON().run(get_workload("MLP-mnist"))
        >>> report.platform, report.workload
        ('TRON', 'MLP-mnist')
        >>> report.latency_ns > 0 and report.energy_pj > 0
        True
    """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Platform name as it appears in the figures."""

    def describe(self) -> str:
        """Human-readable one-line description (defaults to the name)."""
        return self.name

    def run(
        self,
        workload: Workload,
        ctx: Optional[ExecutionContext] = None,
    ) -> RunReport:
        """Cost one inference of ``workload`` on this platform.

        Args:
            workload: a :class:`Workload` instance (resolve names via
                :func:`get_workload`).
            ctx: the evaluation corner (process-variation sample, thermal
                corner, analog noise, seed).  ``None`` — and any nominal
                context — costs the nominal corner, bit-identical to the
                context-free path.

        Returns:
            The platform's :class:`RunReport` for the workload.

        Raises:
            MappingError: if this platform cannot execute the workload.
            YieldError: if the context's sampled die has no usable
                hardware left after yield gating.
        """
        check_kind_contract(workload)
        if workload.kind is WorkloadKind.SUITE:
            reports = [self.run(part, ctx=ctx) for part in workload.parts()]
            return self._check_report(self._merge_reports(workload, reports))
        return self._check_report(self._run_workload(workload, ctx))

    def _run_workload(
        self,
        workload: Workload,
        ctx: Optional[ExecutionContext] = None,
    ) -> RunReport:
        """Platform-specific execution; subclasses override."""
        raise MappingError(
            f"{self.name} cannot execute {workload.kind.value!r} workload "
            f"{workload.name!r}"
        )

    def _merge_reports(
        self, suite: Workload, reports: Sequence[RunReport]
    ) -> RunReport:
        """Serial composition of a suite: latencies and energies add."""
        if not reports:
            raise MappingError(f"suite {suite.name!r} has no parts")
        ops = reports[0].ops
        latency = reports[0].latency
        energy = reports[0].energy
        for report in reports[1:]:
            ops = ops + report.ops
            latency = latency + report.latency
            energy = energy + report.energy
        return RunReport(
            platform=self.name,
            workload=suite.name,
            ops=ops,
            latency=latency,
            energy=energy,
            bits_per_value=reports[0].bits_per_value,
        )

    @staticmethod
    def _check_report(report: RunReport) -> RunReport:
        """Hook for subclasses to validate reports before returning them."""
        return report


#: Context-bound clones one accelerator retains (LRU).  A serving worker
#: rotates each accelerator through about a dozen dies; die sweeps churn
#: through the bound instead of growing it.
MAX_CONTEXT_CLONES = 64


class ContextBoundAccelerator(Accelerator):
    """A dataclass accelerator bound to one context (``self.ctx``).

    ``run(workload, ctx=...)`` dispatches through a clone bound to
    ``ctx``.  Subclasses create ``self._context_clones`` as an
    ``LRUMemo("accelerator.context_clones", MAX_CONTEXT_CLONES)`` in
    ``__post_init__``; a hit refreshes the clone's recency, so a hot
    rotation of dies keeps its unit stacks and per-clone memos.
    """

    def bind(self, ctx: Optional[ExecutionContext] = None):
        """The context-bound clone ``run(workload, ctx=...)`` dispatches
        to (``self`` for ``None`` or its own context) — public so callers
        can reach its memory model (e.g. a recorded DRAM command trace)
        after a run."""
        if ctx is None or ctx == self.ctx:
            return self
        clone = self._context_clones.get(ctx)
        if clone is None:
            clone = replace(self, ctx=ctx)
            self._context_clones.put(ctx, clone)
        return clone
