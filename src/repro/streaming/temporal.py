"""Temporal graph workloads: edge-delta streams over evolving snapshots.

Production graph serving re-runs inference as the graph evolves —
citation/social graphs *grow* (preferential attachment, R-MAT), while
community graphs *churn* (edges rewire within the block structure).
This module generates deterministic delta streams on top of
:mod:`repro.graphs.generators`, materializes the snapshot sequence, and
re-evaluates GHOST on every snapshot with stage-cost reuse measured and
surfaced (the accelerator's stage memo keeps aggregate/combine/update/
memory layer costs keyed on exactly what they depend on, so everything
a delta leaves untouched is reused bit-identically).

Example:
    >>> base, deltas = delta_stream(
    ...     DeltaKind.BA_GROWTH, seed=3, num_deltas=2,
    ...     num_nodes=48, attachment=2, nodes_per_delta=4)
    >>> [d.added_nodes for d in deltas]
    [4, 4]
    >>> snaps = snapshots_from(base, deltas)
    >>> [g.num_nodes for g in snaps]
    [48, 52, 56]
    >>> snapshots_from(base, deltas)[2].num_edges == snaps[2].num_edges
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.base import Workload, WorkloadKind
from repro.core.reports import RunReport
from repro.errors import ConfigurationError
from repro.graphs.generators import (
    barabasi_albert,
    rmat,
    stochastic_block_model,
)
from repro.graphs.graph import CSRGraph
from repro.nn.counting import OpCount, gnn_op_count
from repro.nn.gnn import GNNConfig

Edge = Tuple[int, int]


class DeltaKind(Enum):
    """The evolution regimes a delta stream can follow."""

    BA_GROWTH = "ba-growth"
    RMAT_GROWTH = "rmat-growth"
    SBM_CHURN = "sbm-churn"


@dataclass(frozen=True)
class GraphDelta:
    """One evolution step: nodes appended, edges added/removed.

    Edges are canonical undirected pairs ``(u, v)`` with ``u < v``.
    """

    added_nodes: int = 0
    added_edges: Tuple[Edge, ...] = ()
    removed_edges: Tuple[Edge, ...] = ()

    def describe(self) -> str:
        return (
            f"+{self.added_nodes}n +{len(self.added_edges)}e "
            f"-{len(self.removed_edges)}e"
        )


def _canonical(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _edge_set(graph: CSRGraph) -> Set[Edge]:
    """The canonical undirected edge set of a CSR graph."""
    sources = graph.arc_sources()
    upper = sources < graph.indices
    return set(zip(sources[upper].tolist(), graph.indices[upper].tolist()))


def apply_delta(
    num_nodes: int, edges: Set[Edge], delta: GraphDelta
) -> Tuple[int, Set[Edge]]:
    """The (num_nodes, edge set) after one delta (inputs untouched)."""
    grown = num_nodes + delta.added_nodes
    updated = set(edges)
    updated.difference_update(delta.removed_edges)
    for u, v in delta.added_edges:
        if u == v or u >= grown or v >= grown:
            raise ConfigurationError(f"delta edge ({u}, {v}) is invalid")
        updated.add(_canonical(u, v))
    return grown, updated


def snapshots_from(
    base: CSRGraph, deltas: Sequence[GraphDelta]
) -> List[CSRGraph]:
    """The snapshot sequence: base, then after each delta in order.

    Snapshots rebuild incrementally from one evolving edge set — the
    base graph is synthesized once, never per snapshot.
    """
    snapshots = [base]
    num_nodes = base.num_nodes
    edges = _edge_set(base)
    for delta in deltas:
        num_nodes, edges = apply_delta(num_nodes, edges, delta)
        snapshots.append(
            CSRGraph.from_edges(
                num_nodes,
                edges,
                undirected=True,
                num_node_features=base.num_node_features,
            )
        )
    return snapshots


def _ba_growth(
    rng: np.random.Generator,
    base: CSRGraph,
    num_deltas: int,
    nodes_per_delta: int,
    attachment: int,
) -> List[GraphDelta]:
    """Preferential-attachment growth: new nodes wire to high-degree hubs."""
    if nodes_per_delta < 1:
        raise ConfigurationError("nodes_per_delta must be >= 1")
    # Degree-proportional sampling via the repeated-node list, seeded
    # from the base graph's arcs (each undirected edge contributes both
    # endpoints) — the same O(E) device barabasi_albert uses.
    repeated = [u for edge in sorted(_edge_set(base)) for u in edge]
    next_node = base.num_nodes
    deltas = []
    for _ in range(num_deltas):
        added: List[Edge] = []
        for _ in range(nodes_per_delta):
            chosen: Set[int] = set()
            while len(chosen) < min(attachment, next_node):
                chosen.add(repeated[rng.integers(0, len(repeated))])
            for target in chosen:
                added.append(_canonical(next_node, target))
                repeated.extend([next_node, target])
            next_node += 1
        deltas.append(
            GraphDelta(added_nodes=nodes_per_delta, added_edges=tuple(added))
        )
    return deltas


def _rmat_growth(
    rng: np.random.Generator,
    base: CSRGraph,
    num_deltas: int,
    edges_per_delta: int,
    scale: int,
    a: float,
    b: float,
    c: float,
) -> List[GraphDelta]:
    """R-MAT densification: new edges drawn by the recursive quadrants."""
    if edges_per_delta < 1:
        raise ConfigurationError("edges_per_delta must be >= 1")
    existing = _edge_set(base)
    deltas = []
    for _ in range(num_deltas):
        sources = np.zeros(edges_per_delta, dtype=np.int64)
        targets = np.zeros(edges_per_delta, dtype=np.int64)
        for level in range(scale):
            r = rng.random(edges_per_delta)
            right = (r >= a) & (r < a + b) | (r >= a + b + c)
            down = r >= a + b
            sources |= down.astype(np.int64) << level
            targets |= right.astype(np.int64) << level
        added = []
        for u, v in zip(sources.tolist(), targets.tolist()):
            edge = _canonical(u, v)
            if u != v and edge not in existing:
                existing.add(edge)
                added.append(edge)
        deltas.append(GraphDelta(added_edges=tuple(added)))
    return deltas


def _sbm_churn(
    rng: np.random.Generator,
    base: CSRGraph,
    num_deltas: int,
    rewire_fraction: float,
    block_sizes: Sequence[int],
    p_within: float,
    p_between: float,
) -> List[GraphDelta]:
    """Community churn: rewire a fraction of edges inside the block law."""
    if not 0.0 < rewire_fraction <= 1.0:
        raise ConfigurationError(
            f"rewire_fraction must be in (0, 1], got {rewire_fraction}"
        )
    labels = np.repeat(np.arange(len(block_sizes)), list(block_sizes))
    num_nodes = int(labels.size)
    p_max = max(p_within, p_between, 1e-12)
    edges = _edge_set(base)
    deltas = []
    for _ in range(num_deltas):
        pool = sorted(edges)
        k = max(1, int(round(rewire_fraction * len(pool))))
        removed_idx = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
        removed = tuple(pool[i] for i in sorted(removed_idx.tolist()))
        edges.difference_update(removed)
        added: List[Edge] = []
        attempts = 0
        # Rejection-sample replacement edges from the SBM law so the
        # community structure is preserved while identities churn.
        while len(added) < len(removed) and attempts < 200 * len(removed):
            attempts += 1
            u = int(rng.integers(0, num_nodes))
            v = int(rng.integers(0, num_nodes))
            if u == v:
                continue
            edge = _canonical(u, v)
            if edge in edges:
                continue
            p = p_within if labels[u] == labels[v] else p_between
            if rng.random() < p / p_max:
                edges.add(edge)
                added.append(edge)
        deltas.append(
            GraphDelta(added_edges=tuple(added), removed_edges=removed)
        )
    return deltas


def delta_stream(
    kind: DeltaKind,
    seed: int = 7,
    num_deltas: int = 4,
    num_node_features: int = 0,
    **params,
) -> Tuple[CSRGraph, Tuple[GraphDelta, ...]]:
    """A deterministic (base graph, delta stream) pair.

    Same ``(kind, seed, params)`` — same base and the same deltas; the
    base generator and the stream draw from independently-derived rng
    streams so delta count never perturbs the base.

    Kind-specific ``params``:
        BA_GROWTH: ``num_nodes``, ``attachment``, ``nodes_per_delta``.
        RMAT_GROWTH: ``scale``, ``edge_factor``, ``edges_per_delta``.
        SBM_CHURN: ``block_sizes``, ``p_within``, ``p_between``,
            ``rewire_fraction``.
    """
    if num_deltas < 1:
        raise ConfigurationError(f"need >= 1 delta, got {num_deltas}")
    stream_rng = np.random.default_rng([seed, 1])
    if kind is DeltaKind.BA_GROWTH:
        num_nodes = int(params.pop("num_nodes", 64))
        attachment = int(params.pop("attachment", 2))
        nodes_per_delta = int(params.pop("nodes_per_delta", 8))
        _reject_params(kind, params)
        base = barabasi_albert(
            num_nodes, attachment, seed=seed,
            num_node_features=num_node_features,
        )
        deltas = _ba_growth(
            stream_rng, base, num_deltas, nodes_per_delta, attachment
        )
    elif kind is DeltaKind.RMAT_GROWTH:
        scale = int(params.pop("scale", 7))
        edge_factor = int(params.pop("edge_factor", 4))
        edges_per_delta = int(params.pop("edges_per_delta", 64))
        a = float(params.pop("a", 0.57))
        b = float(params.pop("b", 0.19))
        c = float(params.pop("c", 0.19))
        _reject_params(kind, params)
        base = rmat(
            scale, edge_factor, a=a, b=b, c=c, seed=seed,
            num_node_features=num_node_features,
        )
        deltas = _rmat_growth(
            stream_rng, base, num_deltas, edges_per_delta, scale, a, b, c
        )
    elif kind is DeltaKind.SBM_CHURN:
        block_sizes = tuple(params.pop("block_sizes", (32, 32, 32)))
        p_within = float(params.pop("p_within", 0.2))
        p_between = float(params.pop("p_between", 0.01))
        rewire_fraction = float(params.pop("rewire_fraction", 0.05))
        _reject_params(kind, params)
        base = stochastic_block_model(
            block_sizes, p_within, p_between, seed=seed,
            num_node_features=num_node_features,
        )
        deltas = _sbm_churn(
            stream_rng, base, num_deltas, rewire_fraction,
            block_sizes, p_within, p_between,
        )
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigurationError(f"unknown delta kind {kind!r}")
    return base, tuple(deltas)


def _reject_params(kind: DeltaKind, leftover: Dict) -> None:
    if leftover:
        raise ConfigurationError(
            f"unknown {kind.value} stream parameter(s): {sorted(leftover)}"
        )


@dataclass(frozen=True)
class TemporalReport:
    """GHOST over a snapshot sequence, with reuse accounting.

    Attributes:
        snapshots: per-snapshot RunReports, in stream order.
        total: serial composition over the whole stream.
        reuse: stage-memo accounting for this stream (lookups/hits of
            the aggregate/combine/update/memory stage costs).
    """

    snapshots: Tuple[RunReport, ...]
    total: RunReport
    reuse: Dict[str, float]

    @property
    def stage_hit_rate(self) -> float:
        """Fraction of stage-cost lookups served from prior deltas."""
        lookups = self.reuse["hits"] + self.reuse["misses"]
        return self.reuse["hits"] / lookups if lookups else 0.0

    def summary(self) -> str:
        return (
            f"{len(self.snapshots)} snapshots: "
            f"{self.total.latency_ns / 1e6:.3f} ms total, "
            f"stage reuse {self.stage_hit_rate:.0%}"
        )


def run_temporal(
    ghost,
    model: GNNConfig,
    snapshots: Sequence[CSRGraph],
) -> TemporalReport:
    """Evaluate ``model`` on every snapshot, measuring stage reuse.

    The accelerator's stage memo carries costs across snapshots;
    the reported reuse counts only this stream's lookups.
    """
    if not snapshots:
        raise ConfigurationError("need at least one snapshot")
    before = ghost.stage_memo.stats.to_dict()
    reports = tuple(ghost.run_gnn(model, graph) for graph in snapshots)
    after = ghost.stage_memo.stats.to_dict()
    reuse = {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
    }
    ops = reports[0].ops
    latency = reports[0].latency
    energy = reports[0].energy
    for report in reports[1:]:
        ops = ops + report.ops
        latency = latency + report.latency
        energy = energy + report.energy
    total = RunReport(
        platform=ghost.name,
        workload=f"{model.name}-temporal[{len(reports)} snapshots]",
        ops=ops,
        latency=latency,
        energy=energy,
        bits_per_value=reports[0].bits_per_value,
    )
    return TemporalReport(snapshots=reports, total=total, reuse=reuse)


@dataclass
class TemporalGraphWorkload(Workload):
    """An evolving-graph GNN workload: one model over a delta stream.

    Snapshots materialize lazily (delta-stream synthesis is the
    expensive part) and cache on the workload, mirroring
    :class:`repro.workloads.GNNWorkload`.

    Example:
        >>> from repro.core.base import get_workload
        >>> workload = get_workload("GCN-ba-temporal")
        >>> workload.kind.value
        'temporal_gnn'
    """

    model_config: GNNConfig
    delta_kind: DeltaKind
    label: str
    seed: int = 7
    num_deltas: int = 4
    params: Tuple[Tuple[str, object], ...] = ()
    _snapshots: Optional[Tuple[CSRGraph, ...]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.label

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.TEMPORAL_GNN

    @property
    def snapshots(self) -> Tuple[CSRGraph, ...]:
        """The materialized snapshot sequence (built once, then shared)."""
        if self._snapshots is None:
            base, deltas = delta_stream(
                self.delta_kind,
                seed=self.seed,
                num_deltas=self.num_deltas,
                num_node_features=self.model_config.in_dim,
                **dict(self.params),
            )
            self._snapshots = tuple(snapshots_from(base, deltas))
        return self._snapshots

    def materialize(self) -> None:
        self.snapshots  # noqa: B018 - force the lazy synthesis

    def op_count(self, bytes_per_value: int = 1) -> OpCount:
        total = OpCount()
        for graph in self.snapshots:
            total = total + gnn_op_count(
                self.model_config, graph, bytes_per_value=bytes_per_value
            )
        return total

    def describe(self) -> str:
        return (
            f"{self.label}: {self.model_config.name} over "
            f"{self.num_deltas + 1} {self.delta_kind.value} snapshots "
            f"(seed {self.seed})"
        )
