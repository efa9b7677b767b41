"""Compressed sparse row (CSR) graph container.

The single graph type used across the library: GNN functional models
iterate neighbourhoods through it, GHOST's mapper reads its degree
statistics, and the partitioner slices it into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class CSRGraph:
    """A directed graph in CSR form (undirected graphs store both arcs).

    Attributes:
        indptr: (num_nodes + 1,) row pointers.
        indices: (num_edges,) column indices (neighbour ids).
        num_node_features: width of per-node feature vectors (metadata used
            by cost models; features themselves live with the caller).

    Nothing in the library edits a graph after ``__post_init__``, so
    values derived from its arrays (e.g. :attr:`degree_digest`) are
    cached on the instance.
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_node_features: int = 0

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ConfigurationError("indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0:
            raise ConfigurationError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ConfigurationError("indptr must be non-decreasing")
        if self.indices.ndim != 1:
            raise ConfigurationError("indices must be 1-D")
        if self.indptr[-1] != self.indices.size:
            raise ConfigurationError(
                f"indptr[-1]={self.indptr[-1]} != len(indices)={self.indices.size}"
            )
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_nodes
        ):
            raise ConfigurationError("neighbour index out of range")
        if self.num_node_features < 0:
            raise ConfigurationError(
                f"feature width must be >= 0, got {self.num_node_features}"
            )

    @property
    def num_nodes(self) -> int:
        """Number of vertices."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of stored arcs (an undirected edge counts twice)."""
        return self.indices.size

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour ids of a vertex."""
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(
                f"node {node} out of range [0, {self.num_nodes})"
            )
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def degree(self, node: int) -> int:
        """Out-degree of a vertex."""
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(
                f"node {node} out of range [0, {self.num_nodes})"
            )
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self) -> np.ndarray:
        """Out-degrees of all vertices."""
        return np.diff(self.indptr).astype(float)

    @cached_property
    def degree_digest(self) -> bytes:
        """16-byte digest of :meth:`degrees` (GHOST's aggregate-stage
        memo key), hashed once per graph."""
        # Imported here: transformer runs never hash a graph, so a cold
        # ``repro run BERT-base`` does not pay for loading hashlib.
        from hashlib import blake2b

        return blake2b(
            np.ascontiguousarray(self.degrees()).tobytes(), digest_size=16
        ).digest()

    @property
    def average_degree(self) -> float:
        """Mean out-degree."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / self.num_nodes

    @property
    def max_degree(self) -> int:
        """Maximum out-degree."""
        if self.num_nodes == 0:
            return 0
        return int(self.degrees().max())

    def degree_percentile(self, q: float) -> float:
        """Degree at percentile ``q`` (0-100) — used by workload balancing."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.degrees(), q))

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Union[np.ndarray, Iterable[Tuple[int, int]]],
        undirected: bool = True,
        num_node_features: int = 0,
    ) -> "CSRGraph":
        """Build from an ``(E, 2)`` integer array or any iterable of pairs.

        Drops self-loops, adds reverse arcs when ``undirected`` and
        deduplicates; arcs are stored sorted by ``(source, target)``.
        """
        if num_nodes < 1:
            raise ConfigurationError(f"need >= 1 node, got {num_nodes}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        arcs = np.asarray(edges, dtype=np.int64)
        arcs = arcs.reshape(0, 2) if arcs.size == 0 else arcs
        if arcs.ndim != 2 or arcs.shape[1] != 2:
            raise ConfigurationError(f"edges must be (E, 2) pairs, got {arcs.shape}")
        bad = ((arcs < 0) | (arcs >= num_nodes)).any(axis=1)
        if bad.any():
            u, v = arcs[bad.argmax()].tolist()
            raise ConfigurationError(
                f"edge ({u}, {v}) out of range for {num_nodes} nodes"
            )
        arcs = arcs[arcs[:, 0] != arcs[:, 1]]
        if undirected:
            arcs = np.concatenate([arcs, arcs[:, ::-1]])
        # One int64 key per arc sorts by (source, target) and dedups.
        keys = np.unique(arcs[:, 0] * num_nodes + arcs[:, 1])
        sources, targets = np.divmod(keys, num_nodes)
        counts = np.bincount(sources, minlength=num_nodes)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(
            indptr=indptr, indices=targets, num_node_features=num_node_features
        )

    def arc_sources(self) -> np.ndarray:
        """Source vertex of every stored arc (parallel to ``indices``)."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))

    def to_dense_adjacency(self) -> np.ndarray:
        """Dense (num_nodes x num_nodes) 0/1 adjacency matrix."""
        adj = np.zeros((self.num_nodes, self.num_nodes))
        adj[self.arc_sources(), self.indices] = 1.0
        return adj

    def is_symmetric(self) -> bool:
        """Whether every arc has its reverse (undirected storage)."""
        sources, n = self.arc_sources(), self.num_nodes
        reverse = self.indices * n + sources
        return bool(np.isin(reverse, sources * n + self.indices).all())

    def subgraph(self, nodes: np.ndarray) -> "CSRGraph":
        """Induced subgraph on a node subset (ids are remapped to 0..k-1)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            raise ConfigurationError("subgraph needs at least one node")
        if nodes.min() < 0 or nodes.max() >= self.num_nodes:
            raise ConfigurationError("subgraph node id out of range")
        remap = np.full(self.num_nodes, -1, dtype=np.int64)
        remap[nodes] = np.arange(nodes.size)
        arcs = remap[np.column_stack([self.arc_sources(), self.indices])]
        return CSRGraph.from_edges(
            num_nodes=nodes.size,
            edges=arcs[(arcs >= 0).all(axis=1)],
            undirected=False,
            num_node_features=self.num_node_features,
        )
