"""Synthetic graph generators: ER, Barabási–Albert, R-MAT and SBM.

These produce the degree-distribution regimes that stress GNN
accelerators differently: ER graphs are uniform (easy to balance), BA and
R-MAT graphs are power-law (the irregular, hub-dominated workloads the
paper's buffer-and-partition optimization targets), and SBMs have
community structure (locality the partitioner can exploit).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.graphs.graph import CSRGraph


def _resolve_rng(
    rng: Optional[np.random.Generator], seed: Optional[int]
) -> np.random.Generator:
    """Resolve the ``rng``/``seed`` pair every generator accepts.

    ``seed`` derives a fresh :class:`numpy.random.Generator`, so callers
    (temporal delta streams, tests) control determinism without sharing
    a generator object.  Passing both is ambiguous and rejected.
    """
    if rng is not None and seed is not None:
        raise ConfigurationError("pass rng or seed, not both")
    if seed is not None:
        return np.random.default_rng(seed)
    return rng or np.random.default_rng(0)


def erdos_renyi(
    num_nodes: int,
    edge_probability: float,
    rng: Optional[np.random.Generator] = None,
    num_node_features: int = 0,
    seed: Optional[int] = None,
) -> CSRGraph:
    """Erdős–Rényi G(n, p) undirected graph."""
    if num_nodes < 1:
        raise ConfigurationError(f"need >= 1 node, got {num_nodes}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ConfigurationError(
            f"edge probability must be in [0, 1], got {edge_probability}"
        )
    rng = _resolve_rng(rng, seed)
    upper = rng.random((num_nodes, num_nodes)) < edge_probability
    upper = np.triu(upper, k=1)
    return CSRGraph.from_edges(
        num_nodes,
        np.argwhere(upper),
        undirected=True,
        num_node_features=num_node_features,
    )


def barabasi_albert(
    num_nodes: int,
    attachment: int,
    rng: Optional[np.random.Generator] = None,
    num_node_features: int = 0,
    seed: Optional[int] = None,
) -> CSRGraph:
    """Barabási–Albert preferential-attachment graph (power-law degrees)."""
    if num_nodes < 2:
        raise ConfigurationError(f"need >= 2 nodes, got {num_nodes}")
    if attachment < 1 or attachment >= num_nodes:
        raise ConfigurationError(
            f"attachment must be in [1, num_nodes), got {attachment}"
        )
    rng = _resolve_rng(rng, seed)
    edges = []
    # Seed clique of `attachment + 1` nodes.
    seed_size = attachment + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            edges.append((u, v))
    # Repeated-node list implements preferential attachment in O(E).
    repeated = [u for edge in edges for u in edge]
    for new_node in range(seed_size, num_nodes):
        chosen = set()
        while len(chosen) < attachment:
            pick = repeated[rng.integers(0, len(repeated))]
            chosen.add(pick)
        for target in chosen:
            edges.append((new_node, target))
            repeated.extend([new_node, target])
    return CSRGraph.from_edges(
        num_nodes, edges, undirected=True, num_node_features=num_node_features
    )


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    rng: Optional[np.random.Generator] = None,
    num_node_features: int = 0,
    seed: Optional[int] = None,
) -> CSRGraph:
    """R-MAT (recursive matrix) generator — Graph500-style skewed graphs.

    Args:
        scale: log2 of the node count.
        edge_factor: edges per node before deduplication.
        a, b, c: quadrant probabilities (d = 1 - a - b - c).
    """
    if scale < 1 or scale > 24:
        raise ConfigurationError(f"scale must be in [1, 24], got {scale}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0.0:
        raise ConfigurationError("quadrant probabilities must be >= 0 and sum <= 1")
    rng = _resolve_rng(rng, seed)
    num_nodes = 1 << scale
    num_edges = num_nodes * edge_factor
    sources = np.zeros(num_edges, dtype=np.int64)
    targets = np.zeros(num_edges, dtype=np.int64)
    for level in range(scale):
        r = rng.random(num_edges)
        # Quadrant choice: a (00), b (01), c (10), d (11).
        right = (r >= a) & (r < a + b) | (r >= a + b + c)
        down = r >= a + b
        sources |= down.astype(np.int64) << level
        targets |= right.astype(np.int64) << level
    return CSRGraph.from_edges(
        num_nodes,
        np.column_stack([sources, targets]),
        undirected=True,
        num_node_features=num_node_features,
    )


def stochastic_block_model(
    block_sizes,
    p_within: float,
    p_between: float,
    rng: Optional[np.random.Generator] = None,
    num_node_features: int = 0,
    seed: Optional[int] = None,
) -> CSRGraph:
    """Stochastic block model with uniform within/between probabilities."""
    block_sizes = list(block_sizes)
    if not block_sizes or any(size < 1 for size in block_sizes):
        raise ConfigurationError("block sizes must be positive")
    for name, p in (("p_within", p_within), ("p_between", p_between)):
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
    rng = _resolve_rng(rng, seed)
    num_nodes = sum(block_sizes)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    same_block = labels[:, None] == labels[None, :]
    probs = np.where(same_block, p_within, p_between)
    upper = rng.random((num_nodes, num_nodes)) < probs
    upper = np.triu(upper, k=1)
    return CSRGraph.from_edges(
        num_nodes,
        np.argwhere(upper),
        undirected=True,
        num_node_features=num_node_features,
    )
