"""Dataset-statistics replicas of the graphs used in the GHOST evaluation.

We cannot ship Cora/Citeseer/Pubmed, but the accelerator's cost depends
only on node/edge counts, degree shape and feature widths (DESIGN.md
section 1).  Each :class:`DatasetStats` records the published statistics;
:func:`synthesize_dataset` generates a graph matching them using a
degree-preserving configuration-model-style construction, and
:func:`synthesize_features` a feature matrix for callers that want one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.graphs.graph import CSRGraph


@dataclass(frozen=True)
class DatasetStats:
    """Published statistics of a graph benchmark dataset.

    Attributes:
        name: dataset name.
        num_nodes: vertex count.
        num_edges: undirected edge count (arcs stored = 2x this).
        feature_dim: input feature width.
        num_classes: label count (GNN output width).
        power_law: whether the degree distribution is heavy-tailed.
    """

    name: str
    num_nodes: int
    num_edges: int
    feature_dim: int
    num_classes: int
    power_law: bool = False

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.num_edges < 0:
            raise ConfigurationError("node/edge counts must be positive")
        if self.feature_dim < 1 or self.num_classes < 2:
            raise ConfigurationError("feature_dim >= 1 and num_classes >= 2 required")

    @property
    def average_degree(self) -> float:
        """Mean undirected degree (2E / N)."""
        return 2.0 * self.num_edges / self.num_nodes


#: Citation / co-purchase graphs from the GHOST evaluation (published stats).
DATASET_ZOO: Dict[str, DatasetStats] = {
    "cora": DatasetStats(
        name="cora",
        num_nodes=2708,
        num_edges=5278,
        feature_dim=1433,
        num_classes=7,
    ),
    "citeseer": DatasetStats(
        name="citeseer",
        num_nodes=3327,
        num_edges=4552,
        feature_dim=3703,
        num_classes=6,
    ),
    "pubmed": DatasetStats(
        name="pubmed",
        num_nodes=19717,
        num_edges=44324,
        feature_dim=500,
        num_classes=3,
    ),
    # Subsampled replicas of the larger graphs (full Reddit/Amazon would
    # make the pure-python functional models needlessly slow; the cost
    # models use the *stats*, which can be scaled separately).
    "reddit-sample": DatasetStats(
        name="reddit-sample",
        num_nodes=8192,
        num_edges=196608,
        feature_dim=602,
        num_classes=41,
        power_law=True,
    ),
    "amazon-sample": DatasetStats(
        name="amazon-sample",
        num_nodes=4096,
        num_edges=65536,
        feature_dim=200,
        num_classes=10,
        power_law=True,
    ),
}


def get_dataset_stats(name: str) -> DatasetStats:
    """Look up a dataset's statistics by name.

    Raises:
        ConfigurationError: for unknown names (message lists valid ones).
    """
    try:
        return DATASET_ZOO[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dataset {name!r}; known datasets: {sorted(DATASET_ZOO)}"
        ) from None


def synthesize_dataset(
    stats: DatasetStats, rng: Optional[np.random.Generator] = None
) -> CSRGraph:
    """Generate a CSR graph matching a dataset's statistics.

    Degree sequence: uniform-random pairing for citation-style graphs,
    Zipf-weighted pairing for power-law graphs.  The edge count matches
    the published figure up to collision losses (< a few percent).
    Only the structure is generated — the costing path reads nothing
    else; :func:`synthesize_features` makes the feature matrix on demand.
    """
    rng = rng or np.random.default_rng(0)
    n = stats.num_nodes
    if stats.power_law:
        weights = 1.0 / np.arange(1, n + 1) ** 0.8
        weights /= weights.sum()
    else:
        weights = np.full(n, 1.0 / n)
    sources = rng.choice(n, size=stats.num_edges, p=weights)
    targets = rng.choice(n, size=stats.num_edges, p=weights)
    return CSRGraph.from_edges(
        n,
        np.column_stack([sources, targets]),
        undirected=True,
        num_node_features=stats.feature_dim,
    )


def synthesize_features(
    stats: DatasetStats, rng: np.random.Generator
) -> np.ndarray:
    """A (num_nodes, feature_dim) matrix of sparse, non-negative features.

    About 1% of the entries are set, like bag-of-words vectors.  Drawing
    from the generator :func:`synthesize_dataset` just used gives the
    features that belong with that graph.
    """
    density = min(0.05, max(0.01, 50.0 / stats.feature_dim))
    features = np.zeros((stats.num_nodes, stats.feature_dim))
    nnz_per_row = max(1, int(density * stats.feature_dim))
    for row in range(stats.num_nodes):
        cols = rng.choice(stats.feature_dim, size=nnz_per_row, replace=False)
        features[row, cols] = rng.random(nnz_per_row)
    return features
