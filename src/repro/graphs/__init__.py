"""Graph substrate: CSR graphs, generators, dataset replicas, partitioning.

GHOST's cost depends on graph structure — node/edge counts, degree
distribution and feature widths.  The paper evaluates on standard citation
and social graphs; we replicate their published statistics with synthetic
generators (DESIGN.md section 1) and provide the buffer-and-partition
blocking GHOST uses to regularize memory accesses (Section V.D).
"""

from repro.graphs.graph import CSRGraph
from repro.graphs.generators import (
    erdos_renyi,
    barabasi_albert,
    rmat,
    stochastic_block_model,
)
from repro.graphs.datasets import (
    DATASET_ZOO,
    DatasetStats,
    get_dataset_stats,
    synthesize_dataset,
    synthesize_features,
)
from repro.graphs.partition import GraphPartitioner, PartitionBlock, PartitionSchedule

__all__ = [
    "CSRGraph",
    "erdos_renyi",
    "barabasi_albert",
    "rmat",
    "stochastic_block_model",
    "DATASET_ZOO",
    "DatasetStats",
    "get_dataset_stats",
    "synthesize_dataset",
    "synthesize_features",
    "GraphPartitioner",
    "PartitionBlock",
    "PartitionSchedule",
]
