"""Graph processing study on GHOST: datasets, GNN variants, optimizations.

Reproduces the paper's Section V.D story on real workload shapes:

1. runs all four GNN architectures over the citation datasets,
2. shows what the buffer-and-partition and workload-balancing
   optimizations buy on a hub-dominated (power-law) graph,
3. runs a small *functional* GNN inference through the optical datapath
   and verifies it matches the electronic reference.

Usage::

    python examples/graph_processing_ghost.py
"""

import numpy as np

from repro.core.ghost import GHOST, GHOSTConfig
from repro.graphs.datasets import get_dataset_stats, synthesize_dataset
from repro.graphs.generators import barabasi_albert
from repro.nn.gnn import GNNKind, make_gnn


def dataset_sweep():
    print("== GNN x dataset sweep on GHOST ==")
    ghost = GHOST()
    for dataset in ("cora", "citeseer", "pubmed"):
        stats = get_dataset_stats(dataset)
        graph = synthesize_dataset(stats, rng=np.random.default_rng(0))
        for kind in (GNNKind.GCN, GNNKind.SAGE, GNNKind.GIN, GNNKind.GAT):
            model = make_gnn(
                kind,
                in_dim=stats.feature_dim,
                out_dim=stats.num_classes,
                hidden_dim=64,
                heads=2 if kind is GNNKind.GAT else 1,
                name=f"{kind.value}-{dataset}",
            )
            report = ghost.run_gnn(model.config, graph)
            print(
                f"  {model.config.name:<22s} {report.latency_ns / 1e3:8.1f} us  "
                f"{report.energy_pj / 1e6:8.1f} uJ  "
                f"{report.gops / 1e3:6.1f} TOPS  {report.epb_pj:.4f} pJ/bit"
            )
    print()


def optimization_study():
    print("== Optimization study on a power-law graph (BA, 4000 nodes) ==")
    graph = barabasi_albert(4000, 5, rng=np.random.default_rng(1))
    model = make_gnn(GNNKind.GCN, in_dim=256, out_dim=16, hidden_dim=64)
    variants = {
        "all optimizations": GHOSTConfig(),
        "no partitioning": GHOSTConfig(use_partitioning=False),
        "no balancing": GHOSTConfig(use_balancing=False),
        "neither": GHOSTConfig(use_partitioning=False, use_balancing=False),
    }
    for label, config in variants.items():
        report = GHOST(config).run_gnn(model.config, graph)
        print(
            f"  {label:<18s} {report.latency_ns / 1e3:9.1f} us  "
            f"{report.energy_pj / 1e6:9.1f} uJ"
        )
    print()


def functional_check():
    print("== Functional optical inference vs. electronic reference ==")
    rng = np.random.default_rng(2)
    graph = barabasi_albert(60, 3, rng=rng)
    features = rng.normal(0.0, 1.0, (graph.num_nodes, 16))
    model = make_gnn(GNNKind.GCN, in_dim=16, out_dim=4, hidden_dim=12)
    ghost = GHOST(GHOSTConfig(lanes=4, edge_units=8, array_rows=16, array_cols=16))
    optical = ghost.forward(model, graph, features)
    reference = model.forward(graph, features)
    err = np.abs(optical - reference).max()
    agree = np.mean(optical.argmax(1) == reference.argmax(1))
    print(f"  max |optical - reference| = {err:.2e}")
    print(f"  class prediction agreement = {100 * agree:.1f}%")


if __name__ == "__main__":
    dataset_sweep()
    optimization_study()
    functional_check()
