"""Quickstart: run both photonic accelerators on one workload each.

Usage::

    python examples/quickstart.py

Estimates a BERT-base inference on TRON and a 2-layer GCN over a
Cora-like graph on GHOST, printing latency, energy, throughput (GOPS)
and energy-per-bit (EPB) — the metrics of the paper's Figs. 8-11.
"""

import numpy as np

from repro import (
    GHOST,
    GNNKind,
    TRON,
    bert_base,
    get_dataset_stats,
    make_gnn,
    synthesize_dataset,
)


def main():
    # --- TRON: the transformer/LLM accelerator (paper Section V.C) ---
    tron = TRON()
    print(tron.describe())
    report = tron.run_transformer(bert_base())
    print(report.summary())
    print()

    # --- GHOST: the GNN accelerator (paper Section V.D) ---
    ghost = GHOST()
    print(ghost.describe())
    stats = get_dataset_stats("cora")
    graph = synthesize_dataset(stats, rng=np.random.default_rng(0))
    model = make_gnn(
        GNNKind.GCN,
        in_dim=stats.feature_dim,
        out_dim=stats.num_classes,
        hidden_dim=64,
        name="GCN-cora",
    )
    report = ghost.run_gnn(model.config, graph)
    print(report.summary())
    print()
    print("Energy breakdown (nJ):")
    for category, pj in report.energy.as_dict().items():
        if pj > 0.0:
            print(f"  {category:<14s} {pj / 1e3:12.1f}")


if __name__ == "__main__":
    main()
