"""Ablation A3: buffer-and-partition on/off (Section V.D).

Runs GHOST over the paper's datasets with the blocking optimization
enabled and disabled, reporting memory energy and total latency.  The
unblocked variant pays one irregular fetch per edge at the random-access
penalty; the blocked variant streams each vertex's features once per
layer sweep.
"""

from repro.core.ghost import GHOST, GHOSTConfig
from repro.graphs.datasets import get_dataset_stats, synthesize_dataset
from repro.nn.gnn import GNNKind, make_gnn

import numpy as np


def regenerate_partition_ablation():
    rows = []
    for name in ("cora", "citeseer", "pubmed"):
        stats = get_dataset_stats(name)
        graph = synthesize_dataset(stats, rng=np.random.default_rng(0))
        model = make_gnn(
            GNNKind.GCN,
            in_dim=stats.feature_dim,
            out_dim=stats.num_classes,
            hidden_dim=64,
        )
        blocked = GHOST(GHOSTConfig(use_partitioning=True)).run_gnn(
            model.config, graph
        )
        unblocked = GHOST(GHOSTConfig(use_partitioning=False)).run_gnn(
            model.config, graph
        )
        rows.append(
            {
                "dataset": name,
                "blocked_mem_uj": blocked.energy.memory_pj / 1e6,
                "unblocked_mem_uj": unblocked.energy.memory_pj / 1e6,
                "mem_saving_x": (
                    unblocked.energy.memory_pj / blocked.energy.memory_pj
                ),
                "latency_saving_x": unblocked.latency_ns / blocked.latency_ns,
            }
        )
    return rows


def test_ablation_partition(run_once):
    rows = run_once(regenerate_partition_ablation)
    print("\n=== Ablation A3: buffer-and-partition on/off (GCN) ===")
    print(
        f"{'dataset':>10s} {'blocked uJ':>11s} {'unblocked uJ':>13s} "
        f"{'mem win':>8s} {'lat win':>8s}"
    )
    for row in rows:
        print(
            f"{row['dataset']:>10s} {row['blocked_mem_uj']:>11.1f} "
            f"{row['unblocked_mem_uj']:>13.1f} "
            f"{row['mem_saving_x']:>7.1f}x {row['latency_saving_x']:>7.1f}x"
        )
    for row in rows:
        assert row["mem_saving_x"] > 1.0
        assert row["latency_saving_x"] >= 1.0
