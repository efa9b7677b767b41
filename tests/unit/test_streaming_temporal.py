"""Temporal graph streams: determinism, delta semantics, stage reuse."""

import numpy as np
import pytest

from repro.api import Session
from repro.core.base import get_workload
from repro.core.ghost import GHOST
from repro.errors import ConfigurationError
from repro.streaming import (
    DeltaKind,
    GraphDelta,
    delta_stream,
    run_temporal,
    snapshots_from,
)
from repro.streaming.temporal import apply_delta


def edge_set(graph):
    pairs = set()
    for u in range(graph.num_nodes):
        for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]:
            if u < int(v):
                pairs.add((u, int(v)))
    return pairs


def test_delta_stream_is_deterministic():
    first = delta_stream(DeltaKind.BA_GROWTH, seed=11, num_deltas=3)
    second = delta_stream(DeltaKind.BA_GROWTH, seed=11, num_deltas=3)
    assert first[1] == second[1]
    assert edge_set(first[0]) == edge_set(second[0])
    different = delta_stream(DeltaKind.BA_GROWTH, seed=12, num_deltas=3)
    assert first[1] != different[1]


def test_delta_count_never_perturbs_base_or_prefix():
    short = delta_stream(DeltaKind.SBM_CHURN, seed=5, num_deltas=2)
    long = delta_stream(DeltaKind.SBM_CHURN, seed=5, num_deltas=5)
    assert edge_set(short[0]) == edge_set(long[0])
    assert short[1] == long[1][:2]


def test_ba_growth_adds_nodes_and_edges():
    base, deltas = delta_stream(
        DeltaKind.BA_GROWTH, seed=3, num_deltas=3,
        num_nodes=40, attachment=2, nodes_per_delta=4,
    )
    snaps = snapshots_from(base, deltas)
    assert [g.num_nodes for g in snaps] == [40, 44, 48, 52]
    edges = [g.num_edges for g in snaps]
    assert edges == sorted(edges)
    assert edges[-1] > edges[0]


def test_sbm_churn_preserves_node_count_and_rewires():
    base, deltas = delta_stream(
        DeltaKind.SBM_CHURN, seed=3, num_deltas=2, rewire_fraction=0.1
    )
    snaps = snapshots_from(base, deltas)
    assert all(g.num_nodes == base.num_nodes for g in snaps)
    before, after = edge_set(snaps[0]), edge_set(snaps[1])
    assert before != after
    assert deltas[0].removed_edges  # churn genuinely removes edges
    assert len(deltas[0].added_edges) <= len(deltas[0].removed_edges)


def test_rmat_growth_only_adds_fresh_edges():
    base, deltas = delta_stream(
        DeltaKind.RMAT_GROWTH, seed=9, num_deltas=2, edges_per_delta=32
    )
    existing = edge_set(base)
    for delta in deltas:
        assert delta.added_nodes == 0
        fresh = set(delta.added_edges)
        assert not fresh & existing
        existing |= fresh


def test_apply_delta_validates_edges():
    with pytest.raises(ConfigurationError):
        apply_delta(4, set(), GraphDelta(added_edges=((0, 9),)))
    with pytest.raises(ConfigurationError):
        apply_delta(4, set(), GraphDelta(added_edges=((2, 2),)))


def test_delta_stream_rejects_unknown_params():
    with pytest.raises(ConfigurationError):
        delta_stream(DeltaKind.BA_GROWTH, seed=1, bogus=3)


def test_stage_memo_reuse_is_bit_identical():
    workload = get_workload("GAT-sbm-temporal")
    memoized = GHOST()
    warm = run_temporal(memoized, workload.model_config, workload.snapshots)
    assert warm.reuse["hits"] > 0  # churn reuses node-keyed stages

    cold = GHOST()
    for report in warm.snapshots:
        cold.stage_memo.clear()
        cold.stage_memo.reset_stats()
        fresh = cold.run_gnn(
            workload.model_config,
            workload.snapshots[warm.snapshots.index(report)],
        )
        assert fresh.latency == report.latency
        assert fresh.energy == report.energy


def test_warm_replay_hits_every_stage():
    workload = get_workload("GCN-ba-temporal")
    ghost = GHOST()
    first = run_temporal(ghost, workload.model_config, workload.snapshots)
    replay = run_temporal(ghost, workload.model_config, workload.snapshots)
    assert replay.stage_hit_rate == 1.0
    assert replay.total == first.total
    assert "stage reuse" in replay.summary()


def test_temporal_workload_runs_through_uniform_dispatch():
    workload = get_workload("GCN-ba-temporal")
    report = GHOST().run(workload)
    assert report.workload == "GCN-ba-temporal"
    per_snapshot = run_temporal(
        GHOST(), workload.model_config, workload.snapshots
    )
    assert report.latency_ns == per_snapshot.total.latency_ns
    assert report.energy.total_pj == per_snapshot.total.energy.total_pj
    assert workload.op_count().macs == report.ops.macs


def test_temporal_workload_session_routing():
    result = Session().run("GAT-sbm-temporal")
    assert result.report.platform == "GHOST"
    assert result.report.workload == "GAT-sbm-temporal"
    # TRON cannot host graph workloads.
    from repro.errors import MappingError

    with pytest.raises(MappingError):
        Session().run("GCN-ba-temporal", platform="tron")


def test_snapshots_cache_on_workload():
    workload = get_workload("GIN-rmat-temporal")
    first = workload.snapshots
    assert workload.snapshots is first
    assert workload.describe().startswith("GIN-rmat-temporal")


def test_stage_memo_stats_surface():
    ghost = GHOST()
    workload = get_workload("GCN-ba-temporal")
    ghost.run(workload)
    stats = ghost.stage_memo.stats.to_dict()
    assert stats["insertions"] > 0
    ghost.stage_memo.clear()
    ghost.stage_memo.reset_stats()
    cleared = ghost.stage_memo.stats.to_dict()
    assert cleared["hits"] == cleared["misses"] == 0
