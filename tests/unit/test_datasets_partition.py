"""Tests for dataset replicas and buffer-and-partition blocking."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graphs.datasets import (
    DATASET_ZOO,
    DatasetStats,
    get_dataset_stats,
    synthesize_dataset,
    synthesize_features,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.partition import GraphPartitioner


class TestDatasetStats:
    def test_zoo_has_paper_datasets(self):
        for name in ("cora", "citeseer", "pubmed"):
            assert name in DATASET_ZOO

    def test_cora_statistics(self):
        cora = get_dataset_stats("cora")
        assert cora.num_nodes == 2708
        assert cora.feature_dim == 1433
        assert cora.num_classes == 7

    def test_average_degree(self):
        cora = get_dataset_stats("cora")
        assert cora.average_degree == pytest.approx(2 * 5278 / 2708)

    def test_unknown_dataset_lists_options(self):
        with pytest.raises(ConfigurationError) as exc:
            get_dataset_stats("ogbn-papers")
        assert "cora" in str(exc.value)

    def test_rejects_bad_stats(self):
        with pytest.raises(ConfigurationError):
            DatasetStats(
                name="bad", num_nodes=0, num_edges=1, feature_dim=4, num_classes=2
            )


class TestSynthesize:
    @pytest.fixture(scope="class")
    def cora_like(self):
        stats = get_dataset_stats("cora")
        rng = np.random.default_rng(3)
        return synthesize_dataset(stats, rng), synthesize_features(stats, rng)

    def test_node_count_exact(self, cora_like):
        graph, _ = cora_like
        assert graph.num_nodes == 2708

    def test_edge_count_close(self, cora_like):
        graph, _ = cora_like
        undirected = graph.num_edges / 2
        assert abs(undirected - 5278) < 0.05 * 5278

    def test_feature_shape(self, cora_like):
        graph, features = cora_like
        assert features.shape == (2708, 1433)

    def test_features_sparse_nonnegative(self, cora_like):
        _, features = cora_like
        assert np.all(features >= 0.0)
        density = np.count_nonzero(features) / features.size
        assert density < 0.1

    def test_power_law_dataset_has_hubs(self):
        graph = synthesize_dataset(
            get_dataset_stats("reddit-sample"), rng=np.random.default_rng(4)
        )
        degrees = graph.degrees()
        assert degrees.max() > 10 * degrees.mean()


def _sha256(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


#: sha256 of (indptr, indices) as little-endian int64, pinned from the
#: set-based builder before synthesis became array-native.
GRAPH_DIGESTS = {
    ("cora", 0): "c0cc45be31aba38df8bb4e9d8b56cea6a1cb6be4cc8eb82b0d97e708bea436ab",
    ("cora", 7): "095cc901e91cff3b9daa93c1d10bb3767130cae5612ea43bbad81bbd83bf22af",
    ("citeseer", 0): "9ce47d0cc9b48dec77bc2043c031e34b7b4235a6d587ceeab050b3cdd0835bca",
    ("citeseer", 7): "654ef1a403ed4c6ba04648dd9eb6ab1331a57fc6beaed52cd913dac4719a1a22",
    ("pubmed", 0): "3c1477e38dfe8ebbaa63d424af0189ab2eac3ee7401c3e3fe512106aede24989",
    ("pubmed", 7): "9da33df73de0c41f1793c68eec7cc7673e7ae4e7fa1e9c8f6e3bc4fd19966486",
    ("reddit-sample", 0): "d163f0a561c761fec69e47b8c9a10c1948b5cd3055dc9ce0094a64be16259991",
    ("reddit-sample", 7): "79f15f69c92b4842dff152cca8b389b720049d73fa5063ae9065a24048464c0c",
    ("amazon-sample", 0): "9834e8e4262bd8744e5f8fcf1363852440a159ef3bb96d131ff31ac0b436fe32",
    ("amazon-sample", 7): "712a2cb6df144d9e5f5b841831f39cdd63b0e1fd1b7cb9ef5eefa1d012497423",
}


class TestSynthesisPinned:
    def test_every_zoo_entry_pinned(self):
        assert {name for name, _ in GRAPH_DIGESTS} == set(DATASET_ZOO)

    @pytest.mark.parametrize("name,seed", sorted(GRAPH_DIGESTS))
    def test_graph_digest(self, name, seed):
        graph = synthesize_dataset(
            DATASET_ZOO[name], rng=np.random.default_rng(seed)
        )
        assert graph.indptr.dtype == graph.indices.dtype == np.int64
        digest = _sha256(graph.indptr.astype("<i8"), graph.indices.astype("<i8"))
        assert digest == GRAPH_DIGESTS[(name, seed)]

    def test_graph_then_features_reproduce_the_old_pair(self):
        stats = get_dataset_stats("cora")
        rng = np.random.default_rng(3)
        graph = synthesize_dataset(stats, rng)
        features = synthesize_features(stats, rng)
        assert _sha256(graph.indptr.astype("<i8"), graph.indices.astype("<i8")) == (
            "e408136a99cd1a556b0b4930832b6a37364a5937f82b6fda21d3052b370e4feb"
        )
        assert features.dtype == np.float64
        assert _sha256(features.astype("<f8")) == (
            "0c6e54a13f896ee8391fda89ec99f847e2d8eb14915afccbbb4e97435e5f0aa7"
        )


class TestPartitioner:
    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(120, 0.08, rng=np.random.default_rng(5))

    def test_schedule_covers_all_edges(self, graph):
        schedule = GraphPartitioner(lanes=8, input_block=16).schedule(graph)
        assert sum(b.num_edges for b in schedule.blocks) == graph.num_edges

    def test_block_grid_dimensions(self, graph):
        schedule = GraphPartitioner(lanes=8, input_block=16).schedule(graph)
        out_blocks = -(-graph.num_nodes // 8)
        in_blocks = -(-graph.num_nodes // 16)
        assert schedule.num_steps == out_blocks * in_blocks

    def test_fetch_savings_on_dense_graph(self):
        dense = erdos_renyi(64, 0.5, rng=np.random.default_rng(6))
        schedule = GraphPartitioner(lanes=16, input_block=16).schedule(dense)
        # With ~32 neighbours per 16-node block, block fetches beat
        # per-edge fetches.
        assert schedule.fetch_savings > 1.0

    def test_traffic_bytes_blocked_vs_not(self, graph):
        schedule = GraphPartitioner(lanes=8, input_block=16).schedule(graph)
        blocked = schedule.traffic_bytes(blocked=True)
        unblocked = schedule.traffic_bytes(blocked=False)
        assert blocked > 0 and unblocked > 0

    def test_sweep_produces_one_schedule_per_candidate(self, graph):
        partitioner = GraphPartitioner(lanes=8, input_block=16)
        schedules = partitioner.sweep_input_blocks(graph, [8, 16, 32])
        assert len(schedules) == 3
        assert [s.input_block for s in schedules] == [8, 16, 32]

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            GraphPartitioner(lanes=0, input_block=8)
