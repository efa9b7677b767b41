"""Tests for GHOST's blocks and top-level accelerator model."""

import numpy as np
import pytest

from repro.core.ghost import GHOST, GHOSTConfig
from repro.core.ghost.aggregate import AggregateBlock
from repro.core.ghost.combine import CombineBlock
from repro.core.ghost.update import UpdateBlock
from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.nn.gnn import GNNConfig, GNNKind, Reduction, make_gnn


class TestAggregateBlock:
    @pytest.fixture
    def block(self):
        return AggregateBlock(GHOSTConfig(lanes=4, edge_units=8))

    def test_sum_matches_reference(self, block, small_graph, rng):
        feats = rng.normal(0, 1, (small_graph.num_nodes, 6))
        out = block.forward(small_graph, feats, Reduction.SUM)
        for v in range(small_graph.num_nodes):
            nbrs = small_graph.neighbors(v)
            expected = feats[nbrs].sum(axis=0) if nbrs.size else np.zeros(6)
            assert np.allclose(out[v], expected)

    def test_mean_matches_reference(self, block, small_graph, rng):
        feats = rng.normal(0, 1, (small_graph.num_nodes, 6))
        out = block.forward(small_graph, feats, Reduction.MEAN)
        for v in range(small_graph.num_nodes):
            nbrs = small_graph.neighbors(v)
            if nbrs.size:
                assert np.allclose(out[v], feats[nbrs].mean(axis=0))

    def test_max_matches_reference(self, block, small_graph, rng):
        feats = rng.normal(0, 1, (small_graph.num_nodes, 6))
        out = block.forward(small_graph, feats, Reduction.MAX)
        for v in range(small_graph.num_nodes):
            nbrs = small_graph.neighbors(v)
            if nbrs.size:
                assert np.allclose(out[v], feats[nbrs].max(axis=0))

    def test_include_self(self, block, small_graph, rng):
        feats = rng.normal(0, 1, (small_graph.num_nodes, 4))
        out = block.forward(
            small_graph, feats, Reduction.SUM, include_self=True
        )
        v = 0
        nbrs = np.concatenate([small_graph.neighbors(v), [v]])
        assert np.allclose(out[v], feats[nbrs].sum(axis=0))

    def test_node_cycles_formula(self, block):
        # degree 20 over fan-in 8 -> 3 passes; 100 features over 64 lanes
        # -> 2 passes; 6 cycles total.
        assert block.node_cycles(20, 100) == 6

    def test_zero_degree_zero_cycles(self, block):
        assert block.node_cycles(0, 100) == 0

    def test_layer_cost_positive(self, block, small_graph):
        cost = block.layer_cost(small_graph, 16)
        assert cost.latency.total_ns > 0.0
        assert cost.energy.total_pj > 0.0

    def test_balancing_helps_on_skewed_graph(self):
        skewed = barabasi_albert(300, 2, rng=np.random.default_rng(0))
        balanced = AggregateBlock(
            GHOSTConfig(lanes=8, edge_units=8, use_balancing=True)
        ).layer_cost(skewed, 64)
        unbalanced = AggregateBlock(
            GHOSTConfig(lanes=8, edge_units=8, use_balancing=False)
        ).layer_cost(skewed, 64)
        assert balanced.latency.total_ns <= unbalanced.latency.total_ns


class TestCombineBlock:
    def test_forward_matches_matmul(self, rng):
        block = CombineBlock(GHOSTConfig(lanes=2, array_rows=8, array_cols=8))
        weights = rng.normal(0, 0.3, (12, 6))
        feats = rng.normal(0, 1, (10, 12))
        assert np.allclose(block.forward(weights, feats), feats @ weights)

    def test_layer_cost_scales_with_nodes(self):
        block = CombineBlock(GHOSTConfig())
        small = block.layer_cost(100, 64, 32)
        large = block.layer_cost(1000, 64, 32)
        assert large.latency.total_ns > small.latency.total_ns

    def test_extra_macs_add_cycles(self):
        block = CombineBlock(GHOSTConfig())
        plain = block.layer_cost(100, 64, 32)
        extra = block.layer_cost(100, 64, 32, extra_macs=10_000_000)
        assert extra.array_cycles > plain.array_cycles

    def test_rejects_bad_dims(self, rng):
        block = CombineBlock(GHOSTConfig())
        with pytest.raises(ConfigurationError):
            block.layer_cost(10, 0, 4)
        with pytest.raises(ConfigurationError):
            block.forward(rng.normal(0, 1, (4, 4)), rng.normal(0, 1, (3, 5)))


class TestUpdateBlock:
    def test_relu_applied(self, rng):
        block = UpdateBlock(GHOSTConfig())
        x = rng.normal(0, 1, (5, 8))
        assert np.allclose(block.forward(x), np.maximum(x, 0.0))

    def test_final_softmax(self, rng):
        block = UpdateBlock(GHOSTConfig())
        out = block.forward(rng.normal(0, 1, (5, 8)), final_softmax=True)
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_softmax_costs_digital_energy(self):
        block = UpdateBlock(GHOSTConfig())
        plain = block.layer_cost(100, 8)
        softmaxed = block.layer_cost(100, 8, final_softmax=True)
        assert softmaxed.energy.digital_pj > plain.energy.digital_pj


class TestGHOSTAccelerator:
    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(200, 0.05, rng=np.random.default_rng(1))

    @pytest.fixture(scope="class")
    def ghost(self):
        return GHOST()

    def test_run_gnn_all_kinds(self, ghost, graph):
        for kind in GNNKind:
            model = make_gnn(kind, in_dim=32, out_dim=4, hidden_dim=16, heads=2)
            report = ghost.run_gnn(model.config, graph)
            assert report.latency_ns > 0.0
            assert report.energy_pj > 0.0
            assert report.platform == "GHOST"

    def test_partitioning_reduces_memory_energy(self, graph):
        model = make_gnn(GNNKind.GCN, in_dim=256, out_dim=8, hidden_dim=32)
        with_part = GHOST(GHOSTConfig(use_partitioning=True)).run_gnn(
            model.config, graph
        )
        without = GHOST(GHOSTConfig(use_partitioning=False)).run_gnn(
            model.config, graph
        )
        assert with_part.energy.memory_pj < without.energy.memory_pj

    def test_more_lanes_reduce_latency(self, graph):
        model = make_gnn(GNNKind.GCN, in_dim=128, out_dim=8, hidden_dim=64)
        few = GHOST(GHOSTConfig(lanes=4)).run_gnn(model.config, graph)
        many = GHOST(GHOSTConfig(lanes=32)).run_gnn(model.config, graph)
        assert many.latency.compute_ns < few.latency.compute_ns

    def test_functional_forward_matches_reference(self, small_ghost, small_graph, rng):
        for kind in (GNNKind.GCN, GNNKind.SAGE, GNNKind.GIN, GNNKind.GAT):
            model = make_gnn(kind, in_dim=8, out_dim=4, hidden_dim=8, heads=2)
            feats = rng.normal(0, 1, (small_graph.num_nodes, 8))
            reference = model.forward(small_graph, feats)
            optical = small_ghost.forward(model, small_graph, feats)
            assert np.allclose(optical, reference, atol=1e-9), kind

    def test_rejects_empty_graph(self, ghost):
        from repro.graphs.graph import CSRGraph

        model = make_gnn(GNNKind.GCN, in_dim=4, out_dim=2)
        empty = CSRGraph(indptr=np.array([0]), indices=np.array([]))
        with pytest.raises(ConfigurationError):
            ghost.run_gnn(model.config, empty)

    def test_describe_mentions_lanes(self, ghost):
        assert "lanes" in ghost.describe()


def test_degrees_hashed_once_per_graph(monkeypatch):
    """Repeated and context-bound runs on one graph hash its degree
    array once; the digest lives on the graph."""
    import dataclasses
    import hashlib

    from repro.core import ExecutionContext
    from repro.photonics.variation import ProcessVariationModel

    calls = []
    blake2b = hashlib.blake2b

    def counting(*args, **kwargs):
        calls.append(args)
        return blake2b(*args, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counting)
    graph = erdos_renyi(120, 0.05, rng=np.random.default_rng(7))
    model = make_gnn(GNNKind.GCN, in_dim=16, out_dim=4, hidden_dim=8)
    ghost = GHOST()
    ctx = ExecutionContext(variation=ProcessVariationModel(), seed=1)
    reports = [ghost.run_gnn(model.config, graph) for _ in range(2)]
    for seed in (1, 2):
        ghost.bind(dataclasses.replace(ctx, seed=seed)).run_gnn(
            model.config, graph
        )
    assert len(calls) == 1
    assert reports[0] == reports[1]


def test_transformer_run_never_loads_hashlib():
    """Only a graph's degree digest needs hashlib, so a nominal
    transformer run leaves it unloaded (one less cold-start import)."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = pathlib.Path(repro.__file__).resolve().parents[1]
    script = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['run', 'BERT-base', '--json'])\n"
        "print('hashlib' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
