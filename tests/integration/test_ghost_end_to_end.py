"""End-to-end GHOST integration: functional fidelity + cost consistency."""

import numpy as np
import pytest

from repro.core.ghost import GHOST, GHOSTConfig
from repro.graphs.datasets import get_dataset_stats, synthesize_dataset
from repro.graphs.generators import barabasi_albert
from repro.nn.gnn import GNNKind, Reduction, make_gnn
from repro.photonics.noise import AnalogNoiseModel


class TestFunctionalFidelity:
    def test_noisy_gcn_close_to_reference(self, small_graph, rng):
        noisy = GHOST(
            GHOSTConfig(
                lanes=4,
                edge_units=8,
                array_rows=16,
                array_cols=16,
                noise=AnalogNoiseModel(
                    relative_sigma=0.002, rng=np.random.default_rng(1)
                ),
            )
        )
        model = make_gnn(GNNKind.GCN, in_dim=8, out_dim=4, hidden_dim=8)
        feats = rng.normal(0, 1, (small_graph.num_nodes, 8))
        reference = model.forward(small_graph, feats)
        optical = noisy.forward(model, small_graph, feats)
        assert np.abs(optical - reference).mean() < 0.2

    def test_max_aggregation_model(self, small_ghost, small_graph, rng):
        """A max-reduction GNN exercises the optical comparator path."""
        feats = rng.normal(0, 1, (small_graph.num_nodes, 6))
        out = small_ghost.aggregate.forward(
            small_graph, feats, Reduction.MAX
        )
        for v in range(small_graph.num_nodes):
            nbrs = small_graph.neighbors(v)
            if nbrs.size:
                assert np.allclose(out[v], feats[nbrs].max(axis=0))

    def test_prediction_agreement_under_noise(self, small_graph, rng):
        """Argmax class predictions should mostly survive analog noise."""
        model = make_gnn(GNNKind.GCN, in_dim=16, out_dim=4, hidden_dim=16)
        feats = rng.normal(0, 1, (small_graph.num_nodes, 16))
        reference = model.forward(small_graph, feats)
        noisy = GHOST(
            GHOSTConfig(
                lanes=4,
                edge_units=8,
                array_rows=16,
                array_cols=16,
                noise=AnalogNoiseModel(
                    relative_sigma=0.005,
                    crosstalk_fraction_scale=0.05,
                    rng=np.random.default_rng(2),
                ),
            )
        )
        optical = noisy.forward(model, small_graph, feats)
        agreement = np.mean(reference.argmax(1) == optical.argmax(1))
        assert agreement > 0.9


class TestCostConsistency:
    @pytest.fixture(scope="class")
    def cora(self):
        graph = synthesize_dataset(
            get_dataset_stats("cora"), rng=np.random.default_rng(0)
        )
        return graph

    def test_all_paper_datasets_run(self):
        ghost = GHOST()
        for name in ("cora", "citeseer", "pubmed"):
            stats = get_dataset_stats(name)
            graph = synthesize_dataset(stats, rng=np.random.default_rng(0))
            model = make_gnn(
                GNNKind.GCN,
                in_dim=stats.feature_dim,
                out_dim=stats.num_classes,
                hidden_dim=64,
            )
            report = ghost.run_gnn(model.config, graph)
            assert report.latency_ns > 0.0
            assert report.gops > 0.0

    def test_power_in_plausible_range(self, cora):
        ghost = GHOST()
        model = make_gnn(GNNKind.GCN, in_dim=1433, out_dim=7, hidden_dim=64)
        report = ghost.run_gnn(model.config, cora)
        power_w = report.average_power_mw / 1e3
        assert 0.1 < power_w < 200.0

    def test_balancing_helps_on_power_law_graph(self):
        graph = barabasi_albert(2000, 4, rng=np.random.default_rng(3))
        model = make_gnn(GNNKind.GCN, in_dim=128, out_dim=8, hidden_dim=64)
        balanced = GHOST(GHOSTConfig(use_balancing=True)).run_gnn(
            model.config, graph
        )
        unbalanced = GHOST(GHOSTConfig(use_balancing=False)).run_gnn(
            model.config, graph
        )
        assert balanced.latency.compute_ns <= unbalanced.latency.compute_ns

    def test_partitioning_wins_on_every_paper_dataset(self):
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
            assert blocked.energy.memory_pj < unblocked.energy.memory_pj, name

    def test_energy_breakdown_covers_all_blocks(self, cora):
        ghost = GHOST()
        model = make_gnn(GNNKind.GCN, in_dim=1433, out_dim=7, hidden_dim=64)
        report = ghost.run_gnn(model.config, cora)
        energy = report.energy
        assert energy.laser_pj > 0.0  # reduce units
        assert energy.dac_pj > 0.0  # gather + transform converters
        assert energy.adc_pj > 0.0  # transform readout
        assert energy.memory_pj > 0.0  # feature traffic
        assert energy.activation_pj > 0.0  # SOA update units
        assert energy.digital_pj > 0.0  # final softmax
