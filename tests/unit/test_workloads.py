"""Tests for the workload abstraction and uniform Accelerator.run()."""

import numpy as np
import pytest

from repro.baselines.llm import llm_baseline_platforms
from repro.core.base import (
    WorkloadKind,
    get_workload,
    list_workloads,
    register_workload,
)
from repro.core.engine import memo
from repro.core.ghost import GHOST
from repro.core.tron import TRON
from repro.errors import ConfigurationError, MappingError
from repro.nn.gnn import GNNKind
from repro.workloads import (
    GRAPH_MEMO_ENTRIES,
    MLPWorkload,
    TransformerWorkload,
    WorkloadSuite,
    _GRAPH_MEMO,
    make_gnn_workload,
)


class TestRegistry:
    def test_default_names_registered(self):
        names = list_workloads()
        for expected in ("BERT-base", "GCN-cora", "MLP-mnist", "LLM-serving-mix"):
            assert expected in names

    def test_get_workload_caches_instances(self):
        assert get_workload("GCN-cora") is get_workload("GCN-cora")

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="BERT-base"):
            get_workload("no-such-workload")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_workload("BERT-base", lambda: None)


class TestMLPWorkload:
    def test_op_count_scales_with_batch(self):
        one = MLPWorkload(mlp_name="m", widths=(4, 8, 2), samples=1)
        ten = MLPWorkload(mlp_name="m", widths=(4, 8, 2), samples=10)
        assert ten.op_count().macs == 10 * one.op_count().macs
        # Weights are shared across the batch.
        assert ten.op_count().weight_bytes == one.op_count().weight_bytes

    def test_hidden_activations_only(self):
        wl = MLPWorkload(mlp_name="m", widths=(4, 8, 2), samples=1)
        assert wl.op_count().activations == 8  # output layer not activated

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ConfigurationError):
            MLPWorkload(mlp_name="m", widths=(4,), samples=1)
        with pytest.raises(ConfigurationError):
            MLPWorkload(mlp_name="m", widths=(4, 8), samples=0)


class TestSuite:
    def test_suite_ops_sum_members(self):
        a = MLPWorkload(mlp_name="a", widths=(4, 8, 2), samples=2)
        b = MLPWorkload(mlp_name="b", widths=(8, 4), samples=3)
        suite = WorkloadSuite(suite_name="s", members=(a, b))
        assert suite.op_count().macs == a.op_count().macs + b.op_count().macs

    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSuite(suite_name="s", members=())


class TestUniformRun:
    def test_tron_runs_transformer_workload(self, tron):
        report = tron.run(get_workload("ViT-base"))
        assert report.platform == "TRON"
        assert report.workload == "ViT-base"
        assert report.latency_ns > 0

    def test_tron_run_matches_run_transformer(self, tron):
        workload = get_workload("BERT-base")
        via_run = tron.run(workload)
        direct = tron.run_transformer(workload.model)
        assert via_run.latency_ns == pytest.approx(direct.latency_ns)
        assert via_run.energy_pj == pytest.approx(direct.energy_pj)

    def test_ghost_runs_gnn_workload(self, ghost):
        report = ghost.run(get_workload("GCN-cora"))
        assert report.platform == "GHOST"
        assert report.workload == "GCN-cora"

    def test_ghost_run_matches_run_gnn(self, ghost):
        workload = get_workload("GCN-citeseer")
        via_run = ghost.run(workload)
        direct = ghost.run_gnn(workload.model_config, workload.graph)
        assert via_run.latency_ns == pytest.approx(direct.latency_ns)
        assert via_run.energy_pj == pytest.approx(direct.energy_pj)

    def test_both_accelerators_run_mlp(self, tron, ghost):
        workload = get_workload("MLP-mnist")
        tron_report = tron.run(workload)
        ghost_report = ghost.run(workload)
        assert tron_report.latency_ns > 0
        assert ghost_report.latency_ns > 0
        assert tron_report.ops.macs == ghost_report.ops.macs

    def test_tron_rejects_gnn_workload(self, tron):
        with pytest.raises(MappingError):
            tron.run(get_workload("GCN-cora"))

    def test_ghost_rejects_transformer_workload(self, ghost):
        with pytest.raises(MappingError):
            ghost.run(get_workload("BERT-base"))

    def test_kind_contract_enforced_before_dispatch(self, ghost):
        from repro.core.base import Workload, WorkloadKind
        from repro.nn.counting import OpCount

        class BogusGNN(Workload):
            """Declares GNN but provides none of its attributes."""

            @property
            def name(self):
                return "bogus"

            @property
            def kind(self):
                return WorkloadKind.GNN

            def op_count(self, bytes_per_value=1):
                return OpCount(macs=1)

        with pytest.raises(MappingError, match="model_config"):
            ghost.run(BogusGNN())

    def test_suite_merges_member_reports(self, tron):
        suite = get_workload("LLM-serving-mix")
        report = tron.run(suite)
        member_latency = sum(
            tron.run(member).latency_ns for member in suite.parts()
        )
        assert report.workload == "LLM-serving-mix"
        assert report.latency_ns == pytest.approx(member_latency)

    def test_baselines_run_any_workload(self):
        platform = llm_baseline_platforms()[0]
        for name in ("BERT-base", "GCN-cora", "MLP-mnist"):
            report = platform.run(get_workload(name))
            assert report.workload == name
            assert report.latency_ns > 0

    def test_gnn_workload_graph_is_shared(self):
        workload = make_gnn_workload(
            get_workload("GCN-cora").model_config.kind, "cora"
        )
        assert workload.graph is workload.graph  # materialized once

    def test_describe_does_not_materialize_graph(self):
        workload = make_gnn_workload(
            get_workload("GCN-cora").model_config.kind, "pubmed"
        )
        workload.describe()
        assert workload._graph is None  # listing stays cheap

    def test_materialize_forces_graph(self):
        workload = make_gnn_workload(
            get_workload("GCN-cora").model_config.kind, "cora"
        )
        workload.materialize()
        assert workload._graph is not None


class TestGraphMemo:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        memo.clear("workloads.graph")
        yield
        memo.clear("workloads.graph")

    @staticmethod
    def graph(seed):
        return make_gnn_workload(GNNKind.GCN, "cora", rng_seed=seed).graph

    def test_bounded_under_distinct_seeds(self):
        for seed in range(GRAPH_MEMO_ENTRIES + 1):
            self.graph(seed)
        assert len(_GRAPH_MEMO) == GRAPH_MEMO_ENTRIES
        assert ("cora", 0) not in _GRAPH_MEMO
        assert ("cora", GRAPH_MEMO_ENTRIES) in _GRAPH_MEMO

    def test_evicted_key_resynthesizes_identically(self):
        first = self.graph(0)
        for seed in range(1, GRAPH_MEMO_ENTRIES + 1):
            self.graph(seed)
        assert ("cora", 0) not in _GRAPH_MEMO
        again = self.graph(0)
        assert again is not first
        np.testing.assert_array_equal(again.indptr, first.indptr)
        np.testing.assert_array_equal(again.indices, first.indices)

    def test_hits_share_one_graph(self):
        assert self.graph(3) is self.graph(3)

    def test_clear_empties(self):
        self.graph(0)
        self.graph(1)
        memo.clear("workloads.graph")
        assert len(_GRAPH_MEMO) == 0
