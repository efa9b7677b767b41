"""Tests for the CSR graph container."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graphs.graph import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self, path_graph):
        assert path_graph.num_nodes == 5
        assert path_graph.num_edges == 8  # 4 undirected edges -> 8 arcs

    def test_neighbors(self, path_graph):
        assert set(path_graph.neighbors(1)) == {0, 2}
        assert set(path_graph.neighbors(0)) == {1}

    def test_degrees(self, path_graph):
        assert list(path_graph.degrees()) == [1, 2, 2, 2, 1]

    def test_self_loops_dropped(self):
        graph = CSRGraph.from_edges(3, [(0, 0), (0, 1)])
        assert graph.num_edges == 2

    def test_duplicate_edges_deduplicated(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (0, 1), (1, 0)])
        assert graph.num_edges == 2

    def test_directed_storage(self):
        graph = CSRGraph.from_edges(3, [(0, 1)], undirected=False)
        assert graph.degree(0) == 1
        assert graph.degree(1) == 0

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ConfigurationError):
            CSRGraph.from_edges(2, [(0, 5)])

    def test_validates_indptr(self):
        with pytest.raises(ConfigurationError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))
        with pytest.raises(ConfigurationError):
            CSRGraph(indptr=np.array([0, 2]), indices=np.array([0]))

    def test_validates_indices_range(self):
        with pytest.raises(ConfigurationError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5]))


class TestQueries:
    def test_average_degree(self, path_graph):
        assert path_graph.average_degree == pytest.approx(8 / 5)

    def test_max_degree(self, path_graph):
        assert path_graph.max_degree == 2

    def test_degree_percentile(self, path_graph):
        assert path_graph.degree_percentile(100.0) == 2.0
        assert path_graph.degree_percentile(0.0) == 1.0

    def test_percentile_rejects_out_of_range(self, path_graph):
        with pytest.raises(ConfigurationError):
            path_graph.degree_percentile(150.0)

    def test_neighbor_bounds_checked(self, path_graph):
        with pytest.raises(ConfigurationError):
            path_graph.neighbors(10)

    def test_is_symmetric_for_undirected(self, path_graph):
        assert path_graph.is_symmetric()

    def test_not_symmetric_for_directed(self):
        graph = CSRGraph.from_edges(3, [(0, 1)], undirected=False)
        assert not graph.is_symmetric()

    def test_dense_adjacency_matches(self, path_graph):
        adj = path_graph.to_dense_adjacency()
        assert adj[0, 1] == 1.0 and adj[1, 0] == 1.0
        assert adj[0, 2] == 0.0
        assert adj.sum() == path_graph.num_edges


class TestSubgraph:
    def test_induced_subgraph(self, path_graph):
        sub = path_graph.subgraph(np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        assert set(sub.neighbors(1)) == {0, 2}

    def test_subgraph_drops_external_edges(self, path_graph):
        sub = path_graph.subgraph(np.array([0, 1]))
        assert sub.num_edges == 2  # only the 0-1 edge survives

    def test_rejects_empty(self, path_graph):
        with pytest.raises(ConfigurationError):
            path_graph.subgraph(np.array([], dtype=int))

    def test_rejects_out_of_range(self, path_graph):
        with pytest.raises(ConfigurationError):
            path_graph.subgraph(np.array([99]))


class TestDegreeDigest:
    def test_cached_per_graph(self, path_graph):
        digest = path_graph.degree_digest
        assert isinstance(digest, bytes) and len(digest) == 16
        assert path_graph.degree_digest is digest

    def test_distinguishes_degree_arrays(self):
        path = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        star = CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert path.degree_digest != star.degree_digest
        # Only degrees count: a hexagon and two triangles are 2-regular.
        hexagon = CSRGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        triangles = CSRGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert hexagon.degree_digest == triangles.degree_digest
