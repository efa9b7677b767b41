"""Differential tests: the array-native ``CSRGraph.from_edges`` against
the set-based builder it replaced, kept here as the reference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graphs.graph import CSRGraph


def reference_from_edges(num_nodes, edges, undirected=True, num_node_features=0):
    """The original pure-Python builder: a set of pairs, then ``sorted``."""
    if num_nodes < 1:
        raise ConfigurationError(f"need >= 1 node, got {num_nodes}")
    pairs = set()
    for u, v in edges:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ConfigurationError(
                f"edge ({u}, {v}) out of range for {num_nodes} nodes"
            )
        if u == v:
            continue
        pairs.add((u, v))
        if undirected:
            pairs.add((v, u))
    if pairs:
        arr = np.array(sorted(pairs), dtype=np.int64)
        sources, targets = arr[:, 0], arr[:, 1]
    else:
        sources = np.empty(0, dtype=np.int64)
        targets = np.empty(0, dtype=np.int64)
    counts = np.bincount(sources, minlength=num_nodes)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSRGraph(
        indptr=indptr, indices=targets, num_node_features=num_node_features
    )


def reference_subgraph(graph, nodes):
    """The original dict-remapping induced subgraph."""
    remap = {int(old): new for new, old in enumerate(nodes)}
    edges = []
    for old in nodes:
        for nb in graph.neighbors(int(old)):
            if int(nb) in remap:
                edges.append((remap[int(old)], remap[int(nb)]))
    return reference_from_edges(
        len(nodes), edges, undirected=False,
        num_node_features=graph.num_node_features,
    )


def reference_is_symmetric(graph):
    """The original set-of-arcs symmetry check."""
    forward = {
        (u, int(v)) for u in range(graph.num_nodes) for v in graph.neighbors(u)
    }
    return all((v, u) in forward for (u, v) in forward)


@st.composite
def edge_inputs(draw):
    """(num_nodes, edges): duplicates, self-loops and both orientations
    arise from the small id range; some lists carry out-of-range edges."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=60))
    if draw(st.integers(0, 3)) == 0:
        bad = st.one_of(st.integers(-4, -1), st.integers(max(n, 1), n + 4))
        for _ in range(draw(st.integers(1, 3))):
            pair = [draw(node), draw(bad)]
            if draw(st.booleans()):
                pair.reverse()
            edges.insert(draw(st.integers(0, len(edges))), tuple(pair))
    return n, edges


def build(builder, *args, **kwargs):
    """The graph a builder returns, or the message of the error it raises."""
    try:
        return builder(*args, **kwargs)
    except ConfigurationError as error:
        return str(error)


class TestMatchesReference:
    @given(data=edge_inputs(), undirected=st.booleans(), as_array=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_identical_to_set_based_builder(self, data, undirected, as_array):
        n, edges = data
        expected = build(reference_from_edges, n, edges, undirected, 5)
        given_edges = np.array(edges, dtype=np.int64) if as_array else edges
        actual = build(CSRGraph.from_edges, n, given_edges, undirected, 5)
        if isinstance(expected, str):
            assert actual == expected
            return
        assert not isinstance(actual, str), actual
        assert actual.indptr.dtype == np.int64
        assert actual.indices.dtype == np.int64
        np.testing.assert_array_equal(actual.indptr, expected.indptr)
        np.testing.assert_array_equal(actual.indices, expected.indices)
        assert actual.num_node_features == 5

    def test_accepts_generators_and_narrow_dtypes(self):
        pairs = [(0, 3), (3, 0), (2, 2), (1, 2), (0, 3)]
        expected = reference_from_edges(4, pairs)
        for edges in (
            iter(pairs),
            (pair for pair in pairs),
            np.array(pairs, dtype=np.int32),
            np.array(pairs, dtype=np.uint16),
        ):
            graph = CSRGraph.from_edges(4, edges)
            np.testing.assert_array_equal(graph.indptr, expected.indptr)
            np.testing.assert_array_equal(graph.indices, expected.indices)
            assert graph.indices.dtype == np.int64

    def test_empty_array_input(self):
        graph = CSRGraph.from_edges(3, np.empty((0, 2), dtype=np.int64))
        assert graph.num_edges == 0
        np.testing.assert_array_equal(graph.indptr, [0, 0, 0, 0])

    def test_first_bad_edge_named(self):
        edges = np.array([[0, 1], [4, 9], [7, 0]])
        with pytest.raises(ConfigurationError, match=r"edge \(4, 9\) out of range"):
            CSRGraph.from_edges(5, edges)

    def test_rejects_non_pairs(self):
        with pytest.raises(ConfigurationError, match="pairs"):
            CSRGraph.from_edges(5, np.zeros((4, 3), dtype=np.int64))


class TestVectorizedQueries:
    @given(
        n=st.integers(1, 12),
        edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11))),
        undirected=st.booleans(),
        picks=st.lists(st.integers(0, 11), min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_match_loop_versions(self, n, edges, undirected, picks):
        edges = [(u % n, v % n) for u, v in edges]
        graph = CSRGraph.from_edges(n, edges, undirected, num_node_features=3)
        assert graph.is_symmetric() == reference_is_symmetric(graph)
        dense = np.zeros((n, n))
        for v in range(n):
            dense[v, graph.neighbors(v)] = 1.0
        np.testing.assert_array_equal(graph.to_dense_adjacency(), dense)
        nodes = np.array([p % n for p in picks])
        sub, expected = graph.subgraph(nodes), reference_subgraph(graph, nodes)
        np.testing.assert_array_equal(sub.indptr, expected.indptr)
        np.testing.assert_array_equal(sub.indices, expected.indices)
        assert sub.num_node_features == 3
