"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core.ghost import GHOST, GHOSTConfig
from repro.core.tron import TRON, TRONConfig
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import CSRGraph
from repro.nn.transformer import (
    TransformerConfig,
    TransformerKind,
    TransformerModel,
)


@pytest.fixture
def rng():
    """Deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_transformer():
    """A 2-layer, 32-wide transformer small enough for functional sim."""
    config = TransformerConfig(
        name="tiny",
        kind=TransformerKind.ENCODER_ONLY,
        num_layers=2,
        d_model=32,
        num_heads=2,
        d_ff=64,
        seq_len=8,
    )
    return TransformerModel(config, rng_seed=7)


@pytest.fixture
def small_graph():
    """A 40-node ER graph for functional GNN tests."""
    return erdos_renyi(40, 0.12, rng=np.random.default_rng(5))


@pytest.fixture
def path_graph():
    """A 5-node path graph with known structure: 0-1-2-3-4."""
    return CSRGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def tron():
    """Default TRON instance."""
    return TRON()


@pytest.fixture
def ghost():
    """Default GHOST instance."""
    return GHOST()


@pytest.fixture
def small_tron():
    """A small TRON config for fast functional tests."""
    return TRON(
        TRONConfig(
            num_head_units=2,
            array_rows=16,
            array_cols=16,
            num_linear_arrays=1,
            num_ff_arrays=2,
        )
    )


@pytest.fixture
def small_ghost():
    """A small GHOST config for fast functional tests."""
    return GHOST(
        GHOSTConfig(lanes=4, edge_units=8, array_rows=16, array_cols=16)
    )
