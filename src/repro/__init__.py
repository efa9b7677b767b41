"""repro: silicon-photonic accelerators for LLM transformers and GNNs.

A reproduction of Afifi, Sunny, Nikdast & Pasricha, "Accelerating Neural
Networks for Large Language Models and Graph Processing with Silicon
Photonics" (DATE 2024): Python simulators for the TRON transformer
accelerator and the GHOST GNN accelerator, the full analog-photonic and
electronic substrate they rest on, the workloads, and the baseline
platform models needed to regenerate the paper's evaluation figures.

Quickstart — the declarative experiment API::

    from repro.api import Session

    session = Session()
    print(session.run("BERT-base").report.summary())

See README.md for the quickstart and the ``docs/`` suite (api,
architecture, serving, CLI, variation-aware evaluation) for the full
documentation.
"""

from repro._version import __version__
from repro.core import (
    GHOST,
    GHOSTConfig,
    RunReport,
    TRON,
    TRONConfig,
)
from repro.nn.models import (
    MODEL_ZOO,
    bert_base,
    bert_large,
    gpt2_small,
    vit_base,
    get_model_config,
)
from repro.nn.gnn import GNNConfig, GNNKind, make_gnn
from repro.graphs.datasets import (
    DATASET_ZOO,
    get_dataset_stats,
    synthesize_dataset,
    synthesize_features,
)
from repro.analysis import (
    check_headline_claims,
    fig8_llm_epb,
    fig9_llm_gops,
    fig10_gnn_epb,
    fig11_gnn_gops,
)
from repro.api import (
    AnalysisSpec,
    ContextSpec,
    ExperimentSpec,
    PlatformSpec,
    Session,
    load_spec,
)

__all__ = [
    "TRON",
    "TRONConfig",
    "GHOST",
    "GHOSTConfig",
    "RunReport",
    "MODEL_ZOO",
    "bert_base",
    "bert_large",
    "gpt2_small",
    "vit_base",
    "get_model_config",
    "GNNConfig",
    "GNNKind",
    "make_gnn",
    "DATASET_ZOO",
    "get_dataset_stats",
    "synthesize_dataset",
    "synthesize_features",
    "check_headline_claims",
    "fig8_llm_epb",
    "fig9_llm_gops",
    "fig10_gnn_epb",
    "fig11_gnn_gops",
    "Session",
    "ExperimentSpec",
    "PlatformSpec",
    "ContextSpec",
    "AnalysisSpec",
    "load_spec",
    "__version__",
]
