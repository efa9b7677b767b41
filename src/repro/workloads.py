"""Concrete workloads and the default registry.

Every scenario the library evaluates — the Fig. 8/9 transformer set, the
Fig. 10/11 GNN set, MLP serving batches, and mixed suites — is a
:class:`repro.core.base.Workload` registered by name here, so the CLI
(``python -m repro run <name>``), the sweep engine and the figure
generators all resolve the same objects.

Materialization is lazy and cached: a GNN workload synthesizes its graph
on first use and shares it afterwards — on the workload object *and* in
a bounded, process-level LRU memo keyed by ``(dataset, rng_seed)``
(synthesis is deterministic in those), which is what makes repeated
design-space sweeps and fresh workload instances over one dataset
cheap.  The memo registers as ``workloads.graph``; the naive
benchmarking baselines clear it per point
(``memo.clear("workloads.graph")``) to stay genuinely cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.base import Workload, WorkloadKind, register_workload
from repro.core.engine.memo import LRUMemo
from repro.errors import ConfigurationError
from repro.graphs.datasets import get_dataset_stats, synthesize_dataset
from repro.graphs.graph import CSRGraph
from repro.nn.counting import OpCount, gnn_op_count, transformer_op_count
from repro.nn.gnn import GNNConfig, GNNKind
from repro.nn.models import MODEL_ZOO
from repro.nn.transformer import TransformerConfig

#: Graphs the synthesis memo keeps: ``rng_seed`` is user input, so the
#: memo is bounded; the dataset zoo at a few seeds fits.
GRAPH_MEMO_ENTRIES = 16

#: Process-level graph-synthesis memo: (dataset, rng_seed) -> CSRGraph.
#: Synthesis is deterministic in the key, so sharing is bit-safe; the
#: graph is read-only to every evaluator.
_GRAPH_MEMO = LRUMemo("workloads.graph", GRAPH_MEMO_ENTRIES)


@dataclass(frozen=True)
class TransformerWorkload(Workload):
    """One full transformer inference at the model's sequence length.

    Example:
        >>> from repro.nn.models import MODEL_ZOO
        >>> workload = TransformerWorkload(model=MODEL_ZOO["BERT-base"])
        >>> workload.name, workload.kind.value
        ('BERT-base', 'transformer')
    """

    model: TransformerConfig

    @property
    def name(self) -> str:
        return self.model.name

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.TRANSFORMER

    def op_count(self, bytes_per_value: int = 1) -> OpCount:
        return transformer_op_count(self.model, bytes_per_value=bytes_per_value)

    def describe(self) -> str:
        m = self.model
        return (
            f"{m.name}: {m.num_layers} layers, d_model {m.d_model}, "
            f"{m.num_heads} heads, seq {m.seq_len}"
        )


@dataclass
class GNNWorkload(Workload):
    """One full-graph GNN inference over a synthesized dataset replica.

    The graph materializes lazily from the dataset statistics (graph
    synthesis is the expensive part of a GNN evaluation) and is cached on
    the workload, so every platform and every sweep point shares it.

    Example:
        >>> workload = make_gnn_workload(GNNKind.GCN, "cora")
        >>> workload.name, workload.kind.value    # no graph synthesis yet
        ('GCN-cora', 'gnn')
    """

    model_config: GNNConfig
    dataset: str
    rng_seed: int = 7
    # The cached graph is derived state: excluded from repr (so
    # config/spec fingerprints never see it) *and* from comparison (so
    # workload identity is stable before vs. after materialization).
    _graph: Optional[CSRGraph] = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.model_config.name

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.GNN

    @property
    def graph(self) -> CSRGraph:
        """The synthesized graph (materialized once, then shared)."""
        if self._graph is None:
            key = (self.dataset, self.rng_seed)
            cached = _GRAPH_MEMO.get(key)
            if cached is None:
                stats = get_dataset_stats(self.dataset)
                cached = synthesize_dataset(
                    stats, rng=np.random.default_rng(self.rng_seed)
                )
                _GRAPH_MEMO.put(key, cached)
            self._graph = cached
        return self._graph

    def materialize(self) -> None:
        self.graph

    def op_count(self, bytes_per_value: int = 1) -> OpCount:
        return gnn_op_count(
            self.model_config, self.graph, bytes_per_value=bytes_per_value
        )

    def describe(self) -> str:
        # Describe from the published stats, not the graph — listing
        # workloads must not trigger graph synthesis.
        cfg = self.model_config
        stats = get_dataset_stats(self.dataset)
        return (
            f"{cfg.name}: {cfg.kind.value} x {cfg.num_layers} layers on "
            f"{self.dataset} ({stats.num_nodes} nodes, "
            f"{2 * stats.num_edges} arcs)"
        )


@dataclass(frozen=True)
class MLPWorkload(Workload):
    """A batched dense MLP inference (the serving-style scenario).

    Attributes:
        mlp_name: workload name.
        widths: layer widths input -> hidden... -> output.
        samples: batch of inputs costed per inference.

    Example:
        >>> workload = MLPWorkload(mlp_name="tiny", widths=(4, 3, 2),
        ...                        samples=2)
        >>> workload.layer_dims
        ((4, 3), (3, 2))
        >>> workload.op_count().macs     # 2 x (4*3 + 3*2)
        36
    """

    mlp_name: str
    widths: Tuple[int, ...]
    samples: int = 1

    def __post_init__(self) -> None:
        if len(self.widths) < 2:
            raise ConfigurationError(
                f"an MLP needs >= 2 widths, got {self.widths}"
            )
        if any(w < 1 for w in self.widths):
            raise ConfigurationError(f"widths must be >= 1, got {self.widths}")
        if self.samples < 1:
            raise ConfigurationError(f"samples must be >= 1, got {self.samples}")

    @property
    def name(self) -> str:
        return self.mlp_name

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.MLP

    @property
    def layer_dims(self) -> Tuple[Tuple[int, int], ...]:
        """(in, out) dims per dense layer."""
        return tuple(zip(self.widths[:-1], self.widths[1:]))

    def op_count(self, bytes_per_value: int = 1) -> OpCount:
        macs = sum(d_in * d_out for d_in, d_out in self.layer_dims)
        hidden = sum(d_out for _, d_out in self.layer_dims[:-1])
        weight_values = macs + sum(d_out for _, d_out in self.layer_dims)
        activation_values = sum(self.widths)
        return OpCount(
            macs=self.samples * macs,
            activations=self.samples * hidden,
            weight_bytes=weight_values * bytes_per_value,
            activation_bytes=self.samples * activation_values * bytes_per_value,
        )

    def describe(self) -> str:
        arch = "-".join(str(w) for w in self.widths)
        return f"{self.mlp_name}: MLP {arch}, batch {self.samples}"


@dataclass(frozen=True)
class WorkloadSuite(Workload):
    """A mixed batch of workloads executed back to back (serving mix).

    Example:
        >>> suite = WorkloadSuite(suite_name="pair", members=(
        ...     MLPWorkload(mlp_name="a", widths=(4, 2)),
        ...     MLPWorkload(mlp_name="b", widths=(4, 2))))
        >>> len(suite.parts()), suite.op_count().macs   # 2 x 4*2
        (2, 16)
    """

    suite_name: str
    members: Tuple[Workload, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigurationError("a suite needs at least one member")

    @property
    def name(self) -> str:
        return self.suite_name

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.SUITE

    def parts(self) -> Sequence[Workload]:
        return self.members

    def op_count(self, bytes_per_value: int = 1) -> OpCount:
        total = OpCount()
        for member in self.members:
            total = total + member.op_count(bytes_per_value=bytes_per_value)
        return total

    def describe(self) -> str:
        names = ", ".join(member.name for member in self.members)
        return f"{self.suite_name}: suite of [{names}]"


# ----------------------------------------------------------------------
# Default registrations
# ----------------------------------------------------------------------

#: The (model kind, hidden width, dataset) GNN workloads of Figs. 10/11.
GNN_WORKLOAD_SPECS: Tuple[Tuple[GNNKind, int, str], ...] = (
    (GNNKind.GCN, 64, "cora"),
    (GNNKind.GCN, 64, "citeseer"),
    (GNNKind.GCN, 64, "pubmed"),
    (GNNKind.SAGE, 64, "cora"),
    (GNNKind.GIN, 64, "citeseer"),
    (GNNKind.GAT, 64, "pubmed"),
)


def make_gnn_workload(
    kind: GNNKind,
    dataset: str,
    hidden_dim: int = 64,
    num_layers: int = 2,
    rng_seed: int = 7,
    name: Optional[str] = None,
) -> GNNWorkload:
    """A GNN workload over a dataset replica (figure naming convention).

    Example:
        >>> make_gnn_workload(GNNKind.GAT, "pubmed").model_config.heads
        2
    """
    stats = get_dataset_stats(dataset)
    config = GNNConfig(
        name=name or f"{kind.value.upper()}-{dataset}",
        kind=kind,
        num_layers=num_layers,
        hidden_dim=hidden_dim,
        in_dim=stats.feature_dim,
        out_dim=stats.num_classes,
        heads=2 if kind is GNNKind.GAT else 1,
    )
    return GNNWorkload(model_config=config, dataset=dataset, rng_seed=rng_seed)


def make_decode_workload(
    model_name: str = "GPT-2",
    prompt_tokens: int = 128,
    generated_tokens: int = 64,
    label: Optional[str] = None,
):
    """An autoregressive prompt + generate episode over a zoo decoder.

    Example:
        >>> make_decode_workload(label="decode-gpt2-small").name
        'decode-gpt2-small'
    """
    # Local import: the streaming package layers on top of the registry.
    from repro.streaming.decode import DecodeWorkload

    return DecodeWorkload(
        model=MODEL_ZOO[model_name],
        prompt_tokens=prompt_tokens,
        generated_tokens=generated_tokens,
        label=label,
    )


#: The evolving-graph scenarios: (name, model kind, delta stream kind,
#: stream parameters).  One per evolution regime the delta generator
#: supports — growth by preferential attachment, R-MAT densification,
#: and community churn.
TEMPORAL_WORKLOAD_SPECS: Tuple[Tuple[str, GNNKind, str, Tuple], ...] = (
    (
        "GCN-ba-temporal",
        GNNKind.GCN,
        "ba-growth",
        (("num_nodes", 64), ("attachment", 2), ("nodes_per_delta", 8)),
    ),
    (
        "GIN-rmat-temporal",
        GNNKind.GIN,
        "rmat-growth",
        (("scale", 7), ("edge_factor", 4), ("edges_per_delta", 64)),
    ),
    (
        "GAT-sbm-temporal",
        GNNKind.GAT,
        "sbm-churn",
        (("block_sizes", (32, 32, 32)), ("rewire_fraction", 0.05)),
    ),
)


def make_temporal_workload(
    name: str,
    kind: GNNKind,
    delta_kind: str,
    params: Tuple = (),
    hidden_dim: int = 64,
    in_dim: int = 32,
    out_dim: int = 8,
    num_layers: int = 2,
    seed: int = 7,
    num_deltas: int = 4,
):
    """An evolving-graph GNN workload over a deterministic delta stream.

    Example:
        >>> make_temporal_workload(
        ...     "GCN-ba-temporal", GNNKind.GCN, "ba-growth").name
        'GCN-ba-temporal'
    """
    from repro.streaming.temporal import DeltaKind, TemporalGraphWorkload

    config = GNNConfig(
        name=name,
        kind=kind,
        num_layers=num_layers,
        hidden_dim=hidden_dim,
        in_dim=in_dim,
        out_dim=out_dim,
        heads=2 if kind is GNNKind.GAT else 1,
    )
    return TemporalGraphWorkload(
        model_config=config,
        delta_kind=DeltaKind(delta_kind),
        label=name,
        seed=seed,
        num_deltas=num_deltas,
        params=tuple(params),
    )


def _register_defaults() -> None:
    for model_name, model in MODEL_ZOO.items():
        register_workload(
            model_name,
            lambda model=model: TransformerWorkload(model=model),
        )
    for kind, hidden, dataset in GNN_WORKLOAD_SPECS:
        wl_name = f"{kind.value.upper()}-{dataset}"
        register_workload(
            wl_name,
            lambda kind=kind, dataset=dataset, hidden=hidden: make_gnn_workload(
                kind, dataset, hidden_dim=hidden
            ),
        )
    # The new scenarios: batched MLP serving and a mixed LLM suite.
    register_workload(
        "MLP-mnist",
        lambda: MLPWorkload(
            mlp_name="MLP-mnist", widths=(784, 512, 256, 10), samples=64
        ),
    )
    register_workload(
        "MLP-recsys",
        lambda: MLPWorkload(
            mlp_name="MLP-recsys",
            widths=(1024, 2048, 1024, 512, 1),
            samples=256,
        ),
    )
    # Streaming scenarios: autoregressive decode episodes (TRON) and
    # evolving-graph delta streams (GHOST).
    register_workload(
        "decode-gpt2-small",
        lambda: make_decode_workload(label="decode-gpt2-small"),
    )
    register_workload(
        "decode-gpt2-small-long",
        lambda: make_decode_workload(
            prompt_tokens=512,
            generated_tokens=256,
            label="decode-gpt2-small-long",
        ),
    )
    for wl_name, kind, delta_kind, params in TEMPORAL_WORKLOAD_SPECS:
        register_workload(
            wl_name,
            lambda wl_name=wl_name, kind=kind, delta_kind=delta_kind, params=params: (
                make_temporal_workload(wl_name, kind, delta_kind, params)
            ),
        )
    register_workload(
        "LLM-serving-mix",
        lambda: WorkloadSuite(
            suite_name="LLM-serving-mix",
            members=(
                TransformerWorkload(model=MODEL_ZOO["BERT-base"]),
                TransformerWorkload(model=MODEL_ZOO["DistilBERT"]),
                TransformerWorkload(model=MODEL_ZOO["ViT-base"]),
                MLPWorkload(
                    mlp_name="MLP-rerank", widths=(768, 512, 1), samples=128
                ),
            ),
        ),
    )


_register_defaults()
