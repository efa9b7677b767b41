"""Operation and byte counting for transformers and GNNs.

Every performance number in the library — TRON's and GHOST's latency and
energy, the baselines' roofline estimates, the GOPS and EPB metrics of
Figs. 8-11 — is derived from the same op/byte counts, so the comparison
is apples-to-apples by construction.

Conventions: a MAC counts as 2 ops (multiply + add), other primitives
count as 1 op each; bytes assume the paper's 8-bit quantization unless a
different width is passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # the model modules load only where a count needs them
    from repro.graphs.graph import CSRGraph
    from repro.nn.gnn import GNNConfig, GNNKind
    from repro.nn.transformer import TransformerConfig


@dataclass(frozen=True)
class OpCount:
    """Operation and traffic totals for one inference.

    Attributes:
        macs: multiply-accumulate count.
        adds: standalone additions (residuals, aggregations).
        comparisons: max-reduction comparisons.
        activations: nonlinearity evaluations.
        softmax_elements: elements passed through softmax.
        norm_elements: elements passed through layer normalization.
        weight_bytes: parameter bytes that must be resident/streamed.
        activation_bytes: intermediate tensor bytes moved.
    """

    macs: int = 0
    adds: int = 0
    comparisons: int = 0
    activations: int = 0
    softmax_elements: int = 0
    norm_elements: int = 0
    weight_bytes: int = 0
    activation_bytes: int = 0

    @property
    def total_ops(self) -> int:
        """Total operations with a MAC counted as 2 ops."""
        return (
            2 * self.macs
            + self.adds
            + self.comparisons
            + self.activations
            + self.softmax_elements
            + self.norm_elements
        )

    @property
    def total_bytes(self) -> int:
        """Total bytes moved (weights + activations)."""
        return self.weight_bytes + self.activation_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """Ops per byte — the roofline x-coordinate."""
        if self.total_bytes == 0:
            return float("inf")
        return self.total_ops / self.total_bytes

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            macs=self.macs + other.macs,
            adds=self.adds + other.adds,
            comparisons=self.comparisons + other.comparisons,
            activations=self.activations + other.activations,
            softmax_elements=self.softmax_elements + other.softmax_elements,
            norm_elements=self.norm_elements + other.norm_elements,
            weight_bytes=self.weight_bytes + other.weight_bytes,
            activation_bytes=self.activation_bytes + other.activation_bytes,
        )

    def scaled(self, factor: int) -> "OpCount":
        """This count repeated ``factor`` times (e.g. per-layer -> model)."""
        if factor < 0:
            raise ConfigurationError(f"factor must be >= 0, got {factor}")
        return OpCount(
            macs=self.macs * factor,
            adds=self.adds * factor,
            comparisons=self.comparisons * factor,
            activations=self.activations * factor,
            softmax_elements=self.softmax_elements * factor,
            norm_elements=self.norm_elements * factor,
            weight_bytes=self.weight_bytes * factor,
            activation_bytes=self.activation_bytes * factor,
        )


def transformer_layer_op_count(
    config: TransformerConfig, bytes_per_value: int = 1
) -> OpCount:
    """Op/byte count of one encoder (or decoder) layer at the config's
    sequence length."""
    s = config.seq_len
    d = config.d_model
    d_ff = config.d_ff
    # Projections Q, K, V and the output linear: 4 of (s x d) @ (d x d).
    projection_macs = 4 * s * d * d
    # Attention scores QK^T and the AV product, summed over heads:
    # H * (s*s*d_k) each = s*s*d each.
    attention_macs = 2 * s * s * d
    ff_macs = 2 * s * d * d_ff
    softmax_elements = config.num_heads * s * s
    norm_elements = 2 * s * d
    residual_adds = 2 * s * d
    activations = s * d_ff
    weight_bytes = (4 * d * d + 2 * d * d_ff) * bytes_per_value
    activation_bytes = (
        # Layer input/output plus Q/K/V/score/context intermediates.
        (2 * s * d + 3 * s * d + 2 * config.num_heads * s * s // max(s, 1))
        * bytes_per_value
    )
    return OpCount(
        macs=projection_macs + attention_macs + ff_macs,
        adds=residual_adds,
        activations=activations,
        softmax_elements=softmax_elements,
        norm_elements=norm_elements,
        weight_bytes=weight_bytes,
        activation_bytes=activation_bytes,
    )


def transformer_op_count(
    config: TransformerConfig, bytes_per_value: int = 1
) -> OpCount:
    """Op/byte count of one full-model inference at ``config.seq_len``."""
    from repro.nn.transformer import TransformerKind

    if bytes_per_value < 1:
        raise ConfigurationError(
            f"bytes per value must be >= 1, got {bytes_per_value}"
        )
    per_layer = transformer_layer_op_count(config, bytes_per_value)
    total = per_layer.scaled(config.num_layers)
    if config.kind is TransformerKind.VISION:
        # ViT MLP head: d -> d_ff -> 1000.
        head_macs = config.d_model * config.d_ff + config.d_ff * 1000
        head = OpCount(
            macs=head_macs,
            activations=config.d_ff,
            weight_bytes=head_macs * bytes_per_value,
            activation_bytes=(config.d_ff + 1000) * bytes_per_value,
        )
        total = total + head
    return total


def gnn_layer_op_count(
    kind: GNNKind,
    graph: CSRGraph,
    in_dim: int,
    out_dim: int,
    heads: int = 1,
    bytes_per_value: int = 1,
) -> OpCount:
    """Op/byte count of one GNN layer over a full graph.

    Aggregation touches every arc once (num_edges adds or comparisons of
    in_dim-wide vectors); combination is a per-node matrix-vector product.
    """
    from repro.nn.gnn import GNNKind

    n = graph.num_nodes
    e = graph.num_edges
    agg_adds = e * in_dim
    if kind is GNNKind.GCN:
        combine_macs = n * in_dim * out_dim
        extra_macs = 2 * n * in_dim  # degree normalization scaling
        activations = n * out_dim
        weight_values = in_dim * out_dim
    elif kind is GNNKind.SAGE:
        combine_macs = 2 * n * in_dim * out_dim  # self + neighbour paths
        extra_macs = n * in_dim  # mean division
        activations = n * out_dim
        weight_values = 2 * in_dim * out_dim
    elif kind is GNNKind.GIN:
        hidden = max(in_dim, out_dim)
        combine_macs = n * (in_dim * hidden + hidden * out_dim)
        extra_macs = n * in_dim  # (1 + eps) scaling
        activations = n * (hidden + out_dim)
        weight_values = in_dim * hidden + hidden * out_dim
    elif kind is GNNKind.GAT:
        combine_macs = n * in_dim * out_dim
        # Attention scores: two dot products per node per head plus one
        # scalar-vector MAC per edge for the weighted sum.
        head_dim = max(out_dim // heads, 1)
        extra_macs = 2 * n * heads * head_dim + e * out_dim
        activations = n * out_dim + e * heads  # LeakyReLU on edge scores
        weight_values = in_dim * out_dim + 2 * heads * head_dim
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigurationError(f"unsupported GNN kind {kind}")
    softmax_elements = e * heads if kind is GNNKind.GAT else 0
    return OpCount(
        macs=combine_macs + extra_macs,
        adds=agg_adds,
        activations=activations,
        softmax_elements=softmax_elements,
        weight_bytes=weight_values * bytes_per_value,
        activation_bytes=(e * in_dim + n * (in_dim + out_dim)) * bytes_per_value,
    )


def gnn_op_count(
    config: GNNConfig, graph: CSRGraph, bytes_per_value: int = 1
) -> OpCount:
    """Op/byte count of one full GNN inference over ``graph``."""
    if bytes_per_value < 1:
        raise ConfigurationError(
            f"bytes per value must be >= 1, got {bytes_per_value}"
        )
    total = OpCount()
    for d_in, d_out in config.layer_dims():
        total = total + gnn_layer_op_count(
            config.kind,
            graph,
            d_in,
            d_out,
            heads=config.heads,
            bytes_per_value=bytes_per_value,
        )
    return total
