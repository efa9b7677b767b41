"""Neural-network functional layer (pure numpy).

Provides the workloads both accelerators run: transformer encoder/decoder
models used by LLMs (BERT / GPT / ViT families, Section II) and the GNN
models GHOST targets (GCN, GraphSAGE, GIN, GAT — Section III), plus the
8-bit quantization the paper adopts (Section VI) and the op/byte counting
that drives every performance model in the library.

Weights are synthetic (seeded, realistically scaled): accelerator cost
depends on tensor *shapes*, not values — see DESIGN.md section 1.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    ".ops": (
        "gelu", "layer_norm", "linear", "relu", "scaled_dot_product_attention",
        "softmax",
    ),
    ".quantization": (
        "QuantizedTensor", "dequantize", "quantize_symmetric",
        "quantization_error",
    ),
    ".attention": ("MultiHeadAttention",),
    ".transformer": (
        "TransformerConfig", "TransformerEncoderLayer", "TransformerModel",
    ),
    ".models": (
        "MODEL_ZOO", "bert_base", "bert_large", "gpt2_small", "vit_base",
        "get_model_config",
    ),
    ".gnn": (
        "GNNConfig", "GCNLayer", "GraphSAGELayer", "GINLayer", "GATLayer",
        "GNNModel", "make_gnn",
    ),
    ".counting": ("OpCount", "transformer_op_count", "gnn_op_count"),
})

__all__ = [
    "gelu",
    "layer_norm",
    "linear",
    "relu",
    "scaled_dot_product_attention",
    "softmax",
    "QuantizedTensor",
    "dequantize",
    "quantize_symmetric",
    "quantization_error",
    "MultiHeadAttention",
    "TransformerConfig",
    "TransformerEncoderLayer",
    "TransformerModel",
    "MODEL_ZOO",
    "bert_base",
    "bert_large",
    "gpt2_small",
    "vit_base",
    "get_model_config",
    "GNNConfig",
    "GCNLayer",
    "GraphSAGELayer",
    "GINLayer",
    "GATLayer",
    "GNNModel",
    "make_gnn",
    "OpCount",
    "transformer_op_count",
    "gnn_op_count",
]
