"""TRON: the silicon-photonic transformer accelerator (paper Section V.C).

Structure mirrors the paper's Figs. 4 and 5:

- :mod:`repro.core.tron.config` — architectural parameters.
- :mod:`repro.core.tron.attention_head` — the attention-head unit built
  from seven MR bank arrays, implementing the Q·K^T = (Q·W_K^T)·X^T
  decomposition of eq. (3) on the shared :mod:`repro.core.engine`
  matmul executor (``photonic_matmul`` now lives in the engine; the
  import from ``attention_head`` remains as a deprecation alias).
- :mod:`repro.core.tron.mha` — the MHA unit (H head units, concat +
  linear layer, coherent residual add, optical LayerNorm).
- :mod:`repro.core.tron.feedforward` — the FF unit (two dense layers with
  SOA activation).
- :mod:`repro.core.tron.accelerator` — whole-model mapping and cost
  estimation producing :class:`repro.core.reports.RunReport`.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    ".config": ("TRONConfig",),
    ".attention_head": ("AttentionHeadUnit",),
    ".mha": ("MHAUnit",),
    ".feedforward": ("FeedForwardUnit",),
    ".accelerator": ("TRON",),
    ".generation": ("GenerationReport", "decode_step_ops", "run_generation"),
})

__all__ = [
    "TRONConfig",
    "AttentionHeadUnit",
    "MHAUnit",
    "FeedForwardUnit",
    "TRON",
    "GenerationReport",
    "decode_step_ops",
    "run_generation",
]
