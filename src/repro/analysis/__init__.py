"""Analysis layer: metrics, figures, claims, sweeps and robustness.

- :mod:`repro.analysis.metrics` — cross-platform comparison tables.
- :mod:`repro.analysis.figures` — regenerates the data series behind the
  paper's Figs. 8-11.
- :mod:`repro.analysis.claims` — evaluates the headline claims (>=10.2x
  throughput / >=3.8x energy efficiency overall; >=14x / >=8x for TRON)
  plus the streaming-extension floors (decode / temporal regimes).
- :mod:`repro.analysis.sweep` — the workload-agnostic design-space sweep
  engine (with an execution-corner axis).
- :mod:`repro.analysis.robustness` — vectorized Monte-Carlo variation
  analysis and the yield-aware Pareto frontier.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    ".metrics": ("ComparisonTable", "speedup_over_best_baseline"),
    ".robustness": (
        "MonteCarloResult", "RobustPoint", "monte_carlo_sweep",
        "run_monte_carlo", "yield_aware_pareto",
    ),
    ".figures": (
        "FigureData", "ext_decode_epb", "ext_decode_gops", "ext_temporal_epb",
        "ext_temporal_gops", "fig8_llm_epb", "fig9_llm_gops", "fig10_gnn_epb",
        "fig11_gnn_gops", "DECODE_WORKLOADS", "LLM_WORKLOADS", "GNN_WORKLOADS",
        "TEMPORAL_WORKLOADS",
    ),
    ".claims": (
        "ClaimCheck", "check_headline_claims", "check_streaming_claims",
    ),
})

__all__ = [
    "ComparisonTable",
    "speedup_over_best_baseline",
    "FigureData",
    "ext_decode_epb",
    "ext_decode_gops",
    "ext_temporal_epb",
    "ext_temporal_gops",
    "fig8_llm_epb",
    "fig9_llm_gops",
    "fig10_gnn_epb",
    "fig11_gnn_gops",
    "DECODE_WORKLOADS",
    "LLM_WORKLOADS",
    "GNN_WORKLOADS",
    "TEMPORAL_WORKLOADS",
    "ClaimCheck",
    "check_headline_claims",
    "check_streaming_claims",
    "MonteCarloResult",
    "RobustPoint",
    "monte_carlo_sweep",
    "run_monte_carlo",
    "yield_aware_pareto",
]
