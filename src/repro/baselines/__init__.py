"""Baseline platform models for the Figs. 8-11 comparisons.

Two kinds, mirroring the paper's methodology (Section VI):

- :mod:`repro.baselines.platforms` — roofline models of the GPU / TPU /
  CPU platforms the authors ran directly ("directly acquired outcomes
  from model executions on the GPU, CPU, and TPU platforms").
- :mod:`repro.baselines.reported` — published-number records for the
  competing accelerators ("we utilized reported power, latency, and
  energy values for the chosen accelerators").

:mod:`repro.baselines.llm` and :mod:`repro.baselines.gnn` assemble the
exact platform lists of Figs. 8/9 and Figs. 10/11 respectively.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    ".platforms": ("RooflinePlatform",),
    ".reported": ("ReportedAccelerator",),
    ".llm": ("LLM_BASELINES", "llm_baseline_platforms"),
    ".gnn": ("GNN_BASELINES", "gnn_baseline_platforms"),
})

__all__ = [
    "RooflinePlatform",
    "ReportedAccelerator",
    "LLM_BASELINES",
    "llm_baseline_platforms",
    "GNN_BASELINES",
    "gnn_baseline_platforms",
]
