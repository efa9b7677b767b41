"""The paper's primary contribution: the TRON and GHOST accelerators.

- :mod:`repro.core.reports` — structured latency/energy/run reports and
  the EPB / GOPS metric definitions shared by every platform model.
- :mod:`repro.core.base` — the accelerator + workload interfaces and the
  workload registry.
- :mod:`repro.core.scheduling` — pipeline latency composition.
- :mod:`repro.core.engine` — the shared photonic execution engine
  (tiled MR-bank matmul, memory-traffic model, pipeline composition).
- :mod:`repro.core.tron` — the transformer/LLM accelerator (Section V.C).
- :mod:`repro.core.ghost` — the GNN accelerator (Section V.D).
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    ".reports": ("EnergyReport", "LatencyReport", "RunReport"),
    ".base": (
        "Accelerator", "Workload", "WorkloadKind", "get_workload",
        "list_workloads", "register_workload",
    ),
    ".context": (
        "NOMINAL", "ExecutionContext", "PinnedArrayPhysics", "ThermalCorner",
        "standard_corners",
    ),
    ".scheduling": ("PipelineStage", "pipeline_latency_ns"),
    ".tron": ("TRON", "TRONConfig"),
    ".ghost": ("GHOST", "GHOSTConfig"),
})

__all__ = [
    "EnergyReport",
    "LatencyReport",
    "RunReport",
    "Accelerator",
    "Workload",
    "WorkloadKind",
    "get_workload",
    "list_workloads",
    "register_workload",
    "NOMINAL",
    "ExecutionContext",
    "PinnedArrayPhysics",
    "ThermalCorner",
    "standard_corners",
    "PipelineStage",
    "pipeline_latency_ns",
    "TRON",
    "TRONConfig",
    "GHOST",
    "GHOSTConfig",
]
