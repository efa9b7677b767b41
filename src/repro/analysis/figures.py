"""Regenerates the data series behind the paper's Figs. 8-11.

Each ``figN_*`` function returns a :class:`FigureData` holding the
(platform x workload) metric grid the corresponding bar chart plots:

- Fig. 8: EPB across LLM platforms (TRON + 7 baselines).
- Fig. 9: throughput (GOPS) across LLM platforms.
- Fig. 10: EPB across GNN platforms (GHOST + 9 baselines).
- Fig. 11: throughput (GOPS) across GNN platforms.

Workloads follow Section VI: multiple transformer models (BERT / GPT /
ViT families) and multiple GNN models x datasets at 8-bit precision.

The ``ext_*`` functions extend the same comparisons to the streaming
regimes the paper's batch figures do not cover (autoregressive decode
episodes on TRON, evolving-graph snapshot streams on GHOST): the wins
narrow — decode is dominated by low-arithmetic-intensity KV steps and
temporal snapshots repeat sparse aggregation — but both platforms keep
beating every baseline on every streaming workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.metrics import ComparisonTable, speedup_over_best_baseline
from repro.baselines.gnn import gnn_baseline_platforms
from repro.baselines.llm import llm_baseline_platforms
from repro.core.base import get_workload
from repro.core.ghost import GHOST
from repro.core.tron import TRON, TRONConfig
from repro.nn.gnn import GNNKind
from repro.workloads import GNN_WORKLOAD_SPECS

#: The transformer workloads of Figs. 8 and 9 (registry names).
LLM_WORKLOADS = ("BERT-base", "BERT-large", "GPT-2", "ViT-base")

#: The (model kind, hidden width, dataset) workloads of Figs. 10 and 11.
GNN_WORKLOADS: Tuple[Tuple[GNNKind, int, str], ...] = tuple(
    (GNNKind(kind), hidden, dataset)
    for kind, hidden, dataset in GNN_WORKLOAD_SPECS
)

#: The autoregressive decode episodes of the streaming extension.
DECODE_WORKLOADS = ("decode-gpt2-small", "decode-gpt2-small-long")

#: The evolving-graph streams of the streaming extension.
TEMPORAL_WORKLOADS = (
    "GCN-ba-temporal",
    "GIN-rmat-temporal",
    "GAT-sbm-temporal",
)


@dataclass(frozen=True)
class FigureData:
    """One figure's regenerated data.

    Attributes:
        figure: figure label ("Fig. 8" ... "Fig. 11").
        metric: 'epb' or 'gops'.
        table: the (platform x workload) grid.
        our_platform: TRON or GHOST, for the win-ratio view.
    """

    figure: str
    metric: str
    table: ComparisonTable
    our_platform: str

    def win_ratios(self) -> Dict[str, float]:
        """Per-workload factor by which our platform beats the strongest
        baseline (>= 1 means a win)."""
        return speedup_over_best_baseline(self.table, self.our_platform)

    def min_win_ratio(self) -> float:
        """The 'at least Nx' number the paper's abstract quotes."""
        return min(self.win_ratios().values())

    def format(self) -> str:
        """Printable table plus the win-ratio summary row."""
        ratios = self.win_ratios()
        summary = " | ".join(
            f"{workload[:12]}: {ratio:6.1f}x" for workload, ratio in ratios.items()
        )
        return (
            f"=== {self.figure} ({self.metric.upper()}) ===\n"
            f"{self.table.format()}\n"
            f"win vs best baseline -> {summary}\n"
            f"minimum win ratio: {self.min_win_ratio():.1f}x"
        )


def _llm_table(metric: str, tron: Optional[TRON] = None) -> ComparisonTable:
    table = ComparisonTable(metric=metric)
    tron = tron or TRON(TRONConfig(batch=8))
    baselines = llm_baseline_platforms()
    for name in LLM_WORKLOADS:
        workload = get_workload(name)
        table.add(tron.run(workload))
        for platform in baselines:
            table.add(platform.run(workload))
    return table


def _gnn_table(metric: str, ghost: Optional[GHOST] = None) -> ComparisonTable:
    table = ComparisonTable(metric=metric)
    ghost = ghost or GHOST()
    baselines = gnn_baseline_platforms()
    for kind, _hidden, dataset in GNN_WORKLOADS:
        workload = get_workload(f"{kind.value.upper()}-{dataset}")
        table.add(ghost.run(workload))
        for platform in baselines:
            table.add(platform.run(workload))
    return table


def fig8_llm_epb(tron: Optional[TRON] = None) -> FigureData:
    """Fig. 8: EPB comparison across LLM accelerators."""
    return FigureData(
        figure="Fig. 8",
        metric="epb",
        table=_llm_table("epb", tron),
        our_platform="TRON",
    )


def fig9_llm_gops(tron: Optional[TRON] = None) -> FigureData:
    """Fig. 9: throughput comparison across LLM accelerators."""
    return FigureData(
        figure="Fig. 9",
        metric="gops",
        table=_llm_table("gops", tron),
        our_platform="TRON",
    )


def fig10_gnn_epb(ghost: Optional[GHOST] = None) -> FigureData:
    """Fig. 10: EPB comparison across GNN accelerators."""
    return FigureData(
        figure="Fig. 10",
        metric="epb",
        table=_gnn_table("epb", ghost),
        our_platform="GHOST",
    )


def fig11_gnn_gops(ghost: Optional[GHOST] = None) -> FigureData:
    """Fig. 11: throughput comparison across GNN accelerators."""
    return FigureData(
        figure="Fig. 11",
        metric="gops",
        table=_gnn_table("gops", ghost),
        our_platform="GHOST",
    )


def _decode_table(metric: str, tron: Optional[TRON] = None) -> ComparisonTable:
    table = ComparisonTable(metric=metric)
    tron = tron or TRON(TRONConfig(batch=8))
    baselines = llm_baseline_platforms()
    for name in DECODE_WORKLOADS:
        workload = get_workload(name)
        table.add(tron.run(workload))
        for platform in baselines:
            table.add(platform.run(workload))
    return table


def _temporal_table(
    metric: str, ghost: Optional[GHOST] = None
) -> ComparisonTable:
    table = ComparisonTable(metric=metric)
    ghost = ghost or GHOST()
    baselines = gnn_baseline_platforms()
    for name in TEMPORAL_WORKLOADS:
        workload = get_workload(name)
        table.add(ghost.run(workload))
        for platform in baselines:
            table.add(platform.run(workload))
    return table


def ext_decode_epb(tron: Optional[TRON] = None) -> FigureData:
    """Extension: EPB on autoregressive decode episodes (Fig. 8 regime)."""
    return FigureData(
        figure="Ext. decode EPB",
        metric="epb",
        table=_decode_table("epb", tron),
        our_platform="TRON",
    )


def ext_decode_gops(tron: Optional[TRON] = None) -> FigureData:
    """Extension: throughput on decode episodes (Fig. 9 regime)."""
    return FigureData(
        figure="Ext. decode GOPS",
        metric="gops",
        table=_decode_table("gops", tron),
        our_platform="TRON",
    )


def ext_temporal_epb(ghost: Optional[GHOST] = None) -> FigureData:
    """Extension: EPB on evolving-graph streams (Fig. 10 regime)."""
    return FigureData(
        figure="Ext. temporal EPB",
        metric="epb",
        table=_temporal_table("epb", ghost),
        our_platform="GHOST",
    )


def ext_temporal_gops(ghost: Optional[GHOST] = None) -> FigureData:
    """Extension: throughput on evolving-graph streams (Fig. 11 regime)."""
    return FigureData(
        figure="Ext. temporal GOPS",
        metric="gops",
        table=_temporal_table("gops", ghost),
        our_platform="GHOST",
    )
