"""TRON top level: maps workloads onto the engine and produces RunReports.

Latency composes per-layer MHA and FF block costs serially across the
``num_layers`` stack (conservative: no cross-layer pipelining), with
weight streaming from HBM overlapped against compute and amortized over
the configured batch.  Energy sums block energies, memory traffic,
control and leakage.

Workload dispatch: transformers run through the MHA + FF units; MLP
workloads run their dense chain on the FF arrays (the FF unit *is* a
two-layer MLP engine, so the general case just tiles more layers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.base import (
    MAX_CONTEXT_CLONES,
    ContextBoundAccelerator,
    Workload,
    WorkloadKind,
)
from repro.core.context import ExecutionContext
from repro.core.engine import (
    ArraySpec,
    LRUMemo,
    MemoryModel,
    build_memory_backend,
    serial_waves,
)
from repro.core.reports import EnergyReport, LatencyReport, RunReport
from repro.core.tron.config import TRONConfig
from repro.core.tron.feedforward import FeedForwardUnit
from repro.core.tron.mha import MHAUnit
from repro.errors import ConfigurationError, MappingError
from repro.nn.counting import transformer_op_count
from repro.nn.transformer import TransformerConfig, TransformerKind, TransformerModel


@dataclass
class TRON(ContextBoundAccelerator):
    """The silicon-photonic transformer accelerator (Sections V.C, VI).

    Example::

        tron = TRON()
        report = tron.run_transformer(bert_base())
        print(report.summary())

    A TRON instance is bound to one execution context (``ctx``, default
    nominal); ``run(workload, ctx=...)`` transparently dispatches through
    a context-bound clone, LRU-memoized per context.
    """

    config: TRONConfig = field(default_factory=TRONConfig)
    ctx: Optional[ExecutionContext] = None
    mha_unit: MHAUnit = field(init=False, repr=False)
    ff_unit: FeedForwardUnit = field(init=False, repr=False)
    memory_model: MemoryModel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.mha_unit = MHAUnit(config=self.config, ctx=self.ctx)
        self.ff_unit = FeedForwardUnit(config=self.config, ctx=self.ctx)
        self.memory_model = build_memory_backend(
            self.config.memory_backend,
            self.config.memory,
            context=self.ctx,
            geometry=self.config.hbm,
        )
        self._context_clones = LRUMemo(
            "accelerator.context_clones", MAX_CONTEXT_CLONES
        )

    @property
    def name(self) -> str:
        return "TRON"

    def array_specs(self) -> List[ArraySpec]:
        """The distinct MR bank array geometries this instance deploys
        (all TRON units share one array spec)."""
        return [ArraySpec.from_config(self.config)]

    def describe(self) -> str:
        cfg = self.config
        return (
            f"TRON: {cfg.num_head_units} head units x 7 arrays "
            f"({cfg.array_rows}x{cfg.array_cols}), {cfg.num_ff_arrays} FF "
            f"arrays, {cfg.clock_ghz:.0f} GHz photonic clock, "
            f"{cfg.peak_gops / 1e3:.0f} TOPS peak"
        )

    # ------------------------------------------------------------------
    # Workload dispatch
    # ------------------------------------------------------------------

    def _run_workload(
        self,
        workload: Workload,
        ctx: Optional[ExecutionContext] = None,
    ) -> RunReport:
        engine = self.bind(ctx)
        if workload.kind is WorkloadKind.TRANSFORMER:
            return engine.run_transformer(workload.model)
        if workload.kind is WorkloadKind.MLP:
            return engine.run_mlp(workload)
        if workload.kind is WorkloadKind.DECODE:
            return engine.run_decode(workload)
        raise MappingError(
            f"TRON cannot execute {workload.kind.value!r} workload "
            f"{workload.name!r}"
        )

    def decode_series(
        self,
        workload: Workload,
        ctx: Optional[ExecutionContext] = None,
    ):
        """Per-token decode series of a DECODE workload.

        Returns a :class:`repro.streaming.decode.DecodeSeries`; the
        streaming CLI/session layers read token-level columns from it.
        """
        # Local import: the streaming package layers on top of the core.
        from repro.streaming.decode import decode_series

        engine = self.bind(ctx)
        return decode_series(
            engine,
            workload.model,
            prompt_tokens=workload.prompt_tokens,
            generated_tokens=workload.generated_tokens,
        )

    def run_decode(self, workload: Workload) -> RunReport:
        """Whole prompt + generate episode as one RunReport.

        Latency/energy/ops are the prefill pass plus the decode totals
        of the stacked per-token series (what
        :func:`repro.core.tron.generation.run_generation` returns).
        """
        series = self.decode_series(workload)
        report = series.to_generation_report()
        return RunReport(
            platform=self.name,
            workload=workload.name,
            ops=report.prefill.ops + report.decode_ops,
            latency=report.prefill.latency + report.decode_latency,
            energy=report.prefill.energy + report.decode_energy,
            bits_per_value=report.prefill.bits_per_value,
        )

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def run_transformer(self, model: TransformerConfig) -> RunReport:
        """Estimate one full inference of ``model`` (Figs. 8 and 9 path)."""
        if model.seq_len < 1:
            raise ConfigurationError("model sequence length must be >= 1")
        cfg = self.config
        pim_offload = getattr(self.memory_model, "pim_active", False)
        mha_cost = self.mha_unit.block_cost(
            model.seq_len,
            model.d_model,
            model.num_heads,
            offload_context=pim_offload,
        )
        ff_cost = self.ff_unit.block_cost(model.seq_len, model.d_model, model.d_ff)
        layer_latency = mha_cost.latency + ff_cost.latency
        layer_energy = mha_cost.energy + ff_cost.energy
        compute_latency = layer_latency.scaled(model.num_layers)
        compute_energy = layer_energy.scaled(model.num_layers)

        # Memory: model weights stream from HBM once per batch (double-
        # buffered against compute); activations bounce through the global
        # buffer between blocks.
        ops = transformer_op_count(model, bytes_per_value=max(cfg.bits // 8, 1))
        memory_energy, memory_latency = self.memory_model.weight_stream_cost(
            weight_bytes=ops.weight_bytes,
            activation_bounce_bytes=2 * ops.activation_bytes,
            compute_ns=compute_latency.total_ns,
            batch=cfg.batch,
        )

        if pim_offload:
            # The S.V context reduction runs near the banks: scores and
            # V spill to the device, are reduced in place, and only the
            # (seq x d_model) context returns — charged per layer.
            bpv = max(cfg.bits // 8, 1)
            score_bytes = (
                model.num_heads * model.seq_len * model.seq_len * bpv
            )
            v_bytes = model.seq_len * model.d_model * bpv
            spill = self.memory_model.store_offchip(score_bytes + v_bytes)
            reduce = self.memory_model.pim_reduce_cost(
                in_bank_bytes=score_bytes + v_bytes,
                out_bytes=model.seq_len * model.d_model * bpv,
                macs=model.seq_len * model.seq_len * model.d_model,
            )
            memory_energy = memory_energy + EnergyReport(
                memory_pj=(spill.energy_pj + reduce.energy_pj)
                * model.num_layers
            )
            memory_latency = memory_latency + LatencyReport(
                memory_ns=(spill.latency_ns + reduce.latency_ns)
                * model.num_layers
            )

        latency = compute_latency + memory_latency
        static_pj = (
            cfg.control.power_mw + cfg.memory.global_buffer.leakage_mw
        ) * latency.total_ns
        energy = compute_energy + memory_energy + EnergyReport(static_pj=static_pj)

        if model.kind is TransformerKind.VISION:
            head_cost = self.ff_unit.block_cost(1, model.d_model, model.d_ff)
            latency = latency + head_cost.latency
            energy = energy + head_cost.energy

        return RunReport(
            platform=self.name,
            workload=model.name,
            ops=ops,
            latency=latency,
            energy=energy,
            bits_per_value=cfg.bits,
        )

    def run_mlp(self, workload: Workload) -> RunReport:
        """Estimate one batched MLP inference on the FF arrays.

        Each dense layer tiles over ``num_ff_arrays`` arrays exactly like
        the transformer FF block; the SOA stage activates every hidden
        element; weights stream from HBM once per batch.
        """
        cfg = self.config
        executor = self.ff_unit.executor
        cycle_ns = cfg.cycle_ns
        samples = workload.samples
        total_cycles = 0
        soa_pj = 0.0
        dims = list(workload.layer_dims)
        for i, (d_in, d_out) in enumerate(dims):
            total_cycles += executor.cycles_for(d_out, d_in, batch=samples)
            if i < len(dims) - 1:  # hidden activations only
                soa_pj += samples * d_out * cfg.activation.power_mw * cycle_ns
        serial_cycles = serial_waves(total_cycles, cfg.num_ff_arrays)
        compute_latency = LatencyReport(compute_ns=serial_cycles * cycle_ns)
        compute_energy = executor.energy_for_cycles(
            total_cycles, weight_refresh_cycles=cfg.weight_refresh_cycles
        ) + EnergyReport(activation_pj=soa_pj)

        ops = workload.op_count(bytes_per_value=max(cfg.bits // 8, 1))
        memory_energy, memory_latency = self.memory_model.weight_stream_cost(
            weight_bytes=ops.weight_bytes,
            activation_bounce_bytes=2 * ops.activation_bytes,
            compute_ns=compute_latency.total_ns,
            batch=cfg.batch,
        )
        latency = compute_latency + memory_latency
        static_pj = (
            cfg.control.power_mw + cfg.memory.global_buffer.leakage_mw
        ) * latency.total_ns
        energy = compute_energy + memory_energy + EnergyReport(static_pj=static_pj)
        return RunReport(
            platform=self.name,
            workload=workload.name,
            ops=ops,
            latency=latency,
            energy=energy,
            bits_per_value=cfg.bits,
        )

    # ------------------------------------------------------------------
    # Functional model
    # ------------------------------------------------------------------

    def forward(self, model: TransformerModel, x: np.ndarray) -> np.ndarray:
        """Functional optical inference of a whole transformer stack.

        Runs every layer's MHA and FF block through the photonic units
        (with the config's noise model, if any).  Masked decoder attention
        falls back to the reference path for the mask application — the
        optical datapath computes the same matmuls either way.

        Intended for small validation models; the pure-python tiling is
        too slow for BERT-scale shapes.
        """
        x = np.asarray(x, dtype=float)
        for layer in model.layers:
            attended = self.mha_unit.forward(layer.mha, x)
            ff_out = self.ff_unit.forward(layer, attended)
            x = ff_out
        return x
