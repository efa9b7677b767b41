"""Array-resident (structure-of-arrays) TRON cost evaluators.

These evaluate a whole batch of TRON configurations x execution contexts
against one workload as NumPy columns, transcribing the scalar cost path
(:mod:`repro.core.tron.accelerator`, :mod:`~repro.core.tron.mha`,
:mod:`~repro.core.tron.attention_head`, :mod:`~repro.core.tron.feedforward`)
operation for operation: the same integer ceiling divisions, the same
left-associative float accumulation order, the same memoized physics
values.  A materialized point is therefore bit-identical to
``TRON(config).run(workload, ctx=ctx)`` — the parity suite enforces it.

Per-point work is limited to cheap integer tiling columns; everything
transcendental or object-shaped (device physics breakdowns, memory
traffic, softmax LUT curves, the residual adder) is computed once per
distinct group and broadcast.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.base import WorkloadKind
from repro.core.context import ExecutionContext
from repro.core.engine.matmul import ArraySpec
from repro.core.engine.soa import (
    ColumnEnergy,
    ColumnLatency,
    breakdown_columns,
    build_soa_memory_model,
    ceil_div,
    energy_for_cycles_columns,
    group_indices,
    memory_context_key,
    register_soa_evaluator,
    resolve_array_physics,
    suite_evaluator,
    weight_stream_columns,
)
from repro.core.reports import StackedRunReports
from repro.core.tron.config import TRONConfig
from repro.errors import ConfigurationError
from repro.nn.counting import OpCount, transformer_op_count
from repro.nn.transformer import TransformerKind
from repro.photonics.summation import CoherentSummationUnit


class _TronColumns:
    """Per-point knob columns plus grouped physics for a TRON batch."""

    def __init__(
        self,
        configs: Sequence[TRONConfig],
        contexts: Sequence[Optional[ExecutionContext]],
    ) -> None:
        self.configs = configs
        self.n = len(configs)
        self.specs = [ArraySpec.from_config(cfg) for cfg in configs]
        self.usable_rows, self.usable_cols, correction = resolve_array_physics(
            self.specs, contexts
        )
        self.cycle_ns = np.array([cfg.cycle_ns for cfg in configs])
        self.head_units = np.array(
            [cfg.num_head_units for cfg in configs], dtype=np.int64
        )
        self.linear_arrays = np.array(
            [cfg.num_linear_arrays for cfg in configs], dtype=np.int64
        )
        self.ff_arrays = np.array(
            [cfg.num_ff_arrays for cfg in configs], dtype=np.int64
        )
        self.batch = np.array([cfg.batch for cfg in configs], dtype=np.int64)
        self.activation_power = np.array(
            [cfg.activation.power_mw for cfg in configs]
        )
        self.bits = [cfg.bits for cfg in configs]
        self.static_mw = np.array(
            [
                cfg.control.power_mw + cfg.memory.global_buffer.leakage_mw
                for cfg in configs
            ]
        )
        self.breakdown = breakdown_columns(
            self.specs,
            [cfg.weight_refresh_cycles for cfg in configs],
            correction,
            self.cycle_ns,
        )
        self.groups = len(set(zip(self.specs, contexts)))

    def tile_cycles(self, out_rows: int, inner: int) -> np.ndarray:
        """Per-point cycles for one (out_rows x inner) output column
        (``ArrayExecutor.cycles_for`` with batch=1)."""
        if out_rows < 1 or inner < 1:
            raise ConfigurationError(
                f"matmul dims must be >= 1, got {out_rows}x{inner}"
            )
        return ceil_div(out_rows, self.usable_rows) * ceil_div(
            inner, self.usable_cols
        )

    def ops_per_point(self, count) -> Tuple[list, int]:
        """Per-point op counts (one shared object per distinct precision)."""
        ops_list: list = [None] * self.n
        groups = group_indices(self.bits)
        for bits, indices in groups.items():
            ops = count(bits)
            for i in indices:
                ops_list[i] = ops
        return ops_list, len(groups)


def _softmax_columns(
    cols: _TronColumns, latency_items: int, energy_elements: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Softmax LUT latency / energy, once per distinct LUT config."""
    latency = np.empty(cols.n)
    energy = np.empty(cols.n)
    for lut, indices in group_indices(
        [cfg.softmax for cfg in cols.configs]
    ).items():
        latency[indices] = lut.latency_ns(latency_items)
        energy[indices] = lut.energy_pj(energy_elements)
    return latency, energy


def _head_cost_columns(
    cols: _TronColumns,
    seq_len: int,
    d_model: int,
    d_k: int,
    offload: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ColumnEnergy]:
    """``AttentionHeadUnit.head_cost`` as columns.

    ``offload`` marks the points whose S·V context reduction leaves the
    photonic pipeline (PIM-capable memory backend): both the offloaded
    and the full stage pipeline are evaluated as whole columns and the
    per-point variant selected with ``np.where`` — selection of
    identical floats, so each point stays bit-identical to its scalar
    ``head_cost(..., offload_context=...)``.
    """
    stage_dims = [
        (d_k, d_model),       # q_proj
        (d_model, d_k),       # k_mix
        (seq_len, d_model),   # scores
        (d_k, d_model),       # v_proj
        (d_k, seq_len),       # context
    ]
    stage_latencies = []
    stage_cycles = []
    for out_rows, inner in stage_dims:
        cycles = cols.tile_cycles(out_rows, inner)
        stage_cycles.append(cycles)
        stage_latencies.append(cycles * cols.cycle_ns)
    softmax_latency, softmax_pj = _softmax_columns(
        cols, seq_len, seq_len * seq_len
    )
    stage_latencies.insert(3, softmax_latency)
    # The offloaded pipeline is the full one minus its last stage, so
    # the full fill/bottleneck/cycle columns chain off the offloaded
    # ones in the scalar path's exact left-associative order.
    context_latency = stage_latencies[-1]
    fill_off: object = 0
    for latency in stage_latencies[:-1]:
        fill_off = fill_off + latency
    fill_full = fill_off + context_latency
    bottleneck_off = stage_latencies[0]
    for latency in stage_latencies[1:-1]:
        bottleneck_off = np.maximum(bottleneck_off, latency)
    bottleneck_full = np.maximum(bottleneck_off, context_latency)
    cycles_off = np.zeros(cols.n, dtype=np.int64)
    for cycles in stage_cycles[:-1]:
        cycles_off = cycles_off + cycles * seq_len
    cycles_full = cycles_off + stage_cycles[-1] * seq_len
    if offload is None:
        total_cycles = cycles_full
        compute_ns = fill_full + (seq_len - 1) * bottleneck_full
    else:
        total_cycles = np.where(offload, cycles_off, cycles_full)
        compute_ns = np.where(
            offload,
            fill_off + (seq_len - 1) * bottleneck_off,
            fill_full + (seq_len - 1) * bottleneck_full,
        )
    energy = energy_for_cycles_columns(
        total_cycles, cols.breakdown
    ) + ColumnEnergy(digital_pj=softmax_pj)
    return compute_ns, energy


def _residual_adder_columns(cols: _TronColumns) -> np.ndarray:
    """Per-operation coherent-adder energy, once per distinct clock."""
    adder_pj = np.empty(cols.n)
    for clock_ghz, indices in group_indices(
        [cfg.clock_ghz for cfg in cols.configs]
    ).items():
        adder = CoherentSummationUnit(fan_in=2, clock_ghz=clock_ghz)
        adder_pj[indices] = adder.operation_energy_pj(active_arms=2)
    return adder_pj


def _mha_block_columns(
    cols: _TronColumns,
    seq_len: int,
    d_model: int,
    num_heads: int,
    offload: Optional[np.ndarray] = None,
) -> Tuple[ColumnLatency, ColumnEnergy]:
    """``MHAUnit.block_cost`` as columns."""
    if num_heads < 1:
        raise ConfigurationError(f"need >= 1 head, got {num_heads}")
    d_k = d_model // num_heads
    head_compute, head_energy = _head_cost_columns(
        cols, seq_len, d_model, d_k, offload=offload
    )
    waves = ceil_div(num_heads, cols.head_units)
    heads_latency = ColumnLatency(compute_ns=head_compute).scaled(waves)
    heads_energy = head_energy.scaled(num_heads)

    linear_cycles = cols.tile_cycles(d_model, d_model) * seq_len
    linear_cycles = ceil_div(linear_cycles, cols.linear_arrays)
    linear_total_cycles = linear_cycles * cols.linear_arrays
    linear_latency = ColumnLatency(compute_ns=linear_cycles * cols.cycle_ns)
    linear_energy = energy_for_cycles_columns(
        linear_total_cycles, cols.breakdown
    )

    residual_latency = ColumnLatency(
        compute_ns=2 * seq_len * cols.cycle_ns
    )
    add_pj = seq_len * _residual_adder_columns(cols)
    ln_pj = seq_len * d_model * 0.05
    residual_energy = ColumnEnergy(laser_pj=add_pj, tuning_pj=ln_pj)

    latency = heads_latency + linear_latency + residual_latency
    energy = heads_energy + linear_energy + residual_energy
    return latency, energy


def _ff_block_columns(
    cols: _TronColumns, seq_len: int, d_model: int, d_ff: int
) -> Tuple[ColumnLatency, ColumnEnergy]:
    """``FeedForwardUnit.block_cost`` as columns."""
    up_cycles = cols.tile_cycles(d_ff, d_model) * seq_len
    down_cycles = cols.tile_cycles(d_model, d_ff) * seq_len
    total_cycles = up_cycles + down_cycles
    serial_cycles = ceil_div(total_cycles, cols.ff_arrays)
    soa_pj = seq_len * d_ff * cols.activation_power * cols.cycle_ns
    residual_ns = 2 * seq_len * cols.cycle_ns
    ln_pj = seq_len * d_model * 0.05
    latency = ColumnLatency(
        compute_ns=serial_cycles * cols.cycle_ns + residual_ns
    )
    energy = energy_for_cycles_columns(
        total_cycles, cols.breakdown
    ) + ColumnEnergy(tuning_pj=ln_pj, activation_pj=soa_pj)
    return latency, energy


def _pim_extra_columns(
    cols: _TronColumns,
    contexts: Sequence[Optional[ExecutionContext]],
    model,
    offload: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-point PIM spill + near-bank reduce extras (zero elsewhere).

    Transcribes the scalar ``run_transformer`` offload branch: scores
    and V spill to the device (``store_offchip``), are reduced in place
    (``pim_reduce_cost``), and the extras are charged once per layer —
    one scalar traffic evaluation per distinct (memory system,
    precision, memory-relevant context, geometry) group.
    """
    extra_e = np.zeros(cols.n)
    extra_l = np.zeros(cols.n)
    keys = [
        (
            cols.configs[i].memory,
            cols.configs[i].bits,
            memory_context_key(contexts[i]),
            cols.configs[i].hbm,
        )
        if offload[i]
        else None
        for i in range(cols.n)
    ]
    for key, indices in group_indices(keys).items():
        if key is None:
            continue
        system, bits, mem_ctx, geometry = key
        mem_model = build_soa_memory_model(
            "hbm-pim", system, mem_ctx, geometry
        )
        bpv = max(bits // 8, 1)
        score_bytes = model.num_heads * model.seq_len * model.seq_len * bpv
        v_bytes = model.seq_len * model.d_model * bpv
        spill = mem_model.store_offchip(score_bytes + v_bytes)
        reduce = mem_model.pim_reduce_cost(
            in_bank_bytes=score_bytes + v_bytes,
            out_bytes=model.seq_len * model.d_model * bpv,
            macs=model.seq_len * model.seq_len * model.d_model,
        )
        extra_e[indices] = (
            spill.energy_pj + reduce.energy_pj
        ) * model.num_layers
        extra_l[indices] = (
            spill.latency_ns + reduce.latency_ns
        ) * model.num_layers
    return extra_e, extra_l


def _finish(
    cols: _TronColumns,
    contexts: Sequence[Optional[ExecutionContext]],
    ops_list: Sequence[OpCount],
    compute_latency: ColumnLatency,
    compute_energy: ColumnEnergy,
    extra_memory: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[ColumnLatency, ColumnEnergy]:
    """The shared memory + static tail of both TRON run paths.

    ``extra_memory`` carries per-point (energy, latency) additions to
    the memory side — the PIM offload spill/reduce — applied before the
    static tail exactly as the scalar path does.
    """
    memory_energy, memory_latency = weight_stream_columns(
        [cfg.memory for cfg in cols.configs],
        contexts,
        ops_list,
        cols.bits,
        compute_latency.total,
        cols.batch,
        backends=[cfg.memory_backend for cfg in cols.configs],
        geometries=[cfg.hbm for cfg in cols.configs],
    )
    if extra_memory is not None:
        extra_e, extra_l = extra_memory
        memory_energy = memory_energy + ColumnEnergy(memory_pj=extra_e)
        memory_latency = memory_latency + ColumnLatency(memory_ns=extra_l)
    latency = compute_latency + memory_latency
    static_pj = cols.static_mw * latency.total
    energy = compute_energy + memory_energy + ColumnEnergy(static_pj=static_pj)
    return latency, energy


def evaluate_transformer(
    configs: Sequence[TRONConfig],
    contexts: Sequence[Optional[ExecutionContext]],
    workload,
) -> StackedRunReports:
    """``TRON.run_transformer`` over a whole configuration batch."""
    model = workload.model
    if model.seq_len < 1:
        raise ConfigurationError("model sequence length must be >= 1")
    cols = _TronColumns(configs, contexts)
    offload = np.fromiter(
        (cfg.memory_backend == "hbm-pim" for cfg in configs),
        dtype=bool,
        count=cols.n,
    )

    mha_latency, mha_energy = _mha_block_columns(
        cols, model.seq_len, model.d_model, model.num_heads, offload=offload
    )
    ff_latency, ff_energy = _ff_block_columns(
        cols, model.seq_len, model.d_model, model.d_ff
    )
    layer_latency = mha_latency + ff_latency
    layer_energy = mha_energy + ff_energy
    compute_latency = layer_latency.scaled(model.num_layers)
    compute_energy = layer_energy.scaled(model.num_layers)

    ops_list, _ = cols.ops_per_point(
        lambda bits: transformer_op_count(
            model, bytes_per_value=max(bits // 8, 1)
        )
    )
    extra_memory = (
        _pim_extra_columns(cols, contexts, model, offload)
        if offload.any()
        else None
    )
    latency, energy = _finish(
        cols,
        contexts,
        ops_list,
        compute_latency,
        compute_energy,
        extra_memory=extra_memory,
    )

    if model.kind is TransformerKind.VISION:
        head_latency, head_energy = _ff_block_columns(
            cols, 1, model.d_model, model.d_ff
        )
        latency = latency + head_latency
        energy = energy + head_energy

    return StackedRunReports(
        platform="TRON",
        workload=model.name,
        ops=ops_list,
        latency=latency.as_arrays(cols.n),
        energy=energy.as_arrays(cols.n),
        bits_per_value=cols.bits,
        groups=cols.groups,
    )


def evaluate_mlp(
    configs: Sequence[TRONConfig],
    contexts: Sequence[Optional[ExecutionContext]],
    workload,
) -> StackedRunReports:
    """``TRON.run_mlp`` over a whole configuration batch."""
    cols = _TronColumns(configs, contexts)
    samples = workload.samples
    dims = list(workload.layer_dims)
    total_cycles = np.zeros(cols.n, dtype=np.int64)
    soa_pj: object = 0.0
    for i, (d_in, d_out) in enumerate(dims):
        total_cycles = total_cycles + cols.tile_cycles(d_out, d_in) * samples
        if i < len(dims) - 1:  # hidden activations only
            soa_pj = soa_pj + (
                samples * d_out * cols.activation_power * cols.cycle_ns
            )
    serial_cycles = ceil_div(total_cycles, cols.ff_arrays)
    compute_latency = ColumnLatency(compute_ns=serial_cycles * cols.cycle_ns)
    compute_energy = energy_for_cycles_columns(
        total_cycles, cols.breakdown
    ) + ColumnEnergy(activation_pj=soa_pj)

    ops_list, _ = cols.ops_per_point(
        lambda bits: workload.op_count(bytes_per_value=max(bits // 8, 1))
    )
    latency, energy = _finish(
        cols, contexts, ops_list, compute_latency, compute_energy
    )
    return StackedRunReports(
        platform="TRON",
        workload=workload.name,
        ops=ops_list,
        latency=latency.as_arrays(cols.n),
        energy=energy.as_arrays(cols.n),
        bits_per_value=cols.bits,
        groups=cols.groups,
    )


register_soa_evaluator("TRON", WorkloadKind.TRANSFORMER, evaluate_transformer)
register_soa_evaluator("TRON", WorkloadKind.MLP, evaluate_mlp)
register_soa_evaluator("TRON", WorkloadKind.SUITE, suite_evaluator("TRON"))
