"""Array-resident (structure-of-arrays) GHOST cost evaluators.

Transcribes the scalar GNN cost path
(:mod:`repro.core.ghost.accelerator`, :mod:`~repro.core.ghost.aggregate`,
:mod:`~repro.core.ghost.combine`, :mod:`~repro.core.ghost.update`) into
per-point NumPy columns, operation for operation, so a materialized
point is bit-identical to ``GHOST(config).run(workload, ctx=ctx)``.

The expensive per-point structures of the scalar path collapse into
grouped scalar computations:

- degree-dependent aggregation latency reduces, for the default
  balanced schedule, to one precomputed head-sum per (edge units,
  lanes) pair — sorted-descending wave maxima are the wave heads, so
  the whole wave reduction is a strided sum over the sorted neighbour
  passes, scaled by the layer's feature-pass count;
- coherent-summer / comparator energies, memory traffic and softmax
  LUT curves run once per distinct device group and broadcast;
- only the integer tiling arithmetic (exact ceiling divisions) and the
  float accumulation chain run per point.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

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
from repro.core.ghost.config import GHOSTConfig
from repro.core.reports import StackedRunReports
from repro.errors import ConfigurationError
from repro.nn.counting import gnn_layer_op_count, gnn_op_count
from repro.nn.gnn import Reduction
from repro.photonics.summation import CoherentSummationUnit, OpticalComparator


class _GhostColumns:
    """Per-point knob columns plus grouped physics for a GHOST batch."""

    def __init__(
        self,
        configs: Sequence[GHOSTConfig],
        contexts: Sequence[Optional[ExecutionContext]],
    ) -> None:
        self.configs = configs
        self.contexts = contexts
        self.n = len(configs)
        self.specs = [
            ArraySpec.from_config(
                cfg, weight_dacs_shared=cfg.weight_dac_sharing
            )
            for cfg in configs
        ]
        self.usable_rows, self.usable_cols, correction = resolve_array_physics(
            self.specs, contexts
        )
        self.cycle_ns = np.array([cfg.cycle_ns for cfg in configs])
        self.lanes = np.array([cfg.lanes for cfg in configs], dtype=np.int64)
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
        """Per-point cycles for one vertex/sample transform
        (``ArrayExecutor.cycles_for`` with batch=1)."""
        if out_rows < 1 or inner < 1:
            raise ConfigurationError(
                f"matmul dims must be >= 1, got {out_rows}x{inner}"
            )
        return ceil_div(out_rows, self.usable_rows) * ceil_div(
            inner, self.usable_cols
        )

    def ops_per_point(self, count) -> list:
        ops_list: list = [None] * self.n
        for bits, indices in group_indices(self.bits).items():
            ops = count(bits)
            for i in indices:
                ops_list[i] = ops
        return ops_list


class _AggregateColumns:
    """Grouped aggregate-block state over one graph.

    Degree arithmetic is shared across layers: neighbour-pass counts per
    distinct edge-unit width, their descending sort, and per (edge
    units, lanes) the sum of wave-head passes — the exact value of the
    scalar path's wave-max reduction for the balanced schedule, since a
    descending wave's maximum is its first element and all quantities
    are exact small integers.
    """

    def __init__(self, cols: _GhostColumns, degrees: np.ndarray) -> None:
        self.cols = cols
        self.degrees = degrees
        self.degree_sum = int(degrees.sum())
        self.num_nodes = len(degrees)
        self._neighbour_passes: Dict[int, np.ndarray] = {}
        self._sorted_passes: Dict[int, np.ndarray] = {}
        self._head_sums: Dict[Tuple[int, int], int] = {}
        self.latency_keys = [
            (
                cfg.edge_units,
                cfg.feature_lanes,
                cfg.lanes,
                cfg.use_balancing,
            )
            for cfg in cols.configs
        ]
        self.energy_keys = [
            (
                cfg.edge_units,
                cfg.feature_lanes,
                cfg.clock_ghz,
                cfg.dac,
                cfg.adc,
            )
            for cfg in cols.configs
        ]

    def neighbour_passes(self, edge_units: int) -> np.ndarray:
        passes = self._neighbour_passes.get(edge_units)
        if passes is None:
            passes = -(-self.degrees // edge_units)
            self._neighbour_passes[edge_units] = passes
        return passes

    def head_sum(self, edge_units: int, lanes: int) -> int:
        """Sum over waves of the largest neighbour-pass count per wave,
        for the descending (balanced) schedule."""
        key = (edge_units, lanes)
        total = self._head_sums.get(key)
        if total is None:
            sorted_passes = self._sorted_passes.get(edge_units)
            if sorted_passes is None:
                sorted_passes = np.sort(self.neighbour_passes(edge_units))[
                    ::-1
                ]
                self._sorted_passes[edge_units] = sorted_passes
            total = int(sorted_passes[::lanes].sum())
            self._head_sums[key] = total
        return total

    def latency_cycles(self, feature_dim: int) -> np.ndarray:
        """``AggregateBlock.layer_cost`` latency cycles, per point."""
        out = np.empty(self.cols.n)
        for (
            (edge_units, feature_lanes, lanes, balanced),
            indices,
        ) in group_indices(self.latency_keys).items():
            feature_passes = -(-feature_dim // feature_lanes)
            if balanced:
                cycles = float(
                    self.head_sum(edge_units, lanes) * feature_passes
                )
            else:
                per_node = np.where(
                    self.degrees > 0,
                    self.neighbour_passes(edge_units) * feature_passes,
                    0,
                ).astype(float)
                num_waves = -(-len(per_node) // lanes)
                padded = np.zeros(num_waves * lanes)
                padded[: len(per_node)] = per_node
                cycles = float(
                    padded.reshape(num_waves, lanes).max(axis=1).sum()
                )
            out[indices] = cycles
        return out

    def energy_columns(
        self, feature_dim: int, reduction: Reduction
    ) -> ColumnEnergy:
        """``AggregateBlock.layer_cost`` energy, per point."""
        laser = np.empty(self.cols.n)
        gather = np.empty(self.cols.n)
        for (
            (edge_units, feature_lanes, clock_ghz, dac, adc),
            indices,
        ) in group_indices(self.energy_keys).items():
            feature_passes = math.ceil(feature_dim / feature_lanes)
            total_arm_ops = self.degree_sum * feature_passes
            summer = CoherentSummationUnit(
                fan_in=edge_units, clock_ghz=clock_ghz, dac=dac, adc=adc
            )
            per_arm_pj = summer.operation_energy_pj(active_arms=1)
            if reduction is Reduction.MAX:
                comparator = OpticalComparator(
                    fan_in=edge_units, clock_ghz=clock_ghz
                )
                reduce_pj = total_arm_ops * (
                    per_arm_pj + comparator.operation_energy_pj()
                    / max(edge_units, 1)
                )
            else:
                reduce_pj = total_arm_ops * per_arm_pj
            laser[indices] = reduce_pj
            gather[indices] = (
                float(self.degree_sum)
                * feature_dim
                * dac.energy_per_conversion_pj
            )
        return ColumnEnergy(laser_pj=laser, dac_pj=gather)


def _softmax_columns(
    cols: _GhostColumns, elements: int
) -> Tuple[np.ndarray, np.ndarray]:
    latency = np.empty(cols.n)
    energy = np.empty(cols.n)
    for lut, indices in group_indices(
        [cfg.softmax for cfg in cols.configs]
    ).items():
        latency[indices] = lut.latency_ns(elements)
        energy[indices] = lut.energy_pj(elements)
    return latency, energy


def _memory_cost_columns(
    cols: _GhostColumns, graph, feature_dim: int, out_dim: int
) -> Tuple[ColumnEnergy, ColumnLatency]:
    """``GHOST._memory_cost`` / ``GHOST._pim_memory_cost`` per point
    (traffic once per distinct memory group).

    PIM-backed groups transcribe the scalar ``_pim_memory_cost``:
    features and edge indices are reduced near the banks and only the
    layer's results bounce through the global buffer.
    """
    memory_pj = np.empty(cols.n)
    memory_ns = np.empty(cols.n)
    keys = [
        (
            cfg.memory,
            cfg.bits,
            cfg.use_partitioning,
            cfg.random_access_penalty,
            memory_context_key(ctx),
            cfg.memory_backend,
            cfg.hbm,
        )
        for cfg, ctx in zip(cols.configs, cols.contexts)
    ]
    for (
        (memory, bits, partitioned, penalty, mem_ctx, backend, geometry),
        indices,
    ) in group_indices(keys).items():
        bytes_per_value = bits // 8 or 1
        model = build_soa_memory_model(backend, memory, mem_ctx, geometry)
        if getattr(model, "pim_active", False):
            feature_bytes = graph.num_nodes * feature_dim * bytes_per_value
            reduce = model.pim_reduce_cost(
                in_bank_bytes=feature_bytes + 4 * graph.num_edges,
                out_bytes=feature_bytes,
                macs=graph.num_edges * feature_dim,
            )
            writeback = model.bounce_onchip(
                graph.num_nodes * out_dim * bytes_per_value
            )
            memory_pj[indices] = reduce.energy_pj + writeback.energy_pj
            memory_ns[indices] = reduce.latency_ns + writeback.latency_ns
            continue
        if partitioned:
            accumulator_bytes = graph.num_nodes * out_dim * bytes_per_value
            panels = max(
                1,
                -(-accumulator_bytes // memory.global_buffer.capacity_bytes),
            )
            sweep_bytes = (
                panels * graph.num_nodes * feature_dim * bytes_per_value
            )
        else:
            sweep_bytes = graph.num_edges * feature_dim * bytes_per_value
        energy, latency = model.feature_sweep_cost(
            sweep_bytes=sweep_bytes,
            index_bytes=4 * graph.num_edges,
            writeback_bytes=graph.num_nodes * out_dim * bytes_per_value,
            blocked=partitioned,
            random_access_penalty=penalty,
        )
        memory_pj[indices] = energy.memory_pj
        memory_ns[indices] = latency.memory_ns
    return (
        ColumnEnergy(memory_pj=memory_pj),
        ColumnLatency(memory_ns=memory_ns),
    )


def evaluate_gnn(
    configs: Sequence[GHOSTConfig],
    contexts: Sequence[Optional[ExecutionContext]],
    workload,
) -> StackedRunReports:
    """``GHOST.run_gnn`` over a whole configuration batch."""
    model = workload.model_config
    graph = workload.graph
    if graph.num_nodes < 1:
        raise ConfigurationError("graph must have at least one node")
    cols = _GhostColumns(configs, contexts)
    aggregate = _AggregateColumns(cols, graph.degrees().astype(int))
    # PIM-backed points run the gather near the banks: no aggregate
    # stage on the photonic side (its energy is zero and its latency
    # leaves the stage pipeline) — both pipeline variants are evaluated
    # as columns and selected per point, matching the scalar branch.
    pim_mask = np.fromiter(
        (cfg.memory_backend == "hbm-pim" for cfg in configs),
        dtype=bool,
        count=cols.n,
    )

    total_latency = ColumnLatency()
    total_energy = ColumnEnergy()
    for layer_idx, (d_in, d_out) in enumerate(model.layer_dims()):
        agg_ns = aggregate.latency_cycles(d_in) * cols.cycle_ns
        agg_energy = aggregate.energy_columns(d_in, model.reduction)
        if pim_mask.any():
            agg_energy = ColumnEnergy(
                laser_pj=np.where(pim_mask, 0.0, agg_energy.laser_pj),
                dac_pj=np.where(pim_mask, 0.0, agg_energy.dac_pj),
            )

        ops = gnn_layer_op_count(
            model.kind, graph, d_in, d_out, heads=model.heads
        )
        base_macs = graph.num_nodes * d_in * d_out
        extra_macs = max(ops.macs - base_macs, 0)
        per_node = cols.tile_cycles(d_out, d_in)
        waves = np.ceil(graph.num_nodes / cols.lanes)
        macs_per_cycle = cols.usable_rows * cols.usable_cols
        extra_cycles_total = np.ceil(extra_macs / macs_per_cycle)
        extra_cycles_serial = np.ceil(extra_cycles_total / cols.lanes)
        comb_cycles = waves * per_node + extra_cycles_serial
        comb_ns = comb_cycles * cols.cycle_ns
        comb_energy = energy_for_cycles_columns(
            graph.num_nodes * per_node + extra_cycles_total, cols.breakdown
        )

        elements = graph.num_nodes * d_out
        per_wave_elements = cols.lanes * np.array(
            [cfg.feature_lanes for cfg in configs], dtype=np.int64
        )
        update_waves = np.ceil(elements / per_wave_elements)
        update_compute_ns = update_waves * cols.cycle_ns
        soa_pj = elements * cols.activation_power * cols.cycle_ns
        if layer_idx == model.num_layers - 1:
            digital_ns, digital_pj = _softmax_columns(cols, elements)
        else:
            digital_ns = np.zeros(cols.n)
            digital_pj = np.zeros(cols.n)
        update_energy = ColumnEnergy(
            activation_pj=soa_pj, digital_pj=digital_pj
        )

        memory_energy, memory_latency = _memory_cost_columns(
            cols, graph, d_in, d_out
        )

        update_total_ns = update_compute_ns + digital_ns
        stage_sum = (agg_ns + comb_ns) + update_total_ns
        bottleneck = np.maximum(np.maximum(agg_ns, comb_ns), update_total_ns)
        pipelined_ns = bottleneck + 0.1 * (stage_sum - bottleneck)
        if pim_mask.any():
            stage_sum_pim = comb_ns + update_total_ns
            bottleneck_pim = np.maximum(comb_ns, update_total_ns)
            pipelined_ns = np.where(
                pim_mask,
                bottleneck_pim + 0.1 * (stage_sum_pim - bottleneck_pim),
                pipelined_ns,
            )
        stall_ns = np.maximum(memory_latency.memory_ns - pipelined_ns, 0.0)
        total_latency = total_latency + ColumnLatency(
            compute_ns=pipelined_ns,
            memory_ns=stall_ns,
            digital_ns=digital_ns,
        )
        total_energy = (
            total_energy
            + agg_energy
            + comb_energy
            + update_energy
            + memory_energy
        )

    static_pj = cols.static_mw * total_latency.total
    total_energy = total_energy + ColumnEnergy(static_pj=static_pj)
    ops_list = cols.ops_per_point(
        lambda bits: gnn_op_count(model, graph, bytes_per_value=bits // 8 or 1)
    )
    return StackedRunReports(
        platform="GHOST",
        workload=workload.name,
        ops=ops_list,
        latency=total_latency.as_arrays(cols.n),
        energy=total_energy.as_arrays(cols.n),
        bits_per_value=cols.bits,
        groups=cols.groups,
    )


def evaluate_mlp(
    configs: Sequence[GHOSTConfig],
    contexts: Sequence[Optional[ExecutionContext]],
    workload,
) -> StackedRunReports:
    """``GHOST.run_mlp`` over a whole configuration batch."""
    cols = _GhostColumns(configs, contexts)
    samples = workload.samples
    dims = list(workload.layer_dims)
    total_cycles = np.zeros(cols.n, dtype=np.int64)
    latency_cycles = np.zeros(cols.n, dtype=np.int64)
    soa_pj: object = 0.0
    for i, (d_in, d_out) in enumerate(dims):
        per_sample = cols.tile_cycles(d_out, d_in)
        latency_cycles = latency_cycles + (
            ceil_div(samples, cols.lanes) * per_sample
        )
        total_cycles = total_cycles + samples * per_sample
        if i < len(dims) - 1:  # hidden activations only
            soa_pj = soa_pj + (
                samples * d_out * cols.activation_power * cols.cycle_ns
            )
    compute_latency = ColumnLatency(
        compute_ns=latency_cycles * cols.cycle_ns
    )
    compute_energy = energy_for_cycles_columns(
        total_cycles, cols.breakdown
    ) + ColumnEnergy(activation_pj=soa_pj)

    ops_list = cols.ops_per_point(
        lambda bits: workload.op_count(bytes_per_value=bits // 8 or 1)
    )
    memory_energy, memory_latency = weight_stream_columns(
        [cfg.memory for cfg in configs],
        contexts,
        ops_list,
        cols.bits,
        compute_latency.total,
        np.ones(cols.n, dtype=np.int64),
        backends=[cfg.memory_backend for cfg in configs],
        geometries=[cfg.hbm for cfg in configs],
    )
    latency = compute_latency + memory_latency
    static_pj = cols.static_mw * latency.total
    energy = (
        compute_energy
        + memory_energy
        + ColumnEnergy(static_pj=static_pj)
    )
    return StackedRunReports(
        platform="GHOST",
        workload=workload.name,
        ops=ops_list,
        latency=latency.as_arrays(cols.n),
        energy=energy.as_arrays(cols.n),
        bits_per_value=cols.bits,
        groups=cols.groups,
    )


register_soa_evaluator("GHOST", WorkloadKind.GNN, evaluate_gnn)
register_soa_evaluator("GHOST", WorkloadKind.MLP, evaluate_mlp)
register_soa_evaluator("GHOST", WorkloadKind.SUITE, suite_evaluator("GHOST"))
