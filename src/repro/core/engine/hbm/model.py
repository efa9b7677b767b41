"""Bank-conflict-aware HBM(-PIM) memory model behind the MemoryModel contract.

:class:`HBMMemoryModel` keeps the analytic model's six-method interface
(`stream_offchip` / `burst_offchip` / `random_offchip` / `bounce_onchip`
/ `weight_stream_cost` / `feature_sweep_cost`) but derives off-chip cost
from device geometry instead of interface scalars:

- **Sequential traffic** interleaves bursts round-robin over channels;
  each channel opens a row (ACT, paying tRCD), streams
  ``bursts_per_row`` bursts, and — as long as a row's worth of bursts
  covers the row cycle — hides the next activate behind another bank.
  Refresh steals ``tRFC/tREFI`` of every transfer.
- **Scattered traffic** pays one ACT per burst; the four-activate
  window then paces issue at ``max(tBURST, tFAW/4, row-cycle/banks)``
  per access, and row energy is charged per burst instead of per row —
  the emergent form of the analytic ``random_access_penalty``.
- The **thermal derate** is applied at the device level: DRAM command
  timing stretches by ``1/hbm_derate``, and only then races the on-chip
  buffer (the analytic model derates the post-``max`` latency instead;
  the differential suite bounds the difference).

The costing path is **closed form**: per-channel burst counts, row-open
boundaries and refresh steal are segment arithmetic over the geometry,
never a per-burst walk.  A per-burst reference oracle in the test tree
(``tests/property/hbm_walk.py``) re-derives the same costs by literally
iterating the burst schedule; the property suite pins the closed form
against it (energies to 1e-12 rel, latencies bit-identical).
``*_batch`` variants evaluate whole NumPy columns of byte counts through
the identical float expressions — the SoA sweep path prices HBM traffic
one vector call per model.

Repeated primitives (serving replays, Monte-Carlo signature groups) are
served from the engine's movement-cost memo
(:mod:`repro.core.engine.movement`), keyed on ``(system, geometry,
derate, pattern, bytes)``; tracing models bypass the memo, because a
recorded command stream is a side effect a cache hit would skip.

Composed costs (`weight_stream_cost`, `feature_sweep_cost`,
`overlap_stall_ns`, `bounce_onchip`) are inherited unchanged — they are
arithmetic over the primitives, which is exactly what makes the two
backends differentially comparable.

Example:
    >>> from repro.electronics.memory import MemorySystem
    >>> from repro.core.engine.hbm.geometry import HBMGeometry
    >>> model = HBMMemoryModel(MemorySystem(), geometry=HBMGeometry())
    >>> seq = model.burst_offchip(1 << 20)       # 1 MiB, sequential
    >>> rnd = model.random_offchip(1 << 20, 4.0)
    >>> rnd.energy_pj > seq.energy_pj            # scattered pays per-burst ACTs
    True
    >>> model.burst_offchip(0)
    Traffic(energy_pj=0.0, latency_ns=0.0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.engine.hbm.geometry import HBMGeometry
from repro.core.engine.hbm.trace import CommandTrace, DRAMCommand
from repro.core.engine.memory import MemoryModel, Traffic
from repro.core.engine.movement import cached_movement
from repro.errors import ConfigurationError

#: Virtual rows per bank for scattered-address synthesis (2 GiB/channel
#: at the default geometry; only trace addresses depend on it).
ROWS_PER_BANK = 1 << 14

#: Multiplier/increment of the 64-bit LCG that scatters trace addresses.
_LCG_MULT = 2862933555777941757
_LCG_INC = 3037000493
_LCG_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class HBMMemoryModel(MemoryModel):
    """Trace-capable, geometry-derived drop-in for the analytic model.

    Attributes:
        geometry: the device geometry/timing knobs.
        pim: enable near-bank compute (``pim_reduce_cost`` becomes
            available to the accelerators' offload paths).
        trace: command log, populated only when ``geometry.op_trace``.
    """

    geometry: HBMGeometry = field(default_factory=HBMGeometry)
    pim: bool = False
    trace: Optional[CommandTrace] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.geometry.op_trace and self.trace is None:
            object.__setattr__(
                self, "trace", CommandTrace(limit=self.geometry.trace_limit)
            )

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    @property
    def pim_active(self) -> bool:
        """True when near-bank compute offload is available."""
        return self.pim

    @property
    def _tracing(self) -> bool:
        return self.trace is not None and self.geometry.op_trace

    def _burst_split(self, num_bytes: int) -> Tuple[int, int, int]:
        """(total bursts, per-channel base, remainder) of a transfer."""
        total = math.ceil(num_bytes / self.geometry.burst_bytes)
        channels = self.system.hbm.channels
        return total, total // channels, total % channels

    def _sequential_acts(self, num_bytes: int) -> int:
        """ACT count of a sequential transfer (one per row per channel)."""
        total, _, _ = self._burst_split(num_bytes)
        return self.geometry.sequential_acts(
            total, self.system.hbm.channels
        )

    def _dram_energy_pj(self, num_bytes: int, acts: int) -> float:
        """I/O energy over the actual bytes + per-ACT row energy."""
        e_bit = self.system.hbm.energy_per_bit_pj
        io = num_bytes * 8 * self.geometry.io_energy_per_bit_pj(e_bit)
        return io + acts * self.geometry.activate_energy_pj(e_bit)

    def _finish_latency(self, device_ns: float) -> float:
        """Refresh overhead + device-level thermal derate."""
        return (
            device_ns
            * (1.0 + self.geometry.refresh_overhead)
            * self._offchip_latency_scale
        )

    def _burst_bytes_at(self, index: int, total: int, num_bytes: int) -> int:
        """Bytes carried by burst ``index`` (the last may be partial)."""
        if index < total - 1:
            return self.geometry.burst_bytes
        return num_bytes - (total - 1) * self.geometry.burst_bytes

    def _row_gap_ns(self, tburst: float) -> float:
        """Per-row-switch stall left after bank interleave hides ACTs."""
        geo = self.geometry
        return max(
            0.0, (geo.trcd_ns + geo.trp_ns) - geo.bursts_per_row * tburst
        )

    def _movement(
        self, pattern: str, num_bytes: int, compute: Callable[[], Traffic]
    ) -> Traffic:
        """``compute()`` through the movement memo (bypassed while
        tracing — a cache hit would skip the command-log side effect)."""
        if self._tracing:
            return compute()
        key = (
            self.system,
            self.geometry,
            self._offchip_latency_scale,
            pattern,
            num_bytes,
        )
        return cached_movement(key, compute)

    # ------------------------------------------------------------------
    # Lazy trace synthesis (closed-form counts now, commands on demand)
    # ------------------------------------------------------------------

    def _synthesize_sequential(
        self, num_bytes: int, total: int, op: str
    ) -> List[DRAMCommand]:
        """The per-burst command stream of a sequential transfer."""
        geo = self.geometry
        channels = self.system.hbm.channels
        e_bit = self.system.hbm.energy_per_bit_pj
        io_bit = geo.io_energy_per_bit_pj(e_bit)
        act_pj = geo.activate_energy_pj(e_bit)
        commands: List[DRAMCommand] = []
        open_rows = {}
        for i in range(total):
            ch = i % channels
            within = i // channels
            row_ordinal = within // geo.bursts_per_row
            bank = row_ordinal % geo.banks_per_channel
            group = bank // geo.banks_per_group
            bank_in_group = bank % geo.banks_per_group
            row = row_ordinal // geo.banks_per_channel
            if open_rows.get(ch) != row_ordinal:
                if ch in open_rows:
                    prev = open_rows[ch]
                    pbank = prev % geo.banks_per_channel
                    commands.append(DRAMCommand(
                        "PRE", ch, pbank // geo.banks_per_group,
                        pbank % geo.banks_per_group,
                        prev // geo.banks_per_channel, 0, 0.0,
                    ))
                open_rows[ch] = row_ordinal
                commands.append(DRAMCommand(
                    "ACT", ch, group, bank_in_group, row, 0, act_pj
                ))
            nbytes = self._burst_bytes_at(i, total, num_bytes)
            commands.append(DRAMCommand(
                op, ch, group, bank_in_group, row, nbytes,
                nbytes * 8 * io_bit,
            ))
        for ch, row_ordinal in sorted(open_rows.items()):
            bank = row_ordinal % geo.banks_per_channel
            commands.append(DRAMCommand(
                "PRE", ch, bank // geo.banks_per_group,
                bank % geo.banks_per_group,
                row_ordinal // geo.banks_per_channel, 0, 0.0,
            ))
        return commands

    def _synthesize_scattered(
        self, num_bytes: int, total: int
    ) -> List[DRAMCommand]:
        """The per-burst command stream of a scattered transfer.

        The LCG address scatter and ``ROWS_PER_BANK`` bookkeeping live
        only here — deferred synthesis means they never run on the
        costing path, even with tracing enabled, until the trace is
        actually read.
        """
        geo = self.geometry
        channels = self.system.hbm.channels
        e_bit = self.system.hbm.energy_per_bit_pj
        io_bit = geo.io_energy_per_bit_pj(e_bit)
        act_pj = geo.activate_energy_pj(e_bit)
        seed = 0 if self.context is None else self.context.seed
        state = (seed * _LCG_MULT + _LCG_INC) & _LCG_MASK
        commands: List[DRAMCommand] = []
        for i in range(total):
            state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
            ch = i % channels
            bank = (state >> 33) % geo.banks_per_channel
            group = bank // geo.banks_per_group
            bank_in_group = bank % geo.banks_per_group
            row = (state >> 13) % ROWS_PER_BANK
            nbytes = self._burst_bytes_at(i, total, num_bytes)
            commands.append(DRAMCommand(
                "ACT", ch, group, bank_in_group, row, 0, act_pj
            ))
            commands.append(DRAMCommand(
                "RD", ch, group, bank_in_group, row, nbytes,
                nbytes * 8 * io_bit,
            ))
            commands.append(DRAMCommand(
                "PRE", ch, group, bank_in_group, row, 0, 0.0
            ))
        return commands

    def _record_sequential(
        self, num_bytes: int, total: int, op: str
    ) -> None:
        count = self.geometry.sequential_command_count(
            total, self.system.hbm.channels
        )
        self.trace.defer(
            count, lambda: self._synthesize_sequential(num_bytes, total, op)
        )

    def _record_scattered(self, num_bytes: int, total: int) -> None:
        count = self.geometry.scattered_command_count(total)
        self.trace.defer(
            count, lambda: self._synthesize_scattered(num_bytes, total)
        )

    # ------------------------------------------------------------------
    # Primitive traffic patterns (the overridden contract)
    # ------------------------------------------------------------------

    def _sequential_dram(self, num_bytes: int, op: str) -> Traffic:
        """DRAM-side cost of a sequential transfer (no on-chip buffer)."""
        if num_bytes < 0:
            raise ConfigurationError(
                f"byte count must be >= 0, got {num_bytes}"
            )
        if num_bytes == 0:
            return Traffic(0.0, 0.0)
        geo = self.geometry
        total, base, rem = self._burst_split(num_bytes)
        acts = self._sequential_acts(num_bytes)
        energy = self._dram_energy_pj(num_bytes, acts)
        tburst = geo.tburst_ns(self.system.hbm.bandwidth_gbps)
        bursts_max = base + (1 if rem else 0)
        rows_max = math.ceil(bursts_max / geo.bursts_per_row)
        # Row switches hide behind bank interleave unless a row streams
        # faster than its cycle time; any residue stalls the channel.
        row_gap = self._row_gap_ns(tburst)
        device_ns = (
            geo.trcd_ns
            + bursts_max * tburst
            + max(rows_max - 1, 0) * row_gap
        )
        if self._tracing:
            self._record_sequential(num_bytes, total, op)
        return Traffic(energy, self._finish_latency(device_ns))

    def _stream_compute(self, num_bytes: int) -> Traffic:
        dram = self._sequential_dram(num_bytes, "RD")
        if num_bytes == 0:
            return dram
        buffer = self.system.global_buffer
        energy = dram.energy_pj + buffer.transfer_energy_pj(
            num_bytes, write=True
        )
        latency = max(dram.latency_ns, buffer.transfer_latency_ns(num_bytes))
        return Traffic(energy, latency)

    def stream_offchip(self, num_bytes: int) -> Traffic:
        """HBM -> global buffer streaming (weights into residence)."""
        return self._movement(
            "stream", num_bytes, lambda: self._stream_compute(num_bytes)
        )

    def burst_offchip(self, num_bytes: int) -> Traffic:
        """Sequential HBM burst, bank-interleaved across channels."""
        return self._movement(
            "seq-rd", num_bytes,
            lambda: self._sequential_dram(num_bytes, "RD"),
        )

    def store_offchip(self, num_bytes: int) -> Traffic:
        """Sequential HBM writeback (WR bursts; same timing as reads)."""
        return self._movement(
            "seq-wr", num_bytes,
            lambda: self._sequential_dram(num_bytes, "WR"),
        )

    def _random_compute(self, num_bytes: int) -> Traffic:
        if num_bytes == 0:
            return Traffic(0.0, 0.0)
        geo = self.geometry
        total, base, rem = self._burst_split(num_bytes)
        energy = self._dram_energy_pj(num_bytes, total)
        slot = geo.random_slot_ns(self.system.hbm.bandwidth_gbps)
        bursts_max = base + (1 if rem else 0)
        device_ns = geo.trcd_ns + bursts_max * slot
        if self._tracing:
            self._record_scattered(num_bytes, total)
        return Traffic(energy, self._finish_latency(device_ns))

    def random_offchip(self, num_bytes: int, penalty: float) -> Traffic:
        """Scattered accesses: one ACT per burst, tFAW-paced issue.

        The ``penalty`` argument is validated for contract compatibility
        but the conflict cost is emergent from the geometry (per-burst
        row activation energy, four-activate-window issue pacing) — it
        therefore does not key the movement memo.
        """
        if penalty < 1.0:
            raise ConfigurationError(
                f"random access penalty must be >= 1, got {penalty}"
            )
        if num_bytes < 0:
            raise ConfigurationError(
                f"byte count must be >= 0, got {num_bytes}"
            )
        return self._movement(
            "random", num_bytes, lambda: self._random_compute(num_bytes)
        )

    # ------------------------------------------------------------------
    # Vectorized batch evaluators (whole columns of byte counts)
    # ------------------------------------------------------------------

    def _sequential_batch(
        self, num_bytes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(energy, latency) columns of sequential transfers.

        Elementwise the *same* float expressions as the scalar path —
        the parity suite pins bit-identity per element.
        """
        nb = np.asarray(num_bytes, dtype=np.int64)
        geo = self.geometry
        channels = self.system.hbm.channels
        total = np.ceil(nb / geo.burst_bytes).astype(np.int64)
        base = total // channels
        rem = total % channels
        bpr = geo.bursts_per_row
        acts = rem * np.ceil((base + 1) / bpr).astype(np.int64) + (
            channels - rem
        ) * np.ceil(base / bpr).astype(np.int64)
        e_bit = self.system.hbm.energy_per_bit_pj
        energy = nb * 8 * geo.io_energy_per_bit_pj(
            e_bit
        ) + acts * geo.activate_energy_pj(e_bit)
        tburst = geo.tburst_ns(self.system.hbm.bandwidth_gbps)
        bursts_max = base + (rem > 0)
        rows_max = np.ceil(bursts_max / bpr).astype(np.int64)
        row_gap = self._row_gap_ns(tburst)
        device_ns = (
            geo.trcd_ns
            + bursts_max * tburst
            + np.maximum(rows_max - 1, 0) * row_gap
        )
        latency = (
            device_ns
            * (1.0 + geo.refresh_overhead)
            * self._offchip_latency_scale
        )
        zero = nb == 0
        return np.where(zero, 0.0, energy), np.where(zero, 0.0, latency)

    def stream_offchip_batch(
        self, num_bytes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``stream_offchip`` over a whole column of byte counts."""
        nb = np.asarray(num_bytes, dtype=np.int64)
        dram_e, dram_l = self._sequential_batch(nb)
        buffer_e, buffer_l = self._buffer_batch(nb, write=True)
        zero = nb == 0
        energy = np.where(zero, 0.0, dram_e + buffer_e)
        latency = np.where(zero, 0.0, np.maximum(dram_l, buffer_l))
        return energy, latency

    def burst_offchip_batch(
        self, num_bytes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``burst_offchip`` over a whole column of byte counts."""
        return self._sequential_batch(num_bytes)

    def store_offchip_batch(
        self, num_bytes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``store_offchip`` over a whole column (same timing as reads)."""
        return self._sequential_batch(num_bytes)

    def random_offchip_batch(
        self, num_bytes: np.ndarray, penalty: object = 1.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``random_offchip`` over a whole column of byte counts."""
        pen = np.asarray(penalty, dtype=float)
        if np.any(pen < 1.0):
            bad = float(np.min(pen))
            raise ConfigurationError(
                f"random access penalty must be >= 1, got {bad}"
            )
        nb = np.asarray(num_bytes, dtype=np.int64)
        geo = self.geometry
        channels = self.system.hbm.channels
        total = np.ceil(nb / geo.burst_bytes).astype(np.int64)
        base = total // channels
        rem = total % channels
        e_bit = self.system.hbm.energy_per_bit_pj
        energy = nb * 8 * geo.io_energy_per_bit_pj(
            e_bit
        ) + total * geo.activate_energy_pj(e_bit)
        slot = geo.random_slot_ns(self.system.hbm.bandwidth_gbps)
        bursts_max = base + (rem > 0)
        device_ns = geo.trcd_ns + bursts_max * slot
        latency = (
            device_ns
            * (1.0 + geo.refresh_overhead)
            * self._offchip_latency_scale
        )
        zero = nb == 0
        return np.where(zero, 0.0, energy), np.where(zero, 0.0, latency)

    # ------------------------------------------------------------------
    # Near-bank compute (PIM mode)
    # ------------------------------------------------------------------

    def pim_reduce_cost(
        self, in_bank_bytes: int, out_bytes: int, macs: int
    ) -> Traffic:
        """Cost of reducing ``in_bank_bytes`` near the banks.

        Inputs are read inside the device (no interface crossing —
        cheaper per bit, and all banks stream concurrently so the
        aggregate in-bank bandwidth exceeds the interface by
        ``pim_bandwidth_scale``); ``macs`` multiply-accumulates run on
        the near-bank units; only ``out_bytes`` of results cross the
        interface into the global buffer.
        """
        if not self.pim:
            raise ConfigurationError(
                "pim_reduce_cost requires the hbm-pim backend"
            )
        if min(in_bank_bytes, out_bytes, macs) < 0:
            raise ConfigurationError(
                "pim_reduce_cost arguments must be >= 0, got "
                f"({in_bank_bytes}, {out_bytes}, {macs})"
            )
        geo = self.geometry
        hbm = self.system.hbm
        read_pj = (
            in_bank_bytes * 8 * hbm.energy_per_bit_pj
            * geo.pim_read_energy_fraction
        )
        mac_pj = macs * geo.pim_mac_energy_pj
        read_ns = self._finish_latency(
            in_bank_bytes * 8
            / (hbm.total_bandwidth_gbps * geo.pim_bandwidth_scale)
        )
        total_banks = geo.banks_per_channel * hbm.channels
        mac_ns = macs / (geo.pim_macs_per_bank_per_ns * total_banks)
        out = self.stream_offchip(out_bytes)
        return Traffic(
            read_pj + mac_pj + out.energy_pj,
            max(read_ns, mac_ns) + out.latency_ns,
        )
