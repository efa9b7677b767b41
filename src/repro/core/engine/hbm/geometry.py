"""HBM(-PIM) device geometry: the knobs behind the trace-driven backend.

The analytic :class:`~repro.electronics.memory.HBMChannel` describes the
interface (aggregate bandwidth, energy per bit).  :class:`HBMGeometry`
describes the device *behind* that interface — the channel → bankgroup →
bank hierarchy of an HBM stack (the HBM-PIMulator shape), row-buffer
organization, and the DRAM timing constants that make sequential bursts
cheap and scattered accesses expensive:

- ``trcd_ns`` / ``trp_ns`` — row activate and precharge delays; a
  row-buffer miss pays both before its first burst.
- ``tfaw_ns`` — the four-activate window: at most four ACT commands may
  issue per window per channel, which is what throttles row-miss-heavy
  (irregular) access streams long before the data bus saturates.
- ``refresh_cycle_ns`` / ``refresh_interval_ns`` — every tREFI the
  device is unavailable for tRFC; the ratio is charged as a latency
  overhead on every transfer.

Energy calibration is anchored to the interface figure: a full-row
sequential stream costs exactly ``energy_per_bit_pj`` per bit, split
``activate_energy_fraction`` into the ACT command and the rest into the
per-burst I/O — so scattered streams (one ACT per burst instead of one
per row) naturally pay the row-activation premium the analytic model
approximates with its scalar ``random_access_penalty``.

Example:
    >>> geo = HBMGeometry()
    >>> geo.banks_per_channel
    16
    >>> geo.bursts_per_row
    32
    >>> round(geo.tburst_ns(128.0), 3)   # 32 B over a 128 Gb/s channel
    2.0
    >>> round(geo.refresh_overhead, 3)
    0.09
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.serialization import check_limits
from repro.errors import ConfigurationError

#: The JEDEC four-activate window admits this many ACTs per channel.
ACTIVATES_PER_WINDOW = 4


@dataclass(frozen=True)
class HBMGeometry:
    """Bank/bankgroup geometry, DRAM timing, and PIM knobs of one stack.

    Attributes:
        bankgroups: bank groups per channel.
        banks_per_group: banks per bank group.
        row_bytes: row-buffer (page) size per bank.
        burst_bytes: bytes moved by one RD/WR burst.
        trcd_ns: ACT-to-column-command delay (row activate).
        trp_ns: precharge delay (closing a row).
        tfaw_ns: rolling four-activate window.
        refresh_interval_ns: tREFI — mean spacing of refresh commands.
        refresh_cycle_ns: tRFC — bank-unavailable time per refresh.
        activate_energy_fraction: share of the interface energy-per-bit
            budget attributed to row activation on a full-row stream
            (the rest is per-burst I/O + array column access).
        op_trace: record the DRAM command stream (ACT/RD/WR/PRE with
            per-command energy) while costing traffic.
        trace_limit: hard bound on recorded commands per model instance
            (tracing a BERT-scale weight stream is an error, not an
            out-of-memory surprise).
        pim_read_energy_fraction: energy of an in-bank (near-PIM) read
            relative to a full interface transfer of the same bits.
        pim_bandwidth_scale: aggregate in-bank read bandwidth of the
            near-bank compute units relative to the interface bandwidth
            (all banks stream their arrays concurrently).
        pim_mac_energy_pj: energy of one near-bank 8-bit MAC.
        pim_macs_per_bank_per_ns: near-bank compute throughput.

    Example:
        >>> HBMGeometry(row_bytes=100)
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: hbm.row_bytes (100) must be a multiple of hbm.burst_bytes (32)
    """

    bankgroups: int = 4
    banks_per_group: int = 4
    row_bytes: int = 1024
    burst_bytes: int = 32
    trcd_ns: float = 14.0
    trp_ns: float = 14.0
    tfaw_ns: float = 30.0
    refresh_interval_ns: float = 3900.0
    refresh_cycle_ns: float = 351.0
    activate_energy_fraction: float = 0.1
    op_trace: bool = False
    trace_limit: int = 1_000_000
    pim_read_energy_fraction: float = 0.3
    pim_bandwidth_scale: float = 4.0
    pim_mac_energy_pj: float = 0.25
    pim_macs_per_bank_per_ns: float = 16.0

    LIMITS = {
        "bankgroups": ">= 1",
        "banks_per_group": ">= 1",
        "row_bytes": ">= 1",
        "burst_bytes": ">= 1",
        "trcd_ns": "> 0",
        "trp_ns": "> 0",
        "tfaw_ns": "> 0",
        "refresh_interval_ns": "> 0",
        "refresh_cycle_ns": "> 0",
        "activate_energy_fraction": "(0, 1)",
        "trace_limit": ">= 1",
        "pim_read_energy_fraction": "(0, 1)",
        "pim_bandwidth_scale": "> 0",
        "pim_mac_energy_pj": ">= 0",
        "pim_macs_per_bank_per_ns": "> 0",
    }

    def __post_init__(self) -> None:
        check_limits(self)
        if self.row_bytes % self.burst_bytes != 0:
            raise ConfigurationError(
                f"hbm.row_bytes ({self.row_bytes}) must be a multiple of "
                f"hbm.burst_bytes ({self.burst_bytes})"
            )
        if self.refresh_cycle_ns >= self.refresh_interval_ns:
            raise ConfigurationError(
                "hbm.refresh_cycle_ns must be < hbm.refresh_interval_ns "
                f"(got {self.refresh_cycle_ns} >= {self.refresh_interval_ns})"
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------

    @property
    def banks_per_channel(self) -> int:
        """Independent banks one channel can keep in flight."""
        return self.bankgroups * self.banks_per_group

    @property
    def bursts_per_row(self) -> int:
        """RD/WR bursts one open row serves before the next ACT."""
        return self.row_bytes // self.burst_bytes

    @property
    def refresh_overhead(self) -> float:
        """Fraction of device time lost to refresh (tRFC / tREFI)."""
        return self.refresh_cycle_ns / self.refresh_interval_ns

    # ------------------------------------------------------------------
    # Closed-form segment arithmetic (shared by the costing path, the
    # eager trace-limit check, and the vectorized batch evaluators)
    # ------------------------------------------------------------------

    def sequential_acts(self, total_bursts: int, channels: int) -> int:
        """ACT count of a round-robin sequential transfer.

        ``rem`` channels carry ``base + 1`` bursts, the rest ``base``;
        each channel opens one row per started ``bursts_per_row`` run.

        Example:
            >>> HBMGeometry().sequential_acts(total_bursts=33, channels=8)
            8
        """
        base, rem = divmod(total_bursts, channels)
        bpr = self.bursts_per_row
        return rem * math.ceil((base + 1) / bpr) + (channels - rem) * (
            math.ceil(base / bpr)
        )

    def sequential_command_count(
        self, total_bursts: int, channels: int
    ) -> int:
        """Commands a traced sequential transfer synthesizes.

        One RD/WR per burst plus an ACT *and* a PRE per opened row
        (every activate is eventually precharged) — known in closed form
        before any command exists, which is what keeps the trace limit
        eager under lazy synthesis.

        Example:
            >>> HBMGeometry().sequential_command_count(33, channels=8)
            49
        """
        return total_bursts + 2 * self.sequential_acts(
            total_bursts, channels
        )

    def scattered_command_count(self, total_bursts: int) -> int:
        """Commands a traced scattered transfer synthesizes (ACT + RD +
        PRE per burst)."""
        return 3 * total_bursts

    # ------------------------------------------------------------------
    # Derived timing/energy (anchored to the interface model)
    # ------------------------------------------------------------------

    def tburst_ns(self, channel_bandwidth_gbps: float) -> float:
        """Data-bus occupancy of one burst on one channel."""
        return self.burst_bytes * 8.0 / channel_bandwidth_gbps

    def random_slot_ns(self, channel_bandwidth_gbps: float) -> float:
        """Issue slot of one row-miss access on one channel.

        Scattered accesses need one ACT each, so the four-activate
        window (not the data bus) usually sets the pace; with enough
        banks the row cycle itself pipelines away.

        Example:
            >>> HBMGeometry().random_slot_ns(128.0)   # tFAW/4 = 7.5 ns
            7.5
        """
        bank_cycle = self.trcd_ns + self.trp_ns + self.tburst_ns(
            channel_bandwidth_gbps
        )
        return max(
            self.tburst_ns(channel_bandwidth_gbps),
            self.tfaw_ns / ACTIVATES_PER_WINDOW,
            bank_cycle / self.banks_per_channel,
        )

    def io_energy_per_bit_pj(self, energy_per_bit_pj: float) -> float:
        """Per-bit I/O + column-access energy of a RD/WR burst."""
        return (1.0 - self.activate_energy_fraction) * energy_per_bit_pj

    def activate_energy_pj(self, energy_per_bit_pj: float) -> float:
        """Energy of one ACT command (whole-row wordline + sense).

        Calibrated so a full-row sequential stream lands exactly on the
        interface figure: ``row_bits * energy_per_bit``.
        """
        return (
            self.activate_energy_fraction
            * energy_per_bit_pj
            * self.row_bytes
            * 8.0
        )
