"""Non-volatile optical weight memory (phase-change material cells).

The paper's conclusion names "alternative non-volatile optical memory
cells" as the next step: replacing the DAC + tuning-hold weight path with
a phase-change material (PCM, e.g. GST) patch on each MR.  A PCM cell
holds a multilevel transmission state with **zero static power**; the cost
moves to (expensive, slow, endurance-limited) write pulses.

The trade the model exposes: weight-stationary workloads (GHOST's combine
weights, TRON's long weight-refresh windows) win big — the per-cycle
weight-DAC and tuning-hold terms vanish — while weight-streaming
workloads lose, because every weight update pays a PCM write.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.serialization import check_limits
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PCMCell:
    """A multilevel phase-change optical memory cell on an MR.

    Attributes:
        levels: distinguishable transmission levels (bits = log2(levels));
            published GST demonstrations reach 32-64 levels.
        write_energy_pj: energy of one (re)crystallization write pulse.
        write_latency_ns: write pulse duration (~100 ns class).
        endurance_writes: writes before the cell degrades.
        read_excess_loss_db: extra insertion loss the patch adds to every
            optical pass (absorption of the amorphous/crystalline mix).
    """

    levels: int = 32
    write_energy_pj: float = 18.0
    write_latency_ns: float = 100.0
    endurance_writes: int = 10**9
    read_excess_loss_db: float = 0.05

    LIMITS = {
        "levels": ">= 2",
        "write_energy_pj": "> 0",
        "write_latency_ns": "> 0",
        "endurance_writes": ">= 1",
        "read_excess_loss_db": ">= 0",
    }

    __post_init__ = check_limits

    @property
    def bits(self) -> float:
        """Stored bits per cell."""
        import math

        return math.log2(self.levels)

    def program_energy_pj(self, num_cells: int) -> float:
        """Energy to (re)program a block of cells."""
        if num_cells < 0:
            raise ConfigurationError(f"cell count must be >= 0, got {num_cells}")
        return num_cells * self.write_energy_pj

    def lifetime_reprograms(self, writes_per_second: float) -> float:
        """Seconds of operation before endurance is exhausted."""
        if writes_per_second <= 0.0:
            raise ConfigurationError(
                f"write rate must be > 0, got {writes_per_second}"
            )
        return self.endurance_writes / writes_per_second


@dataclass(frozen=True)
class NonVolatileWeightBank:
    """Cost comparison: PCM weight storage vs. the DAC+tuning baseline.

    Evaluates one MR bank array's *weight path* under both technologies
    for a workload that reuses a weight tile for ``reuse_cycles`` photonic
    cycles before replacing it.
    """

    cell: PCMCell = PCMCell()
    num_weights: int = 4096  # a 64x64 array
    dac_energy_per_conversion_pj: float = 1.8
    tuning_hold_power_mw_per_mr: float = 0.004  # EO hold
    cycle_ns: float = 0.2

    def __post_init__(self) -> None:
        if self.num_weights < 1:
            raise ConfigurationError(
                f"need >= 1 weight, got {self.num_weights}"
            )

    def volatile_energy_pj(self, reuse_cycles: int) -> float:
        """Baseline weight-path energy over one reuse window: one DAC
        refresh plus tuning hold for the window."""
        if reuse_cycles < 1:
            raise ConfigurationError(
                f"reuse window must be >= 1 cycle, got {reuse_cycles}"
            )
        refresh = self.num_weights * self.dac_energy_per_conversion_pj
        hold = (
            self.num_weights
            * self.tuning_hold_power_mw_per_mr
            * self.cycle_ns
            * reuse_cycles
        )
        return refresh + hold

    def pcm_energy_pj(self, reuse_cycles: int) -> float:
        """PCM weight-path energy over one reuse window: one write burst,
        zero static power."""
        if reuse_cycles < 1:
            raise ConfigurationError(
                f"reuse window must be >= 1 cycle, got {reuse_cycles}"
            )
        return self.cell.program_energy_pj(self.num_weights)

    def breakeven_reuse_cycles(self) -> int:
        """Reuse window beyond which PCM wins.

        Solves pcm <= volatile for the smallest integer window; returns 1
        if PCM always wins (it never does with realistic write energies).
        """
        write = self.cell.write_energy_pj
        refresh = self.dac_energy_per_conversion_pj
        hold_per_cycle = self.tuning_hold_power_mw_per_mr * self.cycle_ns
        if write <= refresh:
            return 1
        # write = refresh + hold_per_cycle * n  ->  n
        cycles = (write - refresh) / hold_per_cycle
        return max(int(cycles) + 1, 1)

    def endurance_limited_lifetime_s(self, reuse_cycles: int) -> float:
        """Device lifetime (seconds) if weights are rewritten every reuse
        window back to back."""
        window_s = reuse_cycles * self.cycle_ns * 1e-9
        writes_per_second = 1.0 / window_s
        return self.cell.lifetime_reprograms(writes_per_second)
