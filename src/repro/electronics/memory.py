"""CACTI-substitute memory models: SRAM buffers, eDRAM, HBM channels.

CACTI's headline outputs for an SRAM array are access energy, access
latency and leakage power as functions of capacity, word width and port
count.  Across its own published result tables these follow well-known
scaling laws (Thoziyoor et al., "CACTI 5.1", HP Labs tech report):

- access energy grows ~ sqrt(capacity) (bitline/wordline lengths),
- access latency grows ~ sqrt(capacity) (wire delay dominated),
- leakage grows linearly with capacity.

We anchor those laws at a calibration point taken from published CACTI
32 nm numbers (a 32 KB SRAM: ~20 pJ/access, ~0.6 ns, ~15 mW leakage) and
expose the same interface an architecture model needs.  DESIGN.md
section 1 documents this substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.serialization import check_limits
from repro.errors import ConfigurationError

#: Calibration anchor: a 32 KB, 64-bit wide, single-port SRAM at 32 nm.
_ANCHOR_CAPACITY_BYTES = 32 * 1024
_ANCHOR_ACCESS_ENERGY_PJ = 20.0
_ANCHOR_ACCESS_LATENCY_NS = 0.6
_ANCHOR_LEAKAGE_MW = 1.5
_ANCHOR_WORD_BITS = 64


@dataclass(frozen=True)
class SRAMBuffer:
    """An on-chip SRAM buffer (CACTI-substitute).

    Attributes:
        capacity_bytes: total capacity.
        word_bits: bits transferred per access.
        ports: number of read/write ports (energy and leakage scale with
            port count; latency mildly).
        banks: number of independent banks; banking divides the effective
            capacity seen by each access, reducing energy/latency at the
            cost of slightly more leakage.
    """

    capacity_bytes: int
    word_bits: int = 64
    ports: int = 1
    banks: int = 1

    LIMITS = {
        "capacity_bytes": ">= 64",
        "word_bits": ">= 1",
        "ports": ">= 1",
        "banks": ">= 1",
    }

    def __post_init__(self) -> None:
        check_limits(self)
        if self.banks > self.capacity_bytes // 64:
            raise ConfigurationError(
                f"banks must be in [1, capacity/64], got {self.banks}"
            )

    @property
    def _bank_capacity(self) -> float:
        return self.capacity_bytes / self.banks

    @property
    def read_energy_pj(self) -> float:
        """Energy of one read access."""
        capacity_scale = math.sqrt(self._bank_capacity / _ANCHOR_CAPACITY_BYTES)
        width_scale = self.word_bits / _ANCHOR_WORD_BITS
        port_scale = 1.0 + 0.35 * (self.ports - 1)
        return (
            _ANCHOR_ACCESS_ENERGY_PJ * capacity_scale * width_scale * port_scale
        )

    @property
    def write_energy_pj(self) -> float:
        """Energy of one write access (slightly above read: full bitline swing)."""
        return 1.1 * self.read_energy_pj

    @property
    def access_latency_ns(self) -> float:
        """Latency of one access."""
        capacity_scale = math.sqrt(self._bank_capacity / _ANCHOR_CAPACITY_BYTES)
        port_scale = 1.0 + 0.1 * (self.ports - 1)
        return _ANCHOR_ACCESS_LATENCY_NS * capacity_scale * port_scale

    @property
    def leakage_mw(self) -> float:
        """Static leakage power of the whole buffer."""
        capacity_scale = self.capacity_bytes / _ANCHOR_CAPACITY_BYTES
        port_scale = 1.0 + 0.2 * (self.ports - 1)
        bank_overhead = 1.0 + 0.05 * (self.banks - 1)
        return _ANCHOR_LEAKAGE_MW * capacity_scale * port_scale * bank_overhead

    def transfer_energy_pj(self, num_bytes: int, write: bool = False) -> float:
        """Energy to stream ``num_bytes`` through this buffer."""
        if num_bytes < 0:
            raise ConfigurationError(f"byte count must be >= 0, got {num_bytes}")
        accesses = math.ceil(num_bytes * 8 / self.word_bits)
        per_access = self.write_energy_pj if write else self.read_energy_pj
        return accesses * per_access

    def transfer_latency_ns(self, num_bytes: int) -> float:
        """Latency to stream ``num_bytes``, overlapping banked accesses."""
        if num_bytes < 0:
            raise ConfigurationError(f"byte count must be >= 0, got {num_bytes}")
        accesses = math.ceil(num_bytes * 8 / self.word_bits)
        parallel = self.banks * self.ports
        serial_accesses = math.ceil(accesses / parallel)
        return serial_accesses * self.access_latency_ns


@dataclass(frozen=True)
class EDRAMBuffer:
    """Embedded-DRAM buffer — denser but slower than SRAM, plus refresh.

    Used for the larger intermediate buffers (e.g. GHOST's vertex feature
    store) where SRAM leakage would dominate.
    """

    capacity_bytes: int
    word_bits: int = 128

    def __post_init__(self) -> None:
        if self.capacity_bytes < 1024:
            raise ConfigurationError(
                f"eDRAM capacity must be >= 1 KiB, got {self.capacity_bytes}"
            )
        if self.word_bits < 1:
            raise ConfigurationError(
                f"word width must be >= 1 bit, got {self.word_bits}"
            )

    @property
    def read_energy_pj(self) -> float:
        """Energy of one read access (destructive read + restore)."""
        capacity_scale = math.sqrt(self.capacity_bytes / (1024 * 1024))
        width_scale = self.word_bits / 128
        return 50.0 * capacity_scale * width_scale

    @property
    def write_energy_pj(self) -> float:
        """Energy of one write access."""
        return self.read_energy_pj

    @property
    def access_latency_ns(self) -> float:
        """Latency of one access (sense + restore make eDRAM ~2x SRAM)."""
        capacity_scale = math.sqrt(self.capacity_bytes / (1024 * 1024))
        return 6.0 * capacity_scale

    @property
    def refresh_power_mw(self) -> float:
        """Refresh power, linear in capacity."""
        return 5.0 * self.capacity_bytes / (1024 * 1024)

    def transfer_energy_pj(self, num_bytes: int, write: bool = False) -> float:
        """Energy to stream ``num_bytes`` through this buffer."""
        if num_bytes < 0:
            raise ConfigurationError(f"byte count must be >= 0, got {num_bytes}")
        accesses = math.ceil(num_bytes * 8 / self.word_bits)
        per_access = self.write_energy_pj if write else self.read_energy_pj
        return accesses * per_access


@dataclass(frozen=True)
class HBMChannel:
    """One high-bandwidth-memory channel (off-chip model weights).

    TransPIM-style transformer accelerators stream weights from HBM; both
    TRON and GHOST must fetch model parameters and (for GHOST) graph data
    from off-chip memory.  Energy per bit and channel bandwidth follow
    published HBM2 figures (~4-7 pJ/bit end to end, 16 GB/s per channel
    per pseudo-channel pair).
    """

    bandwidth_gbps: float = 128.0  # gigabits per second per channel
    energy_per_bit_pj: float = 4.0
    channels: int = 8

    LIMITS = {
        "bandwidth_gbps": "> 0",
        "energy_per_bit_pj": "> 0",
        "channels": ">= 1",
    }

    __post_init__ = check_limits

    @property
    def total_bandwidth_gbps(self) -> float:
        """Aggregate bandwidth across channels (Gb/s)."""
        return self.bandwidth_gbps * self.channels

    def transfer_energy_pj(self, num_bytes: int) -> float:
        """Energy to move ``num_bytes`` across the HBM interface."""
        if num_bytes < 0:
            raise ConfigurationError(f"byte count must be >= 0, got {num_bytes}")
        return num_bytes * 8 * self.energy_per_bit_pj

    def transfer_latency_ns(self, num_bytes: int) -> float:
        """Latency to move ``num_bytes`` at full aggregate bandwidth."""
        if num_bytes < 0:
            raise ConfigurationError(f"byte count must be >= 0, got {num_bytes}")
        bits = num_bytes * 8
        return bits / self.total_bandwidth_gbps


@dataclass(frozen=True)
class MemorySystem:
    """The memory hierarchy an accelerator hangs off: HBM + global SRAM.

    Architecture models route weight/activation traffic through this
    object so the energy ledger can separate off-chip from on-chip bytes.
    """

    hbm: HBMChannel = HBMChannel()
    # Wide (256-bit) ports: accelerator buffers stream whole vectors, not
    # scalar words, so the port width matches the datapath.
    global_buffer: SRAMBuffer = SRAMBuffer(
        capacity_bytes=2 * 1024 * 1024, word_bits=256, banks=16
    )

    def load_from_offchip(self, num_bytes: int) -> tuple:
        """(energy_pj, latency_ns) to bring bytes from HBM into the buffer."""
        energy = self.hbm.transfer_energy_pj(
            num_bytes
        ) + self.global_buffer.transfer_energy_pj(num_bytes, write=True)
        latency = max(
            self.hbm.transfer_latency_ns(num_bytes),
            self.global_buffer.transfer_latency_ns(num_bytes),
        )
        return energy, latency

    def read_onchip(self, num_bytes: int) -> tuple:
        """(energy_pj, latency_ns) to read bytes from the global buffer."""
        return (
            self.global_buffer.transfer_energy_pj(num_bytes),
            self.global_buffer.transfer_latency_ns(num_bytes),
        )
