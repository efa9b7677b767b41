"""Digital helper blocks: softmax LUT, adder trees, control, registers.

The paper keeps operations that are awkward in analog optics in the
digital domain: softmax "using lookup tables (LUTs) and simple digital
circuits" (Sections V.C and V.D).  These are small, well-characterized
blocks; energies are per-operation figures typical of 28-32 nm synthesis
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.serialization import check_limits
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SoftmaxLUT:
    """Digital softmax unit: exp via LUT, sum, then reciprocal-multiply.

    Functional semantics are exact softmax (the LUT is dense enough that
    its quantization is folded into the global analog noise model); the
    cost model charges per-element LUT lookups, adds and multiplies.

    Attributes:
        entries: LUT depth (spans the clipped exponent input range).
        lookup_energy_pj: one LUT read.
        add_energy_pj: one accumulation.
        mul_energy_pj: one normalization multiply.
        clock_ghz: digital clock for latency accounting.
        lanes: parallel lanes processing elements concurrently.
    """

    entries: int = 1024
    lookup_energy_pj: float = 0.4
    add_energy_pj: float = 0.1
    mul_energy_pj: float = 0.25
    clock_ghz: float = 2.0
    lanes: int = 16

    LIMITS = {
        "entries": ">= 2",
        "lookup_energy_pj": ">= 0",
        "add_energy_pj": ">= 0",
        "mul_energy_pj": ">= 0",
        "clock_ghz": "> 0",
        "lanes": ">= 1",
    }

    __post_init__ = check_limits

    def apply(self, logits: np.ndarray, axis: int = -1) -> np.ndarray:
        """Numerically stable softmax along ``axis``."""
        logits = np.asarray(logits, dtype=float)
        shifted = logits - logits.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=axis, keepdims=True)

    def energy_pj(self, num_elements: int) -> float:
        """Energy to softmax ``num_elements`` values."""
        if num_elements < 0:
            raise ConfigurationError(
                f"element count must be >= 0, got {num_elements}"
            )
        per_element = self.lookup_energy_pj + self.add_energy_pj + self.mul_energy_pj
        return num_elements * per_element

    def latency_ns(self, num_elements: int) -> float:
        """Latency: two passes (exp+sum, normalize) over lane-parallel data."""
        if num_elements < 0:
            raise ConfigurationError(
                f"element count must be >= 0, got {num_elements}"
            )
        cycles = 2 * math.ceil(num_elements / self.lanes)
        return cycles / self.clock_ghz


@dataclass(frozen=True)
class AdderTree:
    """Digital adder tree for partial-sum accumulation.

    Attributes:
        fan_in: inputs reduced per operation.
        add_energy_pj: one two-input add.
        clock_ghz: pipeline clock (one tree level per cycle).
    """

    fan_in: int
    add_energy_pj: float = 0.1
    clock_ghz: float = 2.0

    def __post_init__(self) -> None:
        if self.fan_in < 2:
            raise ConfigurationError(f"fan-in must be >= 2, got {self.fan_in}")
        if self.clock_ghz <= 0.0:
            raise ConfigurationError(f"clock must be > 0 GHz, got {self.clock_ghz}")

    @property
    def depth(self) -> int:
        """Tree depth (pipeline stages)."""
        return math.ceil(math.log2(self.fan_in))

    def reduce(self, values: np.ndarray) -> float:
        """Sum up to ``fan_in`` values (functional)."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size > self.fan_in:
            raise ConfigurationError(
                f"expected <= {self.fan_in} values, got shape {values.shape}"
            )
        return float(values.sum())

    def energy_pj(self, active_inputs: int) -> float:
        """Energy of one reduction over ``active_inputs`` values."""
        if active_inputs < 0 or active_inputs > self.fan_in:
            raise ConfigurationError(
                f"active inputs must be in [0, {self.fan_in}], got {active_inputs}"
            )
        return max(active_inputs - 1, 0) * self.add_energy_pj

    @property
    def latency_ns(self) -> float:
        """Latency of one (pipelined) reduction."""
        return self.depth / self.clock_ghz


@dataclass(frozen=True)
class ControlUnit:
    """Sequencing/control overhead of an accelerator tile.

    Charged as a constant power while the tile is active; the default is a
    small controller plus address generators.
    """

    power_mw: float = 25.0

    LIMITS = {"power_mw": ">= 0"}

    __post_init__ = check_limits

    def energy_pj(self, active_time_ns: float) -> float:
        """Control energy over an active window."""
        if active_time_ns < 0.0:
            raise ConfigurationError(
                f"active time must be >= 0 ns, got {active_time_ns}"
            )
        return self.power_mw * active_time_ns


@dataclass(frozen=True)
class RegisterFile:
    """Small flip-flop register file (latency-free staging storage)."""

    num_entries: int = 64
    word_bits: int = 64
    access_energy_pj: float = 0.3

    def __post_init__(self) -> None:
        if self.num_entries < 1:
            raise ConfigurationError(
                f"need >= 1 entry, got {self.num_entries}"
            )
        if self.word_bits < 1:
            raise ConfigurationError(
                f"word width must be >= 1 bit, got {self.word_bits}"
            )

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.num_entries * self.word_bits // 8

    def transfer_energy_pj(self, num_bytes: int) -> float:
        """Energy to stream ``num_bytes`` through the register file."""
        if num_bytes < 0:
            raise ConfigurationError(f"byte count must be >= 0, got {num_bytes}")
        accesses = math.ceil(num_bytes * 8 / self.word_bits)
        return accesses * self.access_energy_pj
