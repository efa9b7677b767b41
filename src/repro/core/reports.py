"""Structured cost reports and the EPB / GOPS metric definitions.

Every platform model in the library — TRON, GHOST, and all baselines —
produces a :class:`RunReport`, so Figs. 8-11 compare identical metric
definitions across platforms:

- **GOPS**: total operations (MAC = 2 ops) divided by inference latency.
- **EPB** (energy per bit): total inference energy divided by the number
  of data bits processed (total ops x operand bit width), the
  energy-efficiency metric of Figs. 8 and 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.serialization import check_limits
from repro.errors import ConfigurationError
from repro.nn.counting import OpCount


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown of one inference, in pJ.

    The categories follow the accelerators' physical structure so the
    benches can attribute wins: photonic compute (laser + tuning), domain
    conversion (DAC/ADC), memory traffic, and digital blocks.

    Example:
        >>> e = EnergyReport(laser_pj=1.0, dac_pj=2.0)
        >>> e.total_pj
        3.0
        >>> (e + e).scaled(0.5).total_pj
        3.0
    """

    laser_pj: float = 0.0
    tuning_pj: float = 0.0
    dac_pj: float = 0.0
    adc_pj: float = 0.0
    memory_pj: float = 0.0
    digital_pj: float = 0.0
    activation_pj: float = 0.0
    static_pj: float = 0.0

    __post_init__ = check_limits

    @property
    def total_pj(self) -> float:
        """Total energy across all categories."""
        return sum(getattr(self, name) for name in ENERGY_FIELDS)

    def __add__(self, other: "EnergyReport") -> "EnergyReport":
        return EnergyReport(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in ENERGY_FIELDS
            }
        )

    def scaled(self, factor: float) -> "EnergyReport":
        """This breakdown scaled by a repetition factor."""
        if not 0.0 <= factor < math.inf:
            raise ConfigurationError(
                f"factor must be >= 0 and finite, got {factor}"
            )
        return EnergyReport(
            **{name: getattr(self, name) * factor for name in ENERGY_FIELDS}
        )

    def as_dict(self) -> Dict[str, float]:
        """Breakdown as a plain dict (for tabular bench output)."""
        return {name: getattr(self, name) for name in ENERGY_FIELDS}


@dataclass(frozen=True)
class LatencyReport:
    """Latency breakdown of one inference, in ns.

    ``compute_ns`` covers the photonic (or arithmetic) pipeline,
    ``memory_ns`` the non-overlapped memory stalls, ``conversion_ns`` the
    non-pipelined DAC/ADC serialization, ``digital_ns`` softmax and other
    digital post-processing.

    Example:
        >>> lat = LatencyReport(compute_ns=10.0, memory_ns=5.0)
        >>> lat.total_ns
        15.0
        >>> lat.scaled(2).as_dict()["compute_ns"]
        20.0
    """

    compute_ns: float = 0.0
    memory_ns: float = 0.0
    conversion_ns: float = 0.0
    digital_ns: float = 0.0

    __post_init__ = check_limits

    @property
    def total_ns(self) -> float:
        """Total latency (categories are non-overlapped by construction)."""
        return sum(getattr(self, name) for name in LATENCY_FIELDS)

    def __add__(self, other: "LatencyReport") -> "LatencyReport":
        return LatencyReport(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in LATENCY_FIELDS
            }
        )

    def scaled(self, factor: float) -> "LatencyReport":
        """This breakdown scaled by a repetition factor."""
        if not 0.0 <= factor < math.inf:
            raise ConfigurationError(
                f"factor must be >= 0 and finite, got {factor}"
            )
        return LatencyReport(
            **{name: getattr(self, name) * factor for name in LATENCY_FIELDS}
        )

    def as_dict(self) -> Dict[str, float]:
        """Breakdown as a plain dict (for tabular bench output)."""
        return {name: getattr(self, name) for name in LATENCY_FIELDS}


@dataclass(frozen=True)
class RunReport:
    """Complete result of running one workload on one platform.

    Attributes:
        platform: platform/accelerator name.
        workload: workload (model + dataset) name.
        ops: op/byte totals of the workload.
        latency: latency breakdown.
        energy: energy breakdown.
        bits_per_value: operand precision (8 for the paper's operating
            point); sets the EPB denominator.

    Example:
        >>> from repro.nn.counting import OpCount
        >>> report = RunReport(
        ...     platform="demo", workload="w",
        ...     ops=OpCount(macs=50),                  # 100 ops total
        ...     latency=LatencyReport(compute_ns=10.0),
        ...     energy=EnergyReport(laser_pj=800.0))
        >>> report.gops                                # 100 ops / 10 ns
        10.0
        >>> report.epb_pj                              # 800 pJ / 800 bits
        1.0
    """

    platform: str
    workload: str
    ops: OpCount
    latency: LatencyReport
    energy: EnergyReport
    bits_per_value: int = 8

    def __post_init__(self) -> None:
        if self.bits_per_value < 1:
            raise ConfigurationError(
                f"bits per value must be >= 1, got {self.bits_per_value}"
            )
        if self.latency.total_ns <= 0.0:
            raise ConfigurationError("latency must be > 0")

    @property
    def latency_ns(self) -> float:
        """Total inference latency."""
        return self.latency.total_ns

    @property
    def energy_pj(self) -> float:
        """Total inference energy."""
        return self.energy.total_pj

    @property
    def gops(self) -> float:
        """Throughput in giga-operations per second (Figs. 9 and 11)."""
        return self.ops.total_ops / self.latency_ns

    @property
    def epb_pj(self) -> float:
        """Energy per bit in pJ (Figs. 8 and 10)."""
        bits = self.ops.total_ops * self.bits_per_value
        if bits == 0:
            raise ConfigurationError("cannot compute EPB of a zero-op workload")
        return self.energy_pj / bits

    @property
    def average_power_mw(self) -> float:
        """Mean power over the inference."""
        return self.energy_pj / self.latency_ns

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.platform:>12s} | {self.workload:<24s} | "
            f"{self.latency_ns / 1e6:9.3f} ms | {self.energy_pj / 1e6:10.2f} uJ | "
            f"{self.gops:10.1f} GOPS | {self.epb_pj:8.4f} pJ/bit"
        )

    def to_dict(self) -> Dict:
        """JSON-serializable form (the CLI's ``--json`` output)."""
        return {
            "platform": self.platform,
            "workload": self.workload,
            "bits_per_value": self.bits_per_value,
            "latency_ns": self.latency_ns,
            "energy_pj": self.energy_pj,
            "gops": self.gops,
            "epb_pj": self.epb_pj,
            "total_ops": self.ops.total_ops,
            "latency_breakdown_ns": self.latency.as_dict(),
            "energy_breakdown_pj": self.energy.as_dict(),
        }


#: Breakdown field names in declaration order.  The report classes above
#: and the stacked containers below chain their total reductions in
#: exactly this order, so stacked and scalar totals match bit for bit.
ENERGY_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(EnergyReport))
LATENCY_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(LatencyReport))
# Every breakdown category is a finite, non-negative amount.
EnergyReport.LIMITS = dict.fromkeys(ENERGY_FIELDS, ">= 0")
LatencyReport.LIMITS = dict.fromkeys(LATENCY_FIELDS, ">= 0")


@dataclass
class StackedRunReports:
    """Column-stacked run reports for a whole batch of evaluation points.

    This is the array-resident counterpart of a ``List[RunReport]``: each
    breakdown field is one float64 column of length ``n`` instead of an
    attribute on ``n`` frozen report objects.  The sweep and Monte-Carlo
    engines reduce these columns directly (Pareto masks, yield statistics)
    and only :meth:`materialize` scalar :class:`RunReport` objects for the
    few points that survive the reduction (e.g. the frontier).

    Invariant: ``stack.materialize(i)`` is bit-identical to the
    :class:`RunReport` the scalar path produces for point ``i`` — the
    evaluators that build these columns replicate the scalar accumulation
    order exactly, and the total reductions below chain fields in
    declaration order just like ``EnergyReport.total_pj``.

    Attributes:
        platform: platform name, shared by every point.
        workload: workload name, shared by every point.
        ops: per-point op counts (usually a few shared objects).
        latency: per-field latency columns, keyed by ``LATENCY_FIELDS``.
        energy: per-field energy columns, keyed by ``ENERGY_FIELDS``.
        bits_per_value: per-point operand precision.
        groups: number of distinct evaluation groups the producing
            evaluator collapsed the batch into (an efficiency stat).
    """

    platform: str
    workload: str
    ops: Sequence[OpCount]
    latency: Dict[str, np.ndarray]
    energy: Dict[str, np.ndarray]
    bits_per_value: Sequence[int]
    groups: int = 0
    _latency_total: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _energy_total: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.ops)
        if len(self.bits_per_value) != n:
            raise ConfigurationError(
                f"bits_per_value has {len(self.bits_per_value)} entries "
                f"for {n} points"
            )
        for name in LATENCY_FIELDS:
            if len(self.latency[name]) != n:
                raise ConfigurationError(
                    f"latency column {name} has {len(self.latency[name])} "
                    f"entries for {n} points"
                )
        for name in ENERGY_FIELDS:
            if len(self.energy[name]) != n:
                raise ConfigurationError(
                    f"energy column {name} has {len(self.energy[name])} "
                    f"entries for {n} points"
                )

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def latency_ns(self) -> np.ndarray:
        """Per-point total latency (same chained sum as ``total_ns``)."""
        if self._latency_total is None:
            total: object = 0
            for name in LATENCY_FIELDS:
                total = total + self.latency[name]
            self._latency_total = np.asarray(total, dtype=float)
        return self._latency_total

    @property
    def energy_pj(self) -> np.ndarray:
        """Per-point total energy (same chained sum as ``total_pj``)."""
        if self._energy_total is None:
            total: object = 0
            for name in ENERGY_FIELDS:
                total = total + self.energy[name]
            self._energy_total = np.asarray(total, dtype=float)
        return self._energy_total

    def materialize(self, index: int) -> RunReport:
        """The scalar :class:`RunReport` for one point of the stack."""
        latency = LatencyReport(
            **{name: float(self.latency[name][index]) for name in LATENCY_FIELDS}
        )
        energy = EnergyReport(
            **{name: float(self.energy[name][index]) for name in ENERGY_FIELDS}
        )
        return RunReport(
            platform=self.platform,
            workload=self.workload,
            ops=self.ops[index],
            latency=latency,
            energy=energy,
            bits_per_value=int(self.bits_per_value[index]),
        )
