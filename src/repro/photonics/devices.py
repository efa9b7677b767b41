"""Opto-electronic devices: lasers, photodetectors, BPDs and SOAs.

These are the sources, sinks and nonlinearities of the accelerators'
optical datapaths:

- :class:`VCSEL` — vertical-cavity surface-emitting laser; generates an
  optical carrier whose amplitude is set by an analog input (paper
  Section IV: "VCSEL units are laser sources ... with an amplitude
  specified by an input analog signal").
- :class:`Photodetector` / :class:`BalancedPhotodetector` — convert optical
  power back to electrical current.  The BPD subtracts a "negative arm"
  from a "positive arm", which is how signed values are handled
  (Section V.C).
- :class:`SOA` / :class:`SOAActivation` — semiconductor optical amplifier;
  its gain-saturation transfer curve is shaped into ReLU / sigmoid / tanh
  activation functions (Section V.D).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.serialization import check_limits
from repro.errors import ConfigurationError
from repro.units import dbm_to_mw


@dataclass(frozen=True)
class VCSEL:
    """Vertical-cavity surface-emitting laser source.

    Attributes:
        wavelength_nm: emission wavelength.
        max_power_mw: maximum optical output power.
        wall_plug_efficiency: optical-out / electrical-in power ratio.
        modulation_rate_ghz: maximum amplitude-update rate; this bounds the
            photonic clock of architectures built from VCSEL inputs.
    """

    wavelength_nm: float = 1550.0
    max_power_mw: float = 2.0
    wall_plug_efficiency: float = 0.25
    modulation_rate_ghz: float = 10.0

    def __post_init__(self) -> None:
        if self.max_power_mw <= 0.0:
            raise ConfigurationError(
                f"max power must be > 0 mW, got {self.max_power_mw}"
            )
        if not 0.0 < self.wall_plug_efficiency <= 1.0:
            raise ConfigurationError(
                f"wall-plug efficiency must be in (0, 1], got "
                f"{self.wall_plug_efficiency}"
            )
        if self.modulation_rate_ghz <= 0.0:
            raise ConfigurationError(
                f"modulation rate must be > 0 GHz, got {self.modulation_rate_ghz}"
            )

    def emit(self, value, full_scale: float = 1.0):
        """Optical power (mW) encoding normalized values in [0, full_scale].

        Accepts scalars or numpy arrays.
        """
        values = np.asarray(value, dtype=float)
        if np.any(values < 0.0) or np.any(values > full_scale):
            raise ConfigurationError(
                f"VCSEL input outside [0, {full_scale}]"
            )
        powers = values / full_scale * self.max_power_mw
        if powers.ndim == 0:
            return float(powers)
        return powers

    def electrical_power_mw(self, optical_power_mw: float) -> float:
        """Electrical power drawn to emit a given optical power."""
        if optical_power_mw < 0.0 or optical_power_mw > self.max_power_mw + 1e-12:
            raise ConfigurationError(
                f"optical power {optical_power_mw} outside "
                f"[0, {self.max_power_mw}] mW"
            )
        return optical_power_mw / self.wall_plug_efficiency


@dataclass(frozen=True)
class Photodetector:
    """PIN photodetector with responsivity and a sensitivity floor.

    Attributes:
        responsivity_a_per_w: photocurrent per optical watt.
        sensitivity_dbm: minimum detectable optical power at the target
            bit-error rate; the laser power solver must deliver at least
            this much power after all losses.
        bandwidth_ghz: detection bandwidth.
        dark_current_na: dark current (adds shot noise).
    """

    responsivity_a_per_w: float = 1.1
    sensitivity_dbm: float = -26.0
    bandwidth_ghz: float = 10.0
    dark_current_na: float = 10.0

    def __post_init__(self) -> None:
        if self.responsivity_a_per_w <= 0.0:
            raise ConfigurationError(
                f"responsivity must be > 0 A/W, got {self.responsivity_a_per_w}"
            )
        if self.bandwidth_ghz <= 0.0:
            raise ConfigurationError(
                f"bandwidth must be > 0 GHz, got {self.bandwidth_ghz}"
            )

    @property
    def sensitivity_mw(self) -> float:
        """Sensitivity floor expressed in mW."""
        return dbm_to_mw(self.sensitivity_dbm)

    def photocurrent_ma(self, optical_power_mw):
        """Photocurrent in mA for incident optical power in mW.

        Accepts scalars or arrays; clips negative inputs to zero (power
        cannot be negative, but numerical noise upstream may produce tiny
        negatives).
        """
        power = np.clip(np.asarray(optical_power_mw, dtype=float), 0.0, None)
        current = power * self.responsivity_a_per_w
        if current.ndim == 0:
            return float(current)
        return current

    def detectable(self, optical_power_mw: float) -> bool:
        """Whether a power level clears the sensitivity floor."""
        return optical_power_mw >= self.sensitivity_mw


@dataclass(frozen=True)
class BalancedPhotodetector:
    """Balanced photodetector: subtracts a negative arm from a positive arm.

    The accelerators keep positive and negative partial products on
    separate waveguide arms; the BPD's differential photocurrent yields the
    signed sum without any digital subtraction (Section V.C).
    """

    detector: Photodetector = Photodetector()

    def differential_ma(self, positive_power_mw, negative_power_mw):
        """Differential photocurrent (mA), positive arm minus negative arm."""
        pos = self.detector.photocurrent_ma(positive_power_mw)
        neg = self.detector.photocurrent_ma(negative_power_mw)
        return pos - neg

    def detectable(self, positive_power_mw: float, negative_power_mw: float) -> bool:
        """Whether at least one arm clears the sensitivity floor."""
        return self.detector.detectable(
            positive_power_mw
        ) or self.detector.detectable(negative_power_mw)


class ActivationKind(Enum):
    """Nonlinearities implementable with SOA gain shaping (Section V.D)."""

    RELU = "relu"
    SIGMOID = "sigmoid"
    TANH = "tanh"


@dataclass(frozen=True)
class SOA:
    """Semiconductor optical amplifier with gain saturation.

    Small-signal gain ``g0`` saturates as input power approaches
    ``saturation_power_mw``:

        G(P_in) = g0 / (1 + P_in / P_sat)

    The saturation knee is what gets shaped into activation functions.

    Attributes:
        small_signal_gain_db: unsaturated gain.
        saturation_power_mw: input power at which gain halves.
        bias_power_mw: electrical bias power while active.
        latency_ns: carrier-lifetime-limited response time.
    """

    small_signal_gain_db: float = 10.0
    saturation_power_mw: float = 1.0
    bias_power_mw: float = 2.2
    latency_ns: float = 0.1

    LIMITS = {"saturation_power_mw": "> 0", "bias_power_mw": ">= 0"}

    __post_init__ = check_limits

    def gain_linear(self, input_power_mw):
        """Saturated power gain for a given input power (scalar or array)."""
        power = np.clip(np.asarray(input_power_mw, dtype=float), 0.0, None)
        g0 = 10.0 ** (self.small_signal_gain_db / 10.0)
        gain = g0 / (1.0 + power / self.saturation_power_mw)
        if gain.ndim == 0:
            return float(gain)
        return gain

    def amplify(self, input_power_mw):
        """Output optical power after saturated amplification."""
        power = np.clip(np.asarray(input_power_mw, dtype=float), 0.0, None)
        out = power * self.gain_linear(power)
        if out.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class SOAActivation:
    """An SOA biased and shaped to realize a neural activation function.

    The functional model applies the *mathematical* activation (so network
    numerics are exact) while the cost model charges the SOA's bias power
    and latency; the analog error of the shaped transfer curve is folded
    into :mod:`repro.photonics.noise` like every other analog error source.
    """

    kind: ActivationKind = ActivationKind.RELU
    soa: SOA = SOA()

    def apply(self, values):
        """Apply the activation to a scalar or numpy array."""
        x = np.asarray(values, dtype=float)
        if self.kind is ActivationKind.RELU:
            out = np.maximum(x, 0.0)
        elif self.kind is ActivationKind.SIGMOID:
            out = 1.0 / (1.0 + np.exp(-x))
        elif self.kind is ActivationKind.TANH:
            out = np.tanh(x)
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigurationError(f"unsupported activation {self.kind}")
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def power_mw(self) -> float:
        """Electrical power drawn while the activation unit is active."""
        return self.soa.bias_power_mw

    @property
    def latency_ns(self) -> float:
        """Response latency of the activation unit."""
        return self.soa.latency_ns
