"""Analog noise models for functional photonic simulation.

Analog optical computation is inexact: heterodyne crosstalk leaks a little
of every other channel into each dot-product term, photodetection adds
shot and thermal noise, and DAC/ADC quantization bounds resolution.  This
module centralizes those error sources so the functional models
(:mod:`repro.photonics.mrbank`, :mod:`repro.photonics.summation`) can
inject them consistently, and provides the *effective bits* metric used to
justify the paper's 8-bit operating point (Section VI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.serialization import check_limits
from repro.errors import ConfigurationError
from repro.units import BOLTZMANN_J_PER_K, ELEMENTARY_CHARGE_C


@dataclass
class AnalogNoiseModel:
    """Composite analog error model applied to photonic dot products.

    Attributes:
        relative_sigma: multiplicative Gaussian error (std-dev as a
            fraction of each result) capturing imprint inaccuracy and
            laser RIN.
        crosstalk_fraction_scale: how much of the modelled heterodyne
            crosstalk ratio turns into additive error (1.0 = all of it).
        adc_bits: if set, results are quantized to this resolution over the
            dynamic range implied by ``fan_in``.
        rng: random generator; pass a seeded generator for reproducibility.
    """

    relative_sigma: float = 0.002
    crosstalk_fraction_scale: float = 1.0
    adc_bits: Optional[int] = None
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    LIMITS = {
        "relative_sigma": ">= 0",
        "crosstalk_fraction_scale": ">= 0",
        "adc_bits": ">= 1",
    }

    __post_init__ = check_limits

    def apply_dot_products(
        self, values: np.ndarray, fan_in: int, crosstalk: float = 0.0
    ) -> np.ndarray:
        """Apply analog errors to ideal dot-product results.

        Args:
            values: ideal results (any shape).
            fan_in: number of summed products per result; sets the dynamic
                range for quantization and scales crosstalk leakage.
            crosstalk: heterodyne crosstalk power ratio of the channel plan.

        Returns:
            Noisy results, same shape as ``values``.
        """
        if fan_in < 1:
            raise ConfigurationError(f"fan-in must be >= 1, got {fan_in}")
        if crosstalk < 0.0:
            raise ConfigurationError(f"crosstalk must be >= 0, got {crosstalk}")
        values = np.asarray(values, dtype=float)
        noisy = values.copy()
        if self.relative_sigma > 0.0:
            noisy = noisy * (
                1.0 + self.rng.normal(0.0, self.relative_sigma, size=values.shape)
            )
        if crosstalk > 0.0 and self.crosstalk_fraction_scale > 0.0:
            # Crosstalk injects a fraction of the aggregate channel power;
            # model it as additive noise proportional to the full-scale
            # dot-product magnitude (fan_in with unit-scale operands).
            sigma = crosstalk * self.crosstalk_fraction_scale * math.sqrt(fan_in)
            noisy = noisy + self.rng.normal(0.0, sigma, size=values.shape)
        if self.adc_bits is not None:
            full_scale = float(fan_in)
            step = 2.0 * full_scale / (2**self.adc_bits - 1)
            noisy = np.clip(noisy, -full_scale, full_scale)
            noisy = np.round(noisy / step) * step
            # Rounding can push a clipped value one code past full scale;
            # a real ADC saturates at its end codes.
            noisy = np.clip(noisy, -full_scale, full_scale)
        return noisy


def effective_bits(ideal: np.ndarray, measured: np.ndarray) -> float:
    """Effective number of bits (ENOB) of an analog computation.

    ENOB = (SNR_dB - 1.76) / 6.02 with SNR computed from the error power
    against the ideal signal power.  Returns ``inf`` for an exact match.
    """
    ideal = np.asarray(ideal, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if ideal.shape != measured.shape:
        raise ConfigurationError(
            f"shape mismatch: {ideal.shape} vs {measured.shape}"
        )
    signal_power = float(np.mean(ideal**2))
    error_power = float(np.mean((measured - ideal) ** 2))
    if signal_power <= 0.0:
        raise ConfigurationError("ideal signal has zero power")
    if error_power == 0.0:
        return math.inf
    snr_db_value = 10.0 * math.log10(signal_power / error_power)
    return (snr_db_value - 1.76) / 6.02


def shot_noise_current_ma(
    photocurrent_ma: float, bandwidth_ghz: float
) -> float:
    """RMS shot-noise current (mA) of a photodetector.

    i_shot = sqrt(2 q I B).
    """
    if photocurrent_ma < 0.0:
        raise ConfigurationError(
            f"photocurrent must be >= 0 mA, got {photocurrent_ma}"
        )
    if bandwidth_ghz <= 0.0:
        raise ConfigurationError(
            f"bandwidth must be > 0 GHz, got {bandwidth_ghz}"
        )
    current_a = photocurrent_ma * 1e-3
    bandwidth_hz = bandwidth_ghz * 1e9
    return math.sqrt(2.0 * ELEMENTARY_CHARGE_C * current_a * bandwidth_hz) * 1e3


def thermal_noise_current_ma(
    bandwidth_ghz: float, load_ohms: float = 50.0, temperature_k: float = 300.0
) -> float:
    """RMS thermal (Johnson) noise current (mA) of the receiver front end.

    i_th = sqrt(4 k T B / R).
    """
    if bandwidth_ghz <= 0.0 or load_ohms <= 0.0 or temperature_k <= 0.0:
        raise ConfigurationError("bandwidth, load and temperature must be > 0")
    bandwidth_hz = bandwidth_ghz * 1e9
    return (
        math.sqrt(4.0 * BOLTZMANN_J_PER_K * temperature_k * bandwidth_hz / load_ohms)
        * 1e3
    )
