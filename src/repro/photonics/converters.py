"""DAC and ADC cost models.

Every optical operation is bracketed by converters: DACs drive VCSELs and
MR tuners with analog levels; ADCs digitize photodetector outputs before
digital blocks (softmax LUTs, buffers).  Conversion energy is one of the
dominant terms of the accelerators' power budget, which is why TRON's
matmul decomposition (paper eq. 3) exists at all — it removes a whole
optical-to-digital-to-optical round trip.

Energy follows the classic Murmann ADC-survey scaling: energy per
conversion grows ~4x per added bit (Walden figure of merit), and power
scales linearly with sample rate.  Default numbers are in family with
those used by CrossLight / SONIC (tens of mW at 8-bit, multi-GS/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.serialization import check_limits
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DAC:
    """Digital-to-analog converter.

    Attributes:
        resolution_bits: converter resolution.
        sample_rate_gsps: conversions per ns (GS/s).
        energy_per_conversion_pj: energy for one conversion at this
            resolution.  The default corresponds to an 8-bit multi-GS/s
            current-steering DAC (~5 pJ/conv → ~26 mW at 5 GS/s).
    """

    resolution_bits: int = 8
    sample_rate_gsps: float = 5.0
    energy_per_conversion_pj: float = 5.2

    LIMITS = {
        "resolution_bits": ">= 1",
        "sample_rate_gsps": "> 0",
        "energy_per_conversion_pj": "> 0",
    }

    __post_init__ = check_limits

    @property
    def latency_ns(self) -> float:
        """Latency of one conversion (one sample period)."""
        return 1.0 / self.sample_rate_gsps

    @property
    def power_mw(self) -> float:
        """Average power while converting continuously."""
        return self.energy_per_conversion_pj * self.sample_rate_gsps

    def energy_pj(self, num_conversions: int) -> float:
        """Total energy for a number of conversions."""
        if num_conversions < 0:
            raise ConfigurationError(
                f"conversion count must be >= 0, got {num_conversions}"
            )
        return num_conversions * self.energy_per_conversion_pj

    def scaled_to_bits(self, bits: int) -> "DAC":
        """Copy of this DAC at a different resolution.

        Energy scales ~4x per doubling of SNR requirement, i.e. 2 bits;
        equivalently a factor of 2 per bit (Walden FoM regime).
        """
        if bits < 1:
            raise ConfigurationError(f"resolution must be >= 1 bit, got {bits}")
        factor = 2.0 ** (bits - self.resolution_bits)
        return DAC(
            resolution_bits=bits,
            sample_rate_gsps=self.sample_rate_gsps,
            energy_per_conversion_pj=self.energy_per_conversion_pj * factor,
        )


@dataclass(frozen=True)
class ADC:
    """Analog-to-digital converter.

    Defaults model an 8-bit ~5 GS/s SAR/flash hybrid (~6 pJ/conv →
    ~29 mW continuous).
    """

    resolution_bits: int = 8
    sample_rate_gsps: float = 5.0
    energy_per_conversion_pj: float = 5.8

    LIMITS = DAC.LIMITS

    __post_init__ = check_limits

    @property
    def latency_ns(self) -> float:
        """Latency of one conversion (one sample period)."""
        return 1.0 / self.sample_rate_gsps

    @property
    def power_mw(self) -> float:
        """Average power while converting continuously."""
        return self.energy_per_conversion_pj * self.sample_rate_gsps

    def energy_pj(self, num_conversions: int) -> float:
        """Total energy for a number of conversions."""
        if num_conversions < 0:
            raise ConfigurationError(
                f"conversion count must be >= 0, got {num_conversions}"
            )
        return num_conversions * self.energy_per_conversion_pj

    def quantization_step(self, full_scale: float = 1.0) -> float:
        """LSB size for a given full-scale analog range."""
        if full_scale <= 0.0:
            raise ConfigurationError(f"full scale must be > 0, got {full_scale}")
        return full_scale / (2**self.resolution_bits - 1)

    def scaled_to_bits(self, bits: int) -> "ADC":
        """Copy of this ADC at a different resolution (Walden scaling)."""
        if bits < 1:
            raise ConfigurationError(f"resolution must be >= 1 bit, got {bits}")
        factor = 2.0 ** (bits - self.resolution_bits)
        return ADC(
            resolution_bits=bits,
            sample_rate_gsps=self.sample_rate_gsps,
            energy_per_conversion_pj=self.energy_per_conversion_pj * factor,
        )
