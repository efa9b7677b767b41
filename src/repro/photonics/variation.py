"""Fabrication process-variation analysis (paper's conclusion: an "open
challenge ... fabrication-process variations").

Silicon photonic fabrication varies waveguide width and thickness by a few
nanometres across a wafer, which perturbs the effective index and hence
every ring's resonant wavelength (paper eq. 2).  The accelerator impact is
twofold:

1. **Tuning power**: every ring must be tuned back to its channel, so the
   mean |resonance error| converts directly into standing TO power.
2. **Yield**: a ring whose error exceeds the tuner's range (plus the FSR
   wrap-around trick) cannot be corrected; a bank is good only if all its
   rings are correctable.

The model uses the standard sensitivity coefficients for 450x220 nm strip
waveguides (~1 nm resonance shift per nm of width error, ~2 nm per nm of
thickness error) and treats intra-die variation as correlated Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.serialization import check_limits
from repro.errors import ConfigurationError
from repro.photonics.microring import Microring, MicroringDesign
from repro.photonics.tuning import HybridTuner, TOTuner


@dataclass(frozen=True)
class ProcessVariationModel:
    """Gaussian process-variation model for MR resonance error.

    Attributes:
        width_sigma_nm: std-dev of waveguide width error.
        thickness_sigma_nm: std-dev of silicon thickness error.
        width_sensitivity: resonance shift (nm) per nm width error.
        thickness_sensitivity: resonance shift (nm) per nm thickness error.
        intra_die_correlation: correlation of errors between rings on the
            same die (thickness varies slowly across a wafer, so
            neighbouring rings see similar errors).
    """

    width_sigma_nm: float = 2.0
    thickness_sigma_nm: float = 1.0
    width_sensitivity: float = 1.0
    thickness_sensitivity: float = 2.0
    intra_die_correlation: float = 0.7

    LIMITS = {
        "width_sigma_nm": ">= 0",
        "thickness_sigma_nm": ">= 0",
        "intra_die_correlation": "[0, 1]",
    }

    __post_init__ = check_limits

    @property
    def resonance_sigma_nm(self) -> float:
        """Std-dev of a single ring's resonance error."""
        return float(
            np.sqrt(
                (self.width_sensitivity * self.width_sigma_nm) ** 2
                + (self.thickness_sensitivity * self.thickness_sigma_nm) ** 2
            )
        )

    def sample_resonance_errors(
        self,
        num_rings: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Correlated resonance errors (nm) for a bank of rings.

        error_i = sqrt(rho) * shared + sqrt(1 - rho) * individual_i
        """
        if num_rings < 1:
            raise ConfigurationError(f"need >= 1 ring, got {num_rings}")
        rng = rng or np.random.default_rng(0)
        sigma = self.resonance_sigma_nm
        rho = self.intra_die_correlation
        shared = rng.normal(0.0, sigma)
        individual = rng.normal(0.0, sigma, num_rings)
        return np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * individual


@dataclass(frozen=True)
class VariationImpact:
    """Monte-Carlo result of process variation on one MR bank design.

    Attributes:
        mean_correction_nm: mean |resonance error| after FSR folding.
        mean_tuning_power_mw: mean standing TO power per ring to correct it.
        bank_yield: fraction of sampled banks whose rings are all
            correctable within the tuner range.
        trials: Monte-Carlo sample count.
    """

    mean_correction_nm: float
    mean_tuning_power_mw: float
    bank_yield: float
    trials: int


def variation_impact(
    design: MicroringDesign,
    bank_size: int,
    model: ProcessVariationModel = ProcessVariationModel(),
    tuner: Optional[TOTuner] = None,
    trials: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> VariationImpact:
    """Monte-Carlo the impact of process variation on an MR bank.

    Resonance errors fold into [-FSR/2, FSR/2] (a ring can lock to the
    adjacent resonance order instead of heating across a full FSR), then
    convert to heater power through the tuner's efficiency.

    Args:
        design: the ring design under evaluation.
        bank_size: rings per bank (all must be correctable for yield).
        model: the variation statistics.
        tuner: TO tuner used for correction (defaults to a TED-enabled
            tuner with range = 0.55 * FSR, enough for folded errors).
        trials: Monte-Carlo bank samples.
        rng: random generator (seeded default for reproducibility).
    """
    if bank_size < 1:
        raise ConfigurationError(f"bank size must be >= 1, got {bank_size}")
    if trials < 1:
        raise ConfigurationError(f"need >= 1 trial, got {trials}")
    rng = rng or np.random.default_rng(0)
    ring = Microring.at_wavelength(design, 1550.0)
    fsr = ring.fsr_nm
    tuner = tuner or TOTuner(max_shift_nm=0.55 * fsr, ted_power_factor=0.5)

    corrections = np.zeros((trials, bank_size))
    good_banks = 0
    for t in range(trials):
        errors = model.sample_resonance_errors(bank_size, rng=rng)
        folded = (errors + 0.5 * fsr) % fsr - 0.5 * fsr
        corrections[t] = np.abs(folded)
        if np.all(np.abs(folded) <= tuner.max_shift_nm):
            good_banks += 1
    mean_correction = float(corrections.mean())
    mean_power = float(
        np.mean(
            [tuner.power_for_shift_mw(c) for c in corrections.ravel()]
        )
    )
    return VariationImpact(
        mean_correction_nm=mean_correction,
        mean_tuning_power_mw=mean_power,
        bank_yield=good_banks / trials,
        trials=trials,
    )
