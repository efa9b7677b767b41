"""Silicon-photonic device substrate.

This package provides the analog photonic models that both accelerators
(TRON and GHOST) are built from:

- :mod:`repro.photonics.microring` — microring resonator (MR) physics,
  including the resonance condition from the paper (eq. 2) and the
  through/drop transfer functions used to imprint parameters onto light.
- :mod:`repro.photonics.tuning` — electro-optic / thermo-optic tuning
  circuits and the paper's hybrid tuning policy (Section V.A).
- :mod:`repro.photonics.thermal` — heater thermal-crosstalk model and the
  thermal eigenmode decomposition (TED) power-reduction method.
- :mod:`repro.photonics.crosstalk` — heterodyne and homodyne crosstalk and
  SNR analysis (Section V.B, Fig. 3d).
- :mod:`repro.photonics.devices` — VCSELs, photodetectors, balanced
  photodetectors, SOAs, splitters.
- :mod:`repro.photonics.converters` — DAC / ADC cost models.
- :mod:`repro.photonics.waveguide` — losses, WDM, and laser power budgets.
- :mod:`repro.photonics.mrbank` — MR banks and MR bank arrays: the
  non-coherent matrix-vector multiply engines (Fig. 3c).
- :mod:`repro.photonics.summation` — coherent summation and the optical
  comparator used by GHOST's reduce units (Figs. 3b, 7a).
- :mod:`repro.photonics.dse` — design-space exploration replacing the
  paper's Ansys Lumerical flow.
- :mod:`repro.photonics.noise` — analog noise injection for functional
  simulation and effective-precision estimation.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    ".microring": (
        "MicroringDesign", "Microring", "resonant_wavelength_nm",
        "free_spectral_range_nm",
    ),
    ".tuning": ("EOTuner", "TOTuner", "HybridTuner", "TuningEvent"),
    ".thermal": ("ThermalGrid", "ted_power_mw"),
    ".crosstalk": (
        "heterodyne_crosstalk_ratio", "homodyne_crosstalk_ratio",
        "ChannelPlan", "snr_db",
    ),
    ".devices": (
        "VCSEL", "Photodetector", "BalancedPhotodetector", "SOA",
        "SOAActivation",
    ),
    ".converters": ("DAC", "ADC"),
    ".waveguide": ("LossBudget", "LaserPowerSolver", "WDMBus"),
    ".mrbank": ("MRBank", "MRBankArray"),
    ".summation": ("CoherentSummationUnit", "OpticalComparator"),
    ".dse": ("MRDesignSpaceExplorer", "DesignPoint"),
    ".noise": ("AnalogNoiseModel", "effective_bits"),
})

__all__ = [
    "MicroringDesign",
    "Microring",
    "resonant_wavelength_nm",
    "free_spectral_range_nm",
    "EOTuner",
    "TOTuner",
    "HybridTuner",
    "TuningEvent",
    "ThermalGrid",
    "ted_power_mw",
    "heterodyne_crosstalk_ratio",
    "homodyne_crosstalk_ratio",
    "ChannelPlan",
    "snr_db",
    "VCSEL",
    "Photodetector",
    "BalancedPhotodetector",
    "SOA",
    "SOAActivation",
    "DAC",
    "ADC",
    "LossBudget",
    "LaserPowerSolver",
    "WDMBus",
    "MRBank",
    "MRBankArray",
    "CoherentSummationUnit",
    "OpticalComparator",
    "MRDesignSpaceExplorer",
    "DesignPoint",
    "AnalogNoiseModel",
    "effective_bits",
]
