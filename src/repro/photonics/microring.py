"""Microring resonator (MR) device model.

The MR is the workhorse of both accelerators: every multiply in TRON and
GHOST happens by tuning an MR's resonant wavelength so that a passing
optical signal's amplitude is attenuated by a controlled amount
(paper Section IV, Fig. 3a).

The resonance condition is the paper's equation (2):

    lambda_MR = 2 * pi * R * n_eff / m

where ``R`` is the ring radius, ``m`` the resonance order and ``n_eff`` the
effective index.  Transmission is modelled with standard coupled-mode
theory for all-pass and add-drop ring configurations (Bogaerts et al.,
"Silicon microring resonators", Laser Photonics Rev. 2012), which is the
same physics Ansys Lumerical INTERCONNECT evaluates numerically — see
DESIGN.md section 1 for the substitution argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.serialization import check_limits
from repro.errors import ConfigurationError
from repro.units import linear_to_db

#: Effective index of a typical 450x220 nm silicon strip waveguide at 1550 nm.
DEFAULT_N_EFF = 2.36

#: Group index of the same waveguide (sets the FSR).
DEFAULT_N_GROUP = 4.2


def resonant_wavelength_nm(radius_um: float, n_eff: float, order: int) -> float:
    """Resonant wavelength from the paper's equation (2), in nm.

    Args:
        radius_um: ring radius in micrometres.
        n_eff: effective refractive index of the ring waveguide.
        order: resonance order ``m`` (positive integer).

    Returns:
        The resonant wavelength ``lambda_MR`` in nm.
    """
    if radius_um <= 0.0:
        raise ConfigurationError(f"ring radius must be > 0 um, got {radius_um}")
    if n_eff <= 0.0:
        raise ConfigurationError(f"n_eff must be > 0, got {n_eff}")
    if order < 1:
        raise ConfigurationError(f"resonance order must be >= 1, got {order}")
    circumference_nm = 2.0 * math.pi * radius_um * 1e3
    return circumference_nm * n_eff / order


def resonance_order_for(radius_um: float, n_eff: float, target_wavelength_nm: float) -> int:
    """Closest integer resonance order placing a resonance near a target wavelength."""
    if target_wavelength_nm <= 0.0:
        raise ConfigurationError(
            f"target wavelength must be > 0 nm, got {target_wavelength_nm}"
        )
    circumference_nm = 2.0 * math.pi * radius_um * 1e3
    order = round(circumference_nm * n_eff / target_wavelength_nm)
    return max(order, 1)


def free_spectral_range_nm(radius_um: float, n_group: float, wavelength_nm: float) -> float:
    """Free spectral range (spacing between adjacent resonances) in nm.

    FSR = lambda^2 / (n_g * L) with L the ring circumference.
    """
    if n_group <= 0.0:
        raise ConfigurationError(f"group index must be > 0, got {n_group}")
    circumference_nm = 2.0 * math.pi * radius_um * 1e3
    return wavelength_nm**2 / (n_group * circumference_nm)


# ----------------------------------------------------------------------
# Vectorized kernels (shared by the scalar device model and the batched
# sweep / Monte-Carlo engines)
# ----------------------------------------------------------------------


def _pow10(exponent):
    """``10 ** exponent`` elementwise, bit-identical to Python's ``**``.

    ``np.power`` and CPython's ``float.__pow__`` disagree in the last
    ULP on this platform, so the batched kernels evaluate the one power
    term per element through Python — design batches are small (one
    entry per distinct ring design), so this costs nothing measurable
    while keeping batched results bit-identical to the scalar path.
    """
    exponent = np.asarray(exponent, dtype=float)
    if exponent.ndim == 0:
        return np.float64(10.0 ** float(exponent))
    flat = np.array([10.0 ** float(e) for e in exponent.ravel()])
    return flat.reshape(exponent.shape)


@dataclass(frozen=True)
class RingWorkingPoint:
    """The batched working point of one or more microring designs.

    All fields are numpy arrays of a common broadcast shape (0-d for a
    single design).  This is what the cost models actually consume: the
    resonance placement, linewidth and achievable transmission window
    of each design, from which imprint shifts and tuning powers follow
    without any further transcendental math.

    Attributes:
        order: resonance order ``m`` closest to the target wavelength.
        resonance_nm: nominal resonant wavelength.
        fsr_nm: free spectral range at the nominal resonance.
        fwhm_nm: full width at half maximum of the resonance dip.
        min_transmission: through-port dip floor ``T_min``.
        max_transmission: through-port transmission at half-FSR
            detuning ``T_max`` (the usable imprint maximum).
    """

    order: np.ndarray
    resonance_nm: np.ndarray
    fsr_nm: np.ndarray
    fwhm_nm: np.ndarray
    min_transmission: np.ndarray
    max_transmission: np.ndarray


def ring_working_point_kernel(
    radius_um,
    n_eff=DEFAULT_N_EFF,
    n_group=DEFAULT_N_GROUP,
    self_coupling=0.985,
    drop_coupling=0.985,
    loss_db_per_cm=2.0,
    target_wavelength_nm: float = 1550.0,
) -> RingWorkingPoint:
    """Working points of a whole batch of ring designs in one pass.

    The vectorized form of ``Microring.at_wavelength(design, target)``
    followed by the ``fsr_nm`` / ``fwhm_nm`` / ``min_through_transmission``
    / ``transmission_at_max_detuning`` property chain: every design
    parameter may be an array and the results broadcast.  Each
    arithmetic step replicates the scalar path's operation order, so a
    single-design call is bit-identical to the :class:`Microring`
    instance path — the engine's physics caches rely on this.
    """
    radius_um = np.asarray(radius_um, dtype=float)
    if np.any(radius_um <= 0.0):
        raise ConfigurationError("ring radius must be > 0 um")
    n_eff = np.asarray(n_eff, dtype=float)
    n_group = np.asarray(n_group, dtype=float)
    r1 = np.asarray(self_coupling, dtype=float)
    r2 = np.asarray(drop_coupling, dtype=float)
    loss_db_per_cm = np.asarray(loss_db_per_cm, dtype=float)

    circumference_nm = 2.0 * math.pi * radius_um * 1e3
    order = np.maximum(np.round(circumference_nm * n_eff / target_wavelength_nm), 1.0)
    resonance_nm = circumference_nm * n_eff / order
    fsr_nm = resonance_nm**2 / (n_group * circumference_nm)

    circumference_cm = 2.0 * math.pi * radius_um * 1e-4
    loss_db = loss_db_per_cm * circumference_cm
    amplitude = _pow10(-loss_db / 20.0)

    rra = r1 * r2 * amplitude
    fwhm_nm = (
        (1.0 - rra)
        * resonance_nm**2
        / (math.pi * n_group * circumference_nm * np.sqrt(rra))
    )
    min_transmission = ((r2 * amplitude - r1) / (1.0 - r1 * r2 * amplitude)) ** 2

    # T_max: through transmission at half-FSR detuning, replicating the
    # phase expansion of Microring.round_trip_phase term by term.
    detuning_nm = resonance_nm + 0.5 * fsr_nm - resonance_nm
    dphi_dlam = -2.0 * math.pi * n_group * circumference_nm / resonance_nm**2
    phi = 2.0 * math.pi * order + dphi_dlam * detuning_nm
    cos_phi = np.cos(phi)
    numerator = (r2 * amplitude) ** 2 - 2.0 * r1 * r2 * amplitude * cos_phi + r1**2
    denominator = 1.0 - 2.0 * r1 * r2 * amplitude * cos_phi + (r1 * r2 * amplitude) ** 2
    max_transmission = numerator / denominator

    return RingWorkingPoint(
        order=order,
        resonance_nm=resonance_nm,
        fsr_nm=fsr_nm,
        fwhm_nm=fwhm_nm,
        min_transmission=min_transmission,
        max_transmission=max_transmission,
    )


def design_working_point(
    design: "MicroringDesign", target_wavelength_nm: float = 1550.0
) -> RingWorkingPoint:
    """The (0-d) working point of one :class:`MicroringDesign`."""
    return ring_working_point_kernel(
        design.radius_um,
        n_eff=design.n_eff,
        n_group=design.n_group,
        self_coupling=design.self_coupling,
        drop_coupling=design.drop_coupling,
        loss_db_per_cm=design.loss_db_per_cm,
        target_wavelength_nm=target_wavelength_nm,
    )


def through_transmission_kernel(
    wavelength_nm,
    radius_um,
    n_eff=DEFAULT_N_EFF,
    n_group=DEFAULT_N_GROUP,
    self_coupling=0.985,
    drop_coupling=0.985,
    loss_db_per_cm=2.0,
    delta_lambda_nm=0.0,
    target_wavelength_nm: float = 1550.0,
):
    """Through-port power transmission, batched over probe wavelengths
    AND ring designs simultaneously.

    The vectorized form of :meth:`Microring.through_transmission` for a
    ring created with :meth:`Microring.at_wavelength`: every argument
    may be an array and the results broadcast (e.g. a column of
    wavelengths against a row of radii yields the full transmission
    surface in one call).  Bit-identical per element to the scalar
    instance path.
    """
    working = ring_working_point_kernel(
        radius_um,
        n_eff=n_eff,
        n_group=n_group,
        self_coupling=self_coupling,
        drop_coupling=drop_coupling,
        loss_db_per_cm=loss_db_per_cm,
        target_wavelength_nm=target_wavelength_nm,
    )
    wavelength_nm = np.asarray(wavelength_nm, dtype=float)
    delta_lambda_nm = np.asarray(delta_lambda_nm, dtype=float)
    r1 = np.asarray(self_coupling, dtype=float)
    r2 = np.asarray(drop_coupling, dtype=float)
    radius_um = np.asarray(radius_um, dtype=float)
    circumference_cm = 2.0 * math.pi * radius_um * 1e-4
    loss_db = np.asarray(loss_db_per_cm, dtype=float) * circumference_cm
    amplitude = _pow10(-loss_db / 20.0)

    circumference_nm = 2.0 * math.pi * radius_um * 1e3
    detuning_nm = wavelength_nm - (working.resonance_nm + delta_lambda_nm)
    dphi_dlam = (
        -2.0
        * math.pi
        * np.asarray(n_group, dtype=float)
        * circumference_nm
        / working.resonance_nm**2
    )
    phi = 2.0 * math.pi * working.order + dphi_dlam * detuning_nm
    cos_phi = np.cos(phi)
    numerator = (r2 * amplitude) ** 2 - 2.0 * r1 * r2 * amplitude * cos_phi + r1**2
    denominator = 1.0 - 2.0 * r1 * r2 * amplitude * cos_phi + (r1 * r2 * amplitude) ** 2
    return numerator / denominator


def imprint_shift_kernel(values, working: RingWorkingPoint, full_scale: float = 1.0):
    """Resonance shifts (nm) imprinting normalized values, batched.

    The vectorized form of :meth:`Microring.imprint` over any broadcast
    combination of values and ring working points, replicating the
    scalar path's clamp and Lorentzian inversion step by step.
    """
    if full_scale <= 0.0:
        raise ConfigurationError(f"full_scale must be > 0, got {full_scale}")
    values = np.asarray(values, dtype=float)
    if np.any(values < 0.0) or np.any(values > full_scale):
        raise ConfigurationError(
            f"imprint values outside range [0, {full_scale}]"
        )
    t_min = working.min_transmission
    t_max = working.max_transmission
    target = t_min + (values / full_scale) * (t_max - t_min)
    target = np.where(target >= 1.0, 1.0 - 1e-9, target)
    t = np.maximum(target, t_min)
    ratio = (t - t_min) / (1.0 - t)
    return 0.5 * working.fwhm_nm * np.sqrt(ratio)


@dataclass(frozen=True)
class MicroringDesign:
    """Static design parameters of a microring resonator.

    Attributes:
        radius_um: ring radius in micrometres.
        n_eff: effective index at the design wavelength.
        n_group: group index (controls FSR and tuning-shift conversion).
        self_coupling: through-coupling coefficient ``r`` of the input
            coupler (amplitude, 0 < r < 1).  Larger r = weaker coupling =
            higher Q.
        drop_coupling: through-coupling coefficient of the drop-side
            coupler; equal to ``self_coupling`` for a symmetric add-drop
            ring (the default — it gives a deep through-port extinction
            regardless of ring loss), ``1.0`` for an all-pass ring.
        loss_db_per_cm: propagation loss inside the ring waveguide.
        coupling_gap_nm: physical gap between bus and ring waveguides.
            Only used by the homodyne-crosstalk model (a larger gap couples
            less stray light back into the bus).
    """

    radius_um: float = 5.0
    n_eff: float = DEFAULT_N_EFF
    n_group: float = DEFAULT_N_GROUP
    self_coupling: float = 0.985
    drop_coupling: float = 0.985
    loss_db_per_cm: float = 2.0
    coupling_gap_nm: float = 200.0

    LIMITS = {
        "radius_um": "> 0",
        "n_eff": "> 0",
        "n_group": "> 0",
        "self_coupling": "(0, 1)",
        "drop_coupling": "(0, 1]",
        "loss_db_per_cm": ">= 0",
        "coupling_gap_nm": "> 0",
    }

    __post_init__ = check_limits

    @property
    def circumference_cm(self) -> float:
        """Ring circumference in centimetres."""
        return 2.0 * math.pi * self.radius_um * 1e-4

    @property
    def round_trip_amplitude(self) -> float:
        """Single round-trip amplitude transmission ``a`` (1 = lossless)."""
        loss_db = self.loss_db_per_cm * self.circumference_cm
        return 10.0 ** (-loss_db / 20.0)

    def with_gap(self, coupling_gap_nm: float) -> "MicroringDesign":
        """Copy of this design with a different bus-ring coupling gap."""
        return replace(self, coupling_gap_nm=coupling_gap_nm)


@dataclass
class Microring:
    """A microring resonator instance: a design plus an operating point.

    The operating point is the resonance order (which fixes the nominal
    resonant wavelength) and the current tuning-induced resonance shift.

    Example::

        design = MicroringDesign(radius_um=5.0)
        ring = Microring.at_wavelength(design, 1550.0)
        t = ring.through_transmission(1550.0)   # deep dip on resonance
    """

    design: MicroringDesign
    order: int
    delta_lambda_nm: float = 0.0
    _base_resonance_nm: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ConfigurationError(f"resonance order must be >= 1, got {self.order}")
        self._base_resonance_nm = resonant_wavelength_nm(
            self.design.radius_um, self.design.n_eff, self.order
        )

    @classmethod
    def at_wavelength(
        cls, design: MicroringDesign, target_wavelength_nm: float
    ) -> "Microring":
        """Create a ring whose nominal resonance is closest to a target."""
        order = resonance_order_for(
            design.radius_um, design.n_eff, target_wavelength_nm
        )
        return cls(design=design, order=order)

    @property
    def resonance_nm(self) -> float:
        """Current resonant wavelength including any tuning shift."""
        return self._base_resonance_nm + self.delta_lambda_nm

    @property
    def fsr_nm(self) -> float:
        """Free spectral range at the nominal resonance."""
        return free_spectral_range_nm(
            self.design.radius_um, self.design.n_group, self._base_resonance_nm
        )

    @property
    def fwhm_nm(self) -> float:
        """Full width at half maximum of the resonance dip.

        FWHM = (1 - r1*r2*a) * lambda^2 / (pi * n_g * L * sqrt(r1*r2*a))
        """
        r1 = self.design.self_coupling
        r2 = self.design.drop_coupling
        a = self.design.round_trip_amplitude
        rra = r1 * r2 * a
        circumference_nm = 2.0 * math.pi * self.design.radius_um * 1e3
        lam = self._base_resonance_nm
        return (
            (1.0 - rra)
            * lam**2
            / (math.pi * self.design.n_group * circumference_nm * math.sqrt(rra))
        )

    @property
    def quality_factor(self) -> float:
        """Loaded quality factor Q = lambda / FWHM."""
        return self._base_resonance_nm / self.fwhm_nm

    @property
    def finesse(self) -> float:
        """Finesse = FSR / FWHM."""
        return self.fsr_nm / self.fwhm_nm

    def round_trip_phase(self, wavelength_nm: float) -> float:
        """Round-trip phase at a probe wavelength, referenced to resonance.

        Near a resonance of order ``m`` the phase is ``2*pi*m`` exactly on
        resonance; we expand around the (possibly tuned) resonance using the
        group index so that tuning shifts move the whole lineshape rigidly.
        """
        detuning_nm = wavelength_nm - self.resonance_nm
        circumference_nm = 2.0 * math.pi * self.design.radius_um * 1e3
        # dphi/dlambda = -2*pi*n_g*L/lambda^2 (group index captures
        # dispersion).  The slope is evaluated at the *base* resonance so a
        # tuning shift translates the lineshape rigidly.
        dphi_dlam = (
            -2.0
            * math.pi
            * self.design.n_group
            * circumference_nm
            / self._base_resonance_nm**2
        )
        return 2.0 * math.pi * self.order + dphi_dlam * detuning_nm

    def through_transmission(self, wavelength_nm):
        """Power transmission at the through port (all-pass / add-drop).

        T_thru = (r2^2 a^2 - 2 r1 r2 a cos(phi) + r1^2)
                 / (1 - 2 r1 r2 a cos(phi) + (r1 r2 a)^2)

        Accepts a scalar or numpy array of wavelengths; returns the same
        shape.  Values are power ratios in [0, 1].
        """
        wavelength_nm = np.asarray(wavelength_nm, dtype=float)
        r1 = self.design.self_coupling
        r2 = self.design.drop_coupling
        a = self.design.round_trip_amplitude
        phi = self._phase_array(wavelength_nm)
        cos_phi = np.cos(phi)
        numerator = (r2 * a) ** 2 - 2.0 * r1 * r2 * a * cos_phi + r1**2
        denominator = 1.0 - 2.0 * r1 * r2 * a * cos_phi + (r1 * r2 * a) ** 2
        result = numerator / denominator
        if result.ndim == 0:
            return float(result)
        return result

    def drop_transmission(self, wavelength_nm):
        """Power transmission at the drop port of an add-drop ring.

        T_drop = (1 - r1^2)(1 - r2^2) a / (1 - 2 r1 r2 a cos(phi) + (r1 r2 a)^2)

        For an all-pass design (``drop_coupling == 1``) this is identically
        zero.  Accepts scalars or arrays.
        """
        wavelength_nm = np.asarray(wavelength_nm, dtype=float)
        r1 = self.design.self_coupling
        r2 = self.design.drop_coupling
        a = self.design.round_trip_amplitude
        phi = self._phase_array(wavelength_nm)
        cos_phi = np.cos(phi)
        numerator = (1.0 - r1**2) * (1.0 - r2**2) * a
        denominator = 1.0 - 2.0 * r1 * r2 * a * cos_phi + (r1 * r2 * a) ** 2
        result = numerator / denominator
        if result.ndim == 0:
            return float(result)
        return result

    def _phase_array(self, wavelength_nm: np.ndarray) -> np.ndarray:
        return self.round_trip_phase(wavelength_nm)

    # ------------------------------------------------------------------
    # Parameter imprinting
    # ------------------------------------------------------------------

    @property
    def min_through_transmission(self) -> float:
        """Through transmission exactly on resonance (the dip floor)."""
        r1 = self.design.self_coupling
        r2 = self.design.drop_coupling
        a = self.design.round_trip_amplitude
        return ((r2 * a - r1) / (1.0 - r1 * r2 * a)) ** 2

    @property
    def extinction_ratio_db(self) -> float:
        """Extinction ratio of the through-port dip in dB."""
        floor = self.min_through_transmission
        if floor == 0.0:
            return math.inf
        return linear_to_db(1.0 / floor)

    def detuning_for_transmission(self, target_transmission: float) -> float:
        """Resonance shift (nm) that yields a target through transmission.

        Inverts the Lorentzian approximation of the through-port dip:

            T(d) = 1 - (1 - T_min) / (1 + (2 d / FWHM)^2)

        Args:
            target_transmission: desired power transmission in
                ``[min_through_transmission, 1)``.

        Returns:
            The detuning ``d`` in nm (non-negative; callers choose the sign).

        Raises:
            ConfigurationError: if the target is below the dip floor or >= 1
                (exactly 1 requires infinite detuning).
        """
        t_min = self.min_through_transmission
        if target_transmission < t_min - 1e-12:
            raise ConfigurationError(
                f"target transmission {target_transmission:.4f} is below the "
                f"dip floor {t_min:.4f}"
            )
        if target_transmission >= 1.0:
            raise ConfigurationError(
                "target transmission must be < 1 (full transparency needs "
                "infinite detuning)"
            )
        t = max(target_transmission, t_min)
        ratio = (t - t_min) / (1.0 - t)
        return 0.5 * self.fwhm_nm * math.sqrt(ratio)

    def imprint(self, value: float, full_scale: float = 1.0) -> float:
        """Resonance shift (nm) encoding ``value`` as an amplitude weight.

        A normalized value in ``[0, full_scale]`` maps linearly onto the
        achievable through-transmission range ``[T_min, T_max]`` where
        ``T_max`` is the transmission at half-FSR detuning.  Returns the
        required detuning in nm.

        This is the "imprinting a parameter onto the signal" operation of
        Fig. 3(a).
        """
        if full_scale <= 0.0:
            raise ConfigurationError(f"full_scale must be > 0, got {full_scale}")
        if not 0.0 <= value <= full_scale:
            raise ConfigurationError(
                f"value {value} outside imprint range [0, {full_scale}]"
            )
        t_min = self.min_through_transmission
        t_max = self.transmission_at_max_detuning()
        target = t_min + (value / full_scale) * (t_max - t_min)
        if target >= 1.0:
            target = 1.0 - 1e-9
        return self.detuning_for_transmission(target)

    def transmission_at_max_detuning(self) -> float:
        """Through transmission at half-FSR detuning (the usable maximum)."""
        return float(self.through_transmission(self.resonance_nm + 0.5 * self.fsr_nm))

    def apply_shift(self, delta_lambda_nm: float) -> None:
        """Set the tuning-induced resonance shift (nm)."""
        self.delta_lambda_nm = delta_lambda_nm

    def shift_for_index_change(self, delta_n_eff: float) -> float:
        """Resonance shift caused by an effective-index change.

        d(lambda)/d(n_eff) = lambda / n_g  (first-order perturbation).
        """
        return self._base_resonance_nm * delta_n_eff / self.design.n_group
