"""Thermal crosstalk between heaters and thermal eigenmode decomposition.

TO tuning heats a ring with an integrated micro-heater, but heat spreads:
a heater raises the temperature of *neighbouring* rings too (thermal
crosstalk), detuning them.  The thermal eigenmode decomposition (TED)
method referenced by the paper (Section V.A, originally from Milanizadeh
et al. and adopted by SONIC) inverts the full thermal coupling matrix so
every ring lands exactly on its target temperature while the total heater
power drops, because neighbours' leakage is *used* instead of fought.

We model a bank of ``n`` rings on a line (or grid) with an exponential
distance-decay coupling matrix — the standard compact model for on-chip
thermal spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class ThermalGrid:
    """Thermal coupling model for a bank of heaters.

    Attributes:
        num_heaters: number of rings/heaters in the bank.
        pitch_um: centre-to-centre spacing between adjacent rings.
        decay_length_um: 1/e decay length of thermal crosstalk in silicon
            (tens of micrometres for SOI with no trenches).
        kelvin_per_mw: self-heating coefficient — temperature rise of a ring
            per mW dissipated in its own heater.
    """

    num_heaters: int
    pitch_um: float = 20.0
    decay_length_um: float = 15.0
    kelvin_per_mw: float = 10.0

    def __post_init__(self) -> None:
        if self.num_heaters < 1:
            raise ConfigurationError(
                f"need at least one heater, got {self.num_heaters}"
            )
        if self.pitch_um <= 0.0 or self.decay_length_um <= 0.0:
            raise ConfigurationError("pitch and decay length must be > 0 um")
        if self.kelvin_per_mw <= 0.0:
            raise ConfigurationError("self-heating coefficient must be > 0 K/mW")

    def coupling_matrix(self) -> np.ndarray:
        """Symmetric matrix K with T = K @ P (temperatures from powers).

        ``K[i][j] = kelvin_per_mw * exp(-d_ij / decay_length)`` where
        ``d_ij`` is the distance between rings i and j.
        """
        positions = np.arange(self.num_heaters) * self.pitch_um
        distance = np.abs(positions[:, None] - positions[None, :])
        return self.kelvin_per_mw * np.exp(-distance / self.decay_length_um)

    def inverse_bands(self) -> Tuple[np.ndarray, float]:
        """The nonzero bands of ``inv(coupling_matrix())``.

        With ``rho = exp(-pitch / decay_length)`` the coupling matrix is
        ``k * rho^|i-j|``, whose inverse is exactly tridiagonal:
        ``tridiag(-rho, 1 + rho^2, -rho) / (k (1 - rho^2))``, with ``1``
        in place of ``1 + rho^2`` at both ends (``1 / k`` for one
        heater).  So ``P = K^-1 T`` is the 3-point stencil
        ``diagonal[j] * T[j] + off_diagonal * (T[j-1] + T[j+1])``.

        Returns:
            ``(diagonal, off_diagonal)``: the ``(num_heaters,)`` main
            diagonal and the scalar entry of both neighbour bands.
        """
        rho = float(np.exp(-self.pitch_um / self.decay_length_um))
        scale = 1.0 / (self.kelvin_per_mw * (1.0 - rho * rho))
        diagonal = np.full(self.num_heaters, (1.0 + rho * rho) * scale)
        diagonal[[0, -1]] = scale
        if self.num_heaters == 1:
            diagonal[0] = 1.0 / self.kelvin_per_mw
        return diagonal, -rho * scale

    def naive_powers_mw(self, target_temps_k: np.ndarray) -> np.ndarray:
        """Heater powers ignoring crosstalk: P_i = T_i / K_ii.

        This is what a per-ring controller without TED would apply; the
        resulting *actual* temperatures overshoot because neighbours leak
        heat in.
        """
        targets = self._validate_targets(target_temps_k)
        return targets / self.kelvin_per_mw

    def ted_powers_mw(self, target_temps_k: np.ndarray) -> np.ndarray:
        """TED heater powers: solve K @ P = T exactly.

        Uses the thermal eigenmode decomposition (equivalently, solving the
        linear system through the eigenbasis of the symmetric coupling
        matrix).  Negative solutions are clipped to zero — a heater cannot
        cool — and the system re-solved on the active set.
        """
        targets = self._validate_targets(target_temps_k)
        matrix = self.coupling_matrix()
        # Solve through the eigendecomposition (the "eigenmode" in TED).
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        modal_targets = eigenvectors.T @ targets
        modal_powers = modal_targets / eigenvalues
        powers = eigenvectors @ modal_powers
        if np.all(powers >= -1e-12):
            return np.clip(powers, 0.0, None)
        return self._solve_nonnegative(matrix, targets)

    def actual_temperatures(self, powers_mw: np.ndarray) -> np.ndarray:
        """Temperatures produced by a power vector (includes crosstalk)."""
        powers = np.asarray(powers_mw, dtype=float)
        if powers.shape != (self.num_heaters,):
            raise ConfigurationError(
                f"expected {self.num_heaters} powers, got shape {powers.shape}"
            )
        return self.coupling_matrix() @ powers

    def crosstalk_error_k(self, target_temps_k: np.ndarray) -> np.ndarray:
        """Per-ring temperature error of the naive (no-TED) controller."""
        targets = self._validate_targets(target_temps_k)
        naive = self.naive_powers_mw(targets)
        return self.actual_temperatures(naive) - targets

    def _validate_targets(self, target_temps_k) -> np.ndarray:
        targets = np.asarray(target_temps_k, dtype=float)
        if targets.shape != (self.num_heaters,):
            raise ConfigurationError(
                f"expected {self.num_heaters} target temperatures, "
                f"got shape {targets.shape}"
            )
        if np.any(targets < 0.0):
            raise ConfigurationError("target temperature rises must be >= 0 K")
        return targets

    def _solve_nonnegative(
        self, matrix: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Active-set solve of K @ P = T with P >= 0.

        Iteratively zeroes heaters whose exact solution went negative and
        re-solves the reduced system; the loop terminates because the
        active set shrinks monotonically.
        """
        active = np.ones(self.num_heaters, dtype=bool)
        powers = np.zeros(self.num_heaters)
        for _ in range(self.num_heaters):
            idx = np.where(active)[0]
            sub = matrix[np.ix_(idx, idx)]
            sol = np.linalg.solve(sub, targets[idx])
            if np.all(sol >= -1e-12):
                powers[:] = 0.0
                powers[idx] = np.clip(sol, 0.0, None)
                return powers
            active[idx[sol < 0.0]] = False
            if not active.any():
                return np.zeros(self.num_heaters)
        powers[:] = 0.0
        powers[np.where(active)[0]] = np.clip(
            np.linalg.solve(
                matrix[np.ix_(np.where(active)[0], np.where(active)[0])],
                targets[np.where(active)[0]],
            ),
            0.0,
            None,
        )
        return powers


def ted_power_mw(
    grid: ThermalGrid, target_temps_k: np.ndarray, use_ted: bool = True
) -> float:
    """Total heater power for a bank, with or without TED.

    This is the quantity the ablation bench (A2 in DESIGN.md) sweeps: the
    paper claims TED "effectively decrease[s] the power consumption
    associated with TO tuning".
    """
    if use_ted:
        return float(np.sum(grid.ted_powers_mw(np.asarray(target_temps_k))))
    return float(np.sum(grid.naive_powers_mw(np.asarray(target_temps_k))))
