"""Tests for the thermal crosstalk grid and TED (Section V.A)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.photonics.thermal import ThermalGrid, ted_power_mw


@pytest.fixture
def grid():
    return ThermalGrid(num_heaters=8)


class TestCouplingMatrix:
    def test_symmetric(self, grid):
        k = grid.coupling_matrix()
        assert np.allclose(k, k.T)

    def test_diagonal_dominant(self, grid):
        k = grid.coupling_matrix()
        assert np.all(np.diag(k) >= k.max(axis=1) - 1e-12)

    def test_diagonal_is_self_heating(self, grid):
        k = grid.coupling_matrix()
        assert np.allclose(np.diag(k), grid.kelvin_per_mw)

    def test_decays_with_distance(self, grid):
        k = grid.coupling_matrix()
        assert k[0, 1] > k[0, 2] > k[0, 7]

    @pytest.mark.parametrize("heaters", range(1, 131))
    def test_inverse_bands_equal_numerical_inverse(self, heaters):
        grid = ThermalGrid(num_heaters=heaters)
        diagonal, off = grid.inverse_bands()
        bands = np.diag(diagonal) + off * (
            np.eye(heaters, k=1) + np.eye(heaters, k=-1)
        )
        np.testing.assert_allclose(
            bands, np.linalg.inv(grid.coupling_matrix()), rtol=0, atol=1e-15
        )

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            ThermalGrid(num_heaters=0)
        with pytest.raises(ConfigurationError):
            ThermalGrid(num_heaters=4, pitch_um=0.0)


class TestTED:
    def test_ted_hits_targets_exactly(self, grid):
        rng = np.random.default_rng(0)
        # Keep targets well above the crosstalk floor so no heater clips.
        targets = rng.uniform(10.0, 30.0, grid.num_heaters)
        powers = grid.ted_powers_mw(targets)
        achieved = grid.actual_temperatures(powers)
        assert np.allclose(achieved, targets, atol=1e-8)

    def test_ted_clipped_heaters_overshoot_only(self, grid):
        """Heaters cannot cool: where the exact solution clips to zero the
        achieved temperature may exceed the target, never undershoot, and
        unclipped heaters still land exactly."""
        targets = np.zeros(grid.num_heaters)
        targets[0] = 50.0  # neighbours would need negative power
        powers = grid.ted_powers_mw(targets)
        achieved = grid.actual_temperatures(powers)
        assert np.all(achieved >= targets - 1e-8)
        active = powers > 1e-12
        assert np.allclose(achieved[active], targets[active], atol=1e-8)

    def test_naive_overshoots(self, grid):
        targets = np.full(grid.num_heaters, 20.0)
        errors = grid.crosstalk_error_k(targets)
        # Crosstalk only adds heat, so the naive controller overshoots.
        assert np.all(errors > 0.0)

    def test_ted_uses_less_total_power(self, grid):
        """The paper's claim: TED decreases TO tuning power."""
        rng = np.random.default_rng(1)
        targets = rng.uniform(5.0, 30.0, grid.num_heaters)
        assert ted_power_mw(grid, targets, use_ted=True) < ted_power_mw(
            grid, targets, use_ted=False
        )

    def test_ted_powers_nonnegative(self, grid):
        # Extreme target contrast would push the exact solution negative;
        # the active-set solve must clip at zero.
        targets = np.zeros(grid.num_heaters)
        targets[0] = 50.0
        powers = grid.ted_powers_mw(targets)
        assert np.all(powers >= 0.0)

    def test_zero_targets_zero_power(self, grid):
        powers = grid.ted_powers_mw(np.zeros(grid.num_heaters))
        assert np.allclose(powers, 0.0)

    def test_rejects_wrong_shape(self, grid):
        with pytest.raises(ConfigurationError):
            grid.ted_powers_mw(np.zeros(3))

    def test_rejects_negative_targets(self, grid):
        targets = np.zeros(grid.num_heaters)
        targets[2] = -1.0
        with pytest.raises(ConfigurationError):
            grid.ted_powers_mw(targets)

    def test_single_heater_ted_equals_naive(self):
        grid = ThermalGrid(num_heaters=1)
        targets = np.array([12.0])
        assert ted_power_mw(grid, targets, True) == pytest.approx(
            ted_power_mw(grid, targets, False)
        )

    def test_widely_spaced_heaters_ted_converges_to_naive(self):
        grid = ThermalGrid(num_heaters=4, pitch_um=500.0, decay_length_um=10.0)
        rng = np.random.default_rng(2)
        targets = rng.uniform(5.0, 20.0, 4)
        assert ted_power_mw(grid, targets, True) == pytest.approx(
            ted_power_mw(grid, targets, False), rel=1e-6
        )
