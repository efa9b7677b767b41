"""Tests for the Monte-Carlo robustness subsystem."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.robustness import (
    MonteCarloResult,
    RobustPoint,
    _run_naive,
    monte_carlo_sweep,
    run_monte_carlo,
    yield_aware_pareto,
)
from repro.analysis.sweep import SweepSpace
from repro.core import ExecutionContext, GHOST, TRON, TRONConfig, get_workload
from repro.errors import ConfigurationError
from repro.photonics.variation import ProcessVariationModel

CTX = ExecutionContext(variation=ProcessVariationModel(), seed=11)


def _mc(samples=8, ctx=CTX):
    return run_monte_carlo(
        make_accelerator=lambda: TRON(),
        make_workload=lambda: get_workload("MLP-mnist"),
        context=ctx,
        samples=samples,
    )


def _naive(samples=8, ctx=CTX):
    """The N-scalar-runs reference over the same population."""
    return _run_naive(
        lambda: TRON(), lambda: get_workload("MLP-mnist"), ctx, samples
    )


class TestMonteCarloEngine:
    def test_vectorized_matches_naive(self):
        vectorized = _mc(samples=8)
        naive = _naive(samples=8)
        assert np.array_equal(vectorized.operational, naive.operational)
        assert np.array_equal(
            vectorized.fully_functional, naive.fully_functional
        )
        np.testing.assert_allclose(
            vectorized.latency_ns, naive.latency_ns, rtol=1e-9
        )
        np.testing.assert_allclose(
            vectorized.energy_pj, naive.energy_pj, rtol=1e-9
        )
        np.testing.assert_allclose(
            vectorized.tuning_power_mw, naive.tuning_power_mw, rtol=1e-6
        )

    def test_vectorized_matches_naive_with_dead_dies(self):
        ctx = dataclasses.replace(CTX, tuner_range_nm=6.0)
        vectorized = _mc(samples=16, ctx=ctx)
        naive = _naive(samples=16, ctx=ctx)
        assert np.array_equal(vectorized.operational, naive.operational)
        assert np.array_equal(
            vectorized.fully_functional, naive.fully_functional
        )
        np.testing.assert_allclose(
            vectorized.energy_pj, naive.energy_pj, rtol=1e-9, equal_nan=True
        )
        # Some dies must be degraded at this tuner range for the test to
        # mean anything.
        assert vectorized.yield_fraction < 1.0

    def test_reproducible_and_seed_sensitive(self):
        a = _mc(samples=6)
        b = _mc(samples=6)
        assert np.array_equal(a.energy_pj, b.energy_pj)
        other = _mc(samples=6, ctx=dataclasses.replace(CTX, seed=12))
        assert not np.array_equal(a.energy_pj, other.energy_pj)

    def test_dead_dies_are_nan(self):
        ctx = dataclasses.replace(CTX, tuner_range_nm=2.0)
        result = _mc(samples=16, ctx=ctx)
        assert result.operational_fraction < 1.0
        dead = ~result.operational
        assert np.all(np.isnan(result.latency_ns[dead]))
        assert np.all(np.isnan(result.energy_pj[dead]))

    def test_distributions_and_dict(self):
        result = _mc(samples=8)
        assert isinstance(result, MonteCarloResult)
        assert result.samples == 8
        assert 0.0 <= result.yield_fraction <= 1.0
        assert result.mean_energy_pj > result.nominal.energy_pj
        payload = result.to_dict()
        assert payload["samples"] == 8
        assert payload["energy_pj"]["p95"] >= payload["energy_pj"]["p5"]
        import json

        json.dumps(payload)  # must be serializable
        assert "MLP-mnist" in result.summary()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            _mc(samples=0)
        from repro.core import PinnedArrayPhysics

        pinned = CTX.with_pinned({(64, 64): PinnedArrayPhysics(64, 64, 0.0)})
        with pytest.raises(ConfigurationError):
            _mc(samples=2, ctx=pinned)


def _point(label, latency, energy, yld):
    result = _mc(samples=2)
    point = RobustPoint(label=label, knobs={}, result=result)
    # Pin the metrics for frontier arithmetic without re-running MC.
    result.latency_ns = np.array([latency, latency])
    result.energy_pj = np.array([energy, energy])
    result.operational = np.array([True, True])
    result.fully_functional = np.array([yld >= 0.5, yld >= 1.0])
    return point


class TestYieldAwarePareto:
    def test_low_yield_points_cut(self):
        fast_fragile = _point("fragile", 1.0, 1.0, 0.0)
        slow_solid = _point("solid", 5.0, 5.0, 1.0)
        frontier = yield_aware_pareto(
            [fast_fragile, slow_solid], yield_threshold=0.9
        )
        assert [p.label for p in frontier] == ["solid"]

    def test_all_points_below_threshold_is_empty(self):
        assert (
            yield_aware_pareto([_point("a", 1.0, 1.0, 0.0)], yield_threshold=0.9)
            == []
        )

    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            yield_aware_pareto([], yield_threshold=1.5)

    def test_dominance_among_survivors(self):
        a = _point("a", 1.0, 1.0, 1.0)
        b = _point("b", 2.0, 2.0, 1.0)
        frontier = yield_aware_pareto([a, b], yield_threshold=0.5)
        assert [p.label for p in frontier] == ["a"]

    def test_zero_operational_point_never_ships(self):
        """A config with no working dies (nan metrics) stays off the
        frontier even at yield_threshold=0."""
        good = _point("good", 2.0, 2.0, 1.0)
        dead = _point("dead", 0.0, 0.0, 0.0)
        dead.result.operational = np.array([False, False])
        dead.result.latency_ns = np.array([np.nan, np.nan])
        dead.result.energy_pj = np.array([np.nan, np.nan])
        assert np.isnan(dead.latency_ns)
        frontier = yield_aware_pareto([good, dead], yield_threshold=0.0)
        assert [p.label for p in frontier] == ["good"]


class TestMonteCarloSweep:
    def test_sweeps_every_knob_setting(self):
        space = SweepSpace(
            name="mc",
            knobs=SweepSpace.ordered_knobs({"ff_arrays": (4, 8)}),
            build_accelerator=lambda knobs: TRON(
                TRONConfig(num_ff_arrays=int(knobs["ff_arrays"]))
            ),
            build_workload=lambda: get_workload("MLP-mnist"),
            label=lambda knobs: f"FF{knobs['ff_arrays']}",
        )
        points = monte_carlo_sweep(space, CTX, samples=4)
        assert [p.label for p in points] == ["FF4", "FF8"]
        assert all(p.result.samples == 4 for p in points)
        assert all(0.0 <= p.yield_fraction <= 1.0 for p in points)
        payload = points[0].to_dict()
        assert payload["label"] == "FF4"

    def test_ghost_platform_supported(self):
        result = run_monte_carlo(
            make_accelerator=lambda: GHOST(),
            make_workload=lambda: get_workload("GCN-cora"),
            context=CTX,
            samples=4,
        )
        assert result.platform == "GHOST"
        assert result.operational_fraction == 1.0