"""Tests for cost reports and metric definitions (EPB, GOPS)."""

import math

import pytest

from repro.core.reports import (
    ENERGY_FIELDS,
    EnergyReport,
    LatencyReport,
    RunReport,
)
from repro.errors import ConfigurationError
from repro.nn.counting import OpCount


class TestEnergyReport:
    def test_total_sums_categories(self):
        report = EnergyReport(laser_pj=1.0, dac_pj=2.0, memory_pj=3.0)
        assert report.total_pj == pytest.approx(6.0)

    def test_addition(self):
        total = EnergyReport(laser_pj=1.0) + EnergyReport(laser_pj=2.0, adc_pj=1.0)
        assert total.laser_pj == 3.0
        assert total.adc_pj == 1.0

    def test_scaling(self):
        assert EnergyReport(dac_pj=2.0).scaled(3).dac_pj == 6.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            EnergyReport(laser_pj=-1.0)

    def test_as_dict_roundtrip(self):
        report = EnergyReport(laser_pj=1.5, static_pj=0.5)
        d = report.as_dict()
        assert d["laser_pj"] == 1.5
        assert sum(d.values()) == pytest.approx(report.total_pj)


class TestLatencyReport:
    def test_total(self):
        report = LatencyReport(compute_ns=10.0, memory_ns=5.0)
        assert report.total_ns == 15.0

    def test_addition_and_scaling(self):
        report = (
            LatencyReport(compute_ns=1.0) + LatencyReport(compute_ns=2.0)
        ).scaled(2)
        assert report.compute_ns == 6.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            LatencyReport(compute_ns=-1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestBreakdownBoundary:
    """Breakdowns reject non-finite values, naming the field, so a NaN
    never reaches a report total or an envelope."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "cls, name", [(EnergyReport, "tuning_pj"), (LatencyReport, "memory_ns")]
    )
    def test_rejects_non_finite_field(self, cls, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be >= 0"):
            cls(**{name: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "report", [EnergyReport(dac_pj=1.0), LatencyReport(compute_ns=1.0)]
    )
    def test_rejects_non_finite_scale_factor(self, report, value):
        with pytest.raises(ConfigurationError, match="^factor must be >= 0"):
            report.scaled(value)

    def test_totals_keep_declaration_order(self):
        values = [0.1, 1e16, 0.2, 3.0, 1e-3, 7.0, 0.5, 1e-9]
        report = EnergyReport(**dict(zip(ENERGY_FIELDS, values)))
        expected = 0
        for value in values:
            expected += value
        assert report.total_pj == expected


class TestRunReport:
    @pytest.fixture
    def report(self):
        return RunReport(
            platform="test",
            workload="wl",
            ops=OpCount(macs=500, adds=0),
            latency=LatencyReport(compute_ns=10.0),
            energy=EnergyReport(laser_pj=800.0),
            bits_per_value=8,
        )

    def test_gops_definition(self, report):
        # 1000 ops over 10 ns = 100 GOPS.
        assert report.gops == pytest.approx(100.0)

    def test_epb_definition(self, report):
        # 800 pJ over 1000 ops * 8 bits = 0.1 pJ/bit.
        assert report.epb_pj == pytest.approx(0.1)

    def test_average_power(self, report):
        assert report.average_power_mw == pytest.approx(80.0)

    def test_summary_contains_key_fields(self, report):
        text = report.summary()
        assert "test" in text and "wl" in text and "GOPS" in text

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigurationError):
            RunReport(
                platform="p",
                workload="w",
                ops=OpCount(macs=1),
                latency=LatencyReport(),
                energy=EnergyReport(),
            )

    def test_epb_rejects_zero_ops(self):
        report = RunReport(
            platform="p",
            workload="w",
            ops=OpCount(),
            latency=LatencyReport(compute_ns=1.0),
            energy=EnergyReport(),
        )
        with pytest.raises(ConfigurationError):
            _ = report.epb_pj
