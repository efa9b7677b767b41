"""Differential tests: ``pareto_frontier`` against the pair-by-pair
implementation it replaced, kept here as the reference oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import SweepPoint, pareto_frontier
from repro.core.reports import EnergyReport, LatencyReport, RunReport
from repro.errors import ConfigurationError
from repro.nn.counting import OpCount


def reference_pareto_frontier(points):
    """The original frontier: every comparison re-reads both totals."""
    if not points:
        raise ConfigurationError("need at least one sweep point")
    frontier = []
    for candidate in points:
        dominated = any(
            other.latency_ns <= candidate.latency_ns
            and other.energy_pj <= candidate.energy_pj
            and (
                other.latency_ns < candidate.latency_ns
                or other.energy_pj < candidate.energy_pj
            )
            for other in points
        )
        if not dominated:
            frontier.append(candidate)
    frontier.sort(key=lambda p: (p.latency_ns, p.energy_pj, p.label))
    return frontier


def _point(label, latency, energy):
    report = RunReport(
        platform="p",
        workload="w",
        ops=OpCount(macs=1),
        latency=LatencyReport(compute_ns=latency, memory_ns=1.0),
        energy=EnergyReport(digital_pj=energy, laser_pj=0.5),
    )
    return SweepPoint(label=label, knobs={}, report=report)


# Few distinct values and labels, so duplicates, equal latencies, equal
# energies and full (latency, energy, label) ties are common.
_points = st.lists(
    st.tuples(
        st.sampled_from("abcd"),
        st.sampled_from([0.0, 1.0, 2.5, 2.5000000000000004, 7.0]),
        st.sampled_from([0.0, 1.0, 3.0, 1e12]),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(_points)
def test_frontier_matches_reference(rows):
    points = [_point(*row) for row in rows]
    got = pareto_frontier(points)
    want = reference_pareto_frontier(points)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


def test_full_ties_keep_input_order():
    """Points equal on latency, energy and label stay in input order."""
    points = [_point("same", 1.0, 1.0) for _ in range(4)]
    got = pareto_frontier(points)
    assert all(a is b for a, b in zip(got, points))


def test_rejects_empty():
    with pytest.raises(ConfigurationError):
        pareto_frontier([])
