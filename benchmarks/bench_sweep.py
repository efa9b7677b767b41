"""The sweep engine's evaluation path and scalar oracle vs. naive.

A >= 500 point combined TRON + GHOST knob grid evaluated through the
``soa`` arm — ``run_sweep``, the library's one sweep path (the whole
grid as stacked NumPy columns, scalar reports materialized from the
stack) — and the ``serial`` scalar oracle (one workload
materialization, one ``Accelerator.run`` per point) against the naive
sequential baseline (per-point workload rebuild + physics recompute).
The library offers no way to pick the two scalar arms, so they are
built here.  Both must be **bit-identical** to scalar
runs — every Pareto-frontier point of the serial sweep is re-evaluated
naively and compared exactly, and every soa point is compared against
its serial twin — and the speedups must hold the bars
``run_sweep_bench.py`` gates on when it records BENCH_sweep.json.
"""

import time

from repro.analysis.sweep import (
    SweepPoint,
    _run_serial,
    ghost_sweep_space,
    pareto_frontier,
    run_sweep,
    tron_sweep_space,
)
from repro.core.engine import memo


def production_spaces(quick: bool = False):
    """The benchmark grid: >= 500 combined points (8 in quick mode)."""
    if quick:
        return [
            tron_sweep_space(
                head_units=(4, 8), array_sizes=(32, 64), clocks_ghz=(5.0,)
            ),
            ghost_sweep_space(lanes=(8, 16), edge_units=(16, 32)),
        ]
    return [
        tron_sweep_space(
            head_units=(2, 3, 4, 6, 8, 12, 16, 24),
            array_sizes=(16, 24, 32, 48, 64, 96, 128, 160),
            clocks_ghz=(1.25, 2.5, 4.0, 5.0),
        ),
        ghost_sweep_space(
            lanes=(4, 6, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 128),
            edge_units=(4, 6, 8, 12, 16, 20, 24, 28, 32, 48, 64, 96, 128, 160, 192, 256),
        ),
    ]


def _cold_run(space, knobs, ctx=None):
    """One scalar evaluation from cold caches, its workload rebuilt."""
    memo.clear("engine.")
    memo.clear("workloads.graph")
    workload = space.build_workload()
    return space.build_accelerator(knobs).run(workload, ctx=ctx)


def _evaluate_point_naively(space, point):
    """One fresh scalar evaluation of a nominal sweep point."""
    knobs = {k: v for k, v in point.knobs.items() if k != "corner"}
    return _cold_run(space, knobs)


def _naive_sweep(space):
    """The naive baseline: every point from cold caches."""
    return [
        SweepPoint(
            label=label, knobs=knobs, report=_cold_run(space, knobs, ctx)
        )
        for knobs, label, ctx in space.evaluations()
    ]


#: The timed arms: the library's sweep path and the two scalar loops.
ARMS = {
    "soa": run_sweep,
    "serial": lambda space: _run_serial(space, space.evaluations()),
    "naive": _naive_sweep,
}


def _timed_sweeps(spaces, arm):
    """``({space name: points}, wall seconds)`` from cold physics caches."""
    memo.clear("engine.")
    t0 = time.perf_counter()
    points = {space.name: ARMS[arm](space) for space in spaces}
    return points, time.perf_counter() - t0


def _soa_mismatches(spaces, soa, serial):
    """Points whose soa report differs from its serial twin."""
    return sum(
        soa_point.report.to_dict() != serial_point.report.to_dict()
        for space in spaces
        for soa_point, serial_point in zip(soa[space.name], serial[space.name])
    )


def measure_sweep(quick: bool = False):
    """Benchmark record of the soa and serial sweeps vs. the naive
    baseline.

    Returns a dict with wall times, the speedups, the per-space frontier
    labels and the mismatch counts (serial vs. fresh scalar runs on
    every frontier point, soa vs. serial on every point; both must be
    0).
    """
    spaces = production_spaces(quick=quick)

    memo.clear("workloads.graph")
    naive, naive_s = _timed_sweeps(spaces, "naive")

    # Warm the graph memo outside the timed regions: both engine arms
    # then measure evaluation cost rather than one-time dataset
    # synthesis (the naive baseline clears the memo per point above).
    for space in spaces:
        space.build_workload().materialize()

    serial, serial_s = _timed_sweeps(spaces, "serial")
    soa, soa_s = _timed_sweeps(spaces, "soa")

    num_points = sum(len(points) for points in serial.values())
    frontiers = {}
    mismatches = 0
    frontier_points = 0
    for space in spaces:
        serial_frontier = pareto_frontier(serial[space.name])
        naive_frontier = pareto_frontier(naive[space.name])
        assert [p.label for p in serial_frontier] == [
            p.label for p in naive_frontier
        ], f"{space.name}: frontier drift between serial and naive sweeps"
        frontiers[space.name] = [p.label for p in serial_frontier]
        # Bit-exact reconstruction check: every frontier point re-costed
        # through a fresh scalar run must match the serial report.
        for point in serial_frontier:
            frontier_points += 1
            scalar = _evaluate_point_naively(space, point)
            if (
                scalar.latency_ns != point.report.latency_ns
                or scalar.energy_pj != point.report.energy_pj
            ):
                mismatches += 1
    return {
        "bench": "combined TRON+GHOST design-space sweep (soa/serial/naive)",
        "points": num_points,
        "soa_wall_s": round(soa_s, 4),
        "serial_wall_s": round(serial_s, 4),
        "naive_sequential_wall_s": round(naive_s, 4),
        "speedup": round(naive_s / serial_s, 2),
        "soa_speedup": round(naive_s / soa_s, 2),
        "soa_vs_serial": round(serial_s / soa_s, 2),
        "points_per_sec": round(num_points / serial_s, 1),
        "soa_points_per_sec": round(num_points / soa_s, 1),
        "frontier_points_checked": frontier_points,
        "frontier_mismatches": mismatches,
        # Every soa point (not just the frontier) must reproduce its
        # serial twin bit for bit — the array-resident path's contract.
        "soa_mismatches": _soa_mismatches(spaces, soa, serial),
        "pareto_frontiers": frontiers,
    }


def measure_perf_smoke():
    """soa vs serial points/sec on a medium grid (no naive arm).

    The 8-point quick grid is dominated by one-time physics setup, so a
    throughput ratio there is noise; this 128-point grid is big enough
    for the per-point cost to dominate while staying CI-fast.  Returns
    both arms' wall times and points/sec plus the point-for-point
    mismatch count (must be 0).
    """
    spaces = [
        tron_sweep_space(
            head_units=(2, 4, 8, 16),
            array_sizes=(32, 64, 128, 160),
            clocks_ghz=(1.25, 2.5, 4.0, 5.0),
        ),
        ghost_sweep_space(
            lanes=(4, 8, 16, 32, 48, 64, 96, 128),
            edge_units=(8, 16, 32, 48, 64, 96, 128, 256),
        ),
    ]
    for space in spaces:  # warm the graph memo outside both timings
        space.build_workload().materialize()

    serial, serial_s = _timed_sweeps(spaces, "serial")
    soa, soa_s = _timed_sweeps(spaces, "soa")

    num_points = sum(len(points) for points in serial.values())
    return {
        "bench": "soa vs serial sweep perf smoke",
        "points": num_points,
        "soa_wall_s": round(soa_s, 4),
        "serial_wall_s": round(serial_s, 4),
        "points_per_sec": round(num_points / serial_s, 1),
        "soa_points_per_sec": round(num_points / soa_s, 1),
        "soa_vs_serial": round(serial_s / soa_s, 2),
        "soa_mismatches": _soa_mismatches(spaces, soa, serial),
    }


def test_sweep_speedup(run_once):
    record = run_once(measure_sweep, quick=True)
    print()
    print(
        f"quick grid: {record['points']} points, "
        f"{record['speedup']:.1f}x serial / "
        f"{record['soa_speedup']:.1f}x soa vs naive"
    )
    assert record["frontier_mismatches"] == 0
    assert record["soa_mismatches"] == 0
    # The quick grid is tiny (8 points), so the serial advantage is
    # bounded by the per-point workload rebuild it amortizes away.
    assert record["speedup"] >= 2.0
