"""Emit BENCH_sweep.json: sweep-engine speedups at production grid scale.

Usage::

    PYTHONPATH=src python benchmarks/run_sweep_bench.py \
        [output.json] [--quick] [--perf-smoke]

Records the >= 500 point combined TRON + GHOST design-space sweep
through the array-resident ``soa`` path (``run_sweep``: the whole grid
evaluated as stacked NumPy columns) and the ``serial`` scalar oracle
(one workload materialization, one ``Accelerator.run`` per point)
against the naive sequential per-point baseline.  Every
Pareto-frontier point is re-evaluated through a fresh scalar run and
compared bit-exactly, and every soa point is compared bit-exactly
against its serial twin; any mismatch fails the bench.  ``--quick``
runs an 8-point smoke grid (the CI gate); ``--perf-smoke`` additionally
requires the soa path to hold at least 1.2x the serial oracle's
points/sec (the CI perf-smoke gate).
"""

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from bench_sweep import measure_perf_smoke, measure_sweep  # noqa: E402

#: soa must hold this multiple of the serial oracle's points/sec on the
#: 128-point perf-smoke grid.
PERF_SMOKE_BAR = 1.2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "output",
        nargs="?",
        default=str(REPO / "BENCH_sweep.json"),
        help="where to write the benchmark record",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: an 8-point grid, exactness gates only",
    )
    parser.add_argument(
        "--perf-smoke",
        action="store_true",
        help="with --quick: also require soa >= "
        f"{PERF_SMOKE_BAR}x the serial oracle's points/sec",
    )
    args = parser.parse_args()
    quick, perf_smoke = args.quick, args.perf_smoke
    out_path = pathlib.Path(args.output)
    record = measure_sweep(quick=quick)
    if quick:
        record["bench"] += " (quick smoke grid)"
    print(json.dumps(record, indent=2))
    exact = (
        record["frontier_mismatches"] == 0 and record["soa_mismatches"] == 0
    )
    if quick:
        # CI gate: engine == scalar is the deterministic invariant; a
        # naive-vs-serial wall-clock ratio on an 8-point grid would
        # flake on shared runners, so the absolute speedup floors apply
        # to the full bench only.  --perf-smoke adds the one relative
        # bar that must never regress — the array-resident path beating
        # the scalar oracle — measured on a 128-point grid where
        # per-point cost dominates the setup.
        ok = exact
        if perf_smoke:
            smoke = measure_perf_smoke()
            print(json.dumps(smoke, indent=2))
            ok = (
                ok
                and smoke["soa_mismatches"] == 0
                and smoke["soa_points_per_sec"]
                >= PERF_SMOKE_BAR * smoke["points_per_sec"]
            )
            status = "ok" if ok else "FAIL"
            print(
                f"perf-smoke {status}: soa {smoke['soa_points_per_sec']} "
                f"vs serial {smoke['points_per_sec']} points/sec "
                f"({smoke['soa_vs_serial']}x, bar {PERF_SMOKE_BAR}x)"
            )
        return 0 if ok else 1
    ok = (
        exact
        and record["speedup"] >= 30.0
        and record["soa_speedup"] >= 150.0
        and record["points"] >= 500
    )
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
