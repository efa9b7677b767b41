"""Cross-validate the trace-driven HBM backend against the analytic model.

Usage::

    PYTHONPATH=src python tools/memory_crossval.py [--quick]

This is the CI ``memory-smoke`` entry point: it sweeps the memory
primitives across both stock memory systems (TRON, GHOST), the standard
corner grid and a range of transfer sizes, computes the HBM/analytic
ratio for each primitive, and fails if any ratio leaves its documented
tolerance window (the same windows
``tests/unit/test_memory_backends.py`` pins — keep the two in sync).
It then replays one TRON and one GHOST workload end to end under each
backend and checks the diluted ratios, printing a crossover summary for
the PIM offload scenarios.

``--quick`` trims the grid to one size per system (CI-friendly); the
full grid is the default for local runs.

Exits non-zero on any window violation.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api import Session  # noqa: E402
from repro.core.context import resolve_corner  # noqa: E402
from repro.core.engine import HBMMemoryModel, MemoryModel  # noqa: E402
from repro.core.ghost.config import GHOSTConfig  # noqa: E402
from repro.core.tron.config import TRONConfig  # noqa: E402

#: (label, lower, upper) tolerance windows for the HBM/analytic ratio of
#: each primitive — the differential suite's documented envelope.
PRIMITIVE_WINDOWS = {
    "stream energy": (1.0, 1.0),
    "stream latency": (0.85, 1.25),
    "burst energy": (1.0, 1.0),
    "burst latency": (1.00, 1.25),
    "random energy": (1.00, 1.05),
    "random latency": (0.95, 2.20),
}

#: End-to-end windows: memory is a minority of the ledger, so the
#: primitive spread dilutes to a few percent.
WORKLOAD_WINDOWS = {
    "hbm energy": (1.00, 1.02),
    "hbm latency": (1.00, 1.12),
    "pim energy": (1.00, 1.50),
    "pim latency": (0.50, 4.00),
}

SYSTEMS = [("tron", TRONConfig().memory), ("ghost", GHOSTConfig().memory)]
CORNERS = [None, "typical", "slow-hot", "fast-cold"]
SIZES = [64 * 1024, 1 << 20, 16 << 20]
WORKLOADS = [("BERT-base", "tron"), ("GCN-cora", "ghost")]


def _context(corner):
    return None if corner is None else resolve_corner(corner, 0)


def _check(failures, label, ratio, window):
    lo, hi = window
    ok = lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12)
    print(f"  {'ok ' if ok else 'FAIL'}  {label}: {ratio:.4f} "
          f"(window [{lo:.2f}, {hi:.2f}])")
    if not ok:
        failures.append(label)


def crossval_primitives(failures, quick):
    sizes = SIZES[:1] if quick else SIZES
    for name, system in SYSTEMS:
        for corner in CORNERS:
            ctx = _context(corner)
            analytic = MemoryModel(system, context=ctx)
            hbm = HBMMemoryModel(system, context=ctx)
            for num_bytes in sizes:
                tag = f"{name}/{corner or 'nominal'}/{num_bytes >> 10}KiB"
                print(f"{tag}:")
                pairs = {
                    "stream": (
                        analytic.stream_offchip(num_bytes),
                        hbm.stream_offchip(num_bytes),
                    ),
                    "burst": (
                        analytic.burst_offchip(num_bytes),
                        hbm.burst_offchip(num_bytes),
                    ),
                    "random": (
                        analytic.random_offchip(num_bytes, 4.0),
                        hbm.random_offchip(num_bytes, 4.0),
                    ),
                }
                for prim, (a, h) in pairs.items():
                    _check(
                        failures,
                        f"{tag} {prim} energy",
                        h.energy_pj / a.energy_pj,
                        PRIMITIVE_WINDOWS[f"{prim} energy"],
                    )
                    _check(
                        failures,
                        f"{tag} {prim} latency",
                        h.latency_ns / a.latency_ns,
                        PRIMITIVE_WINDOWS[f"{prim} latency"],
                    )


def crossval_workloads(failures):
    session = Session()
    for workload, platform in WORKLOADS:
        analytic = session.run(workload, platform=platform)
        for backend in ("hbm", "hbm-pim"):
            result = session.run(
                workload, platform=platform, memory_backend=backend
            )
            key = "pim" if backend == "hbm-pim" else "hbm"
            print(f"{workload} ({platform}) {backend}:")
            _check(
                failures,
                f"{workload} {backend} energy",
                result.report.energy_pj / analytic.report.energy_pj,
                WORKLOAD_WINDOWS[f"{key} energy"],
            )
            _check(
                failures,
                f"{workload} {backend} latency",
                result.report.latency_ns / analytic.report.latency_ns,
                WORKLOAD_WINDOWS[f"{key} latency"],
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="one transfer size per system (CI smoke grid)",
    )
    args = parser.parse_args()

    failures: list = []
    crossval_primitives(failures, args.quick)
    crossval_workloads(failures)

    if failures:
        print(f"\n{len(failures)} window violation(s):")
        for label in failures:
            print(f"  - {label}")
        return 1
    print("\nall cross-validation windows hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
