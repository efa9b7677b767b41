"""Emit BENCH_memory.json: HBM(-PIM) costing speedups and SoA residency.

Usage::

    PYTHONPATH=src python benchmarks/run_memory_bench.py \
        [output.json] [--quick]

Records (1) the closed-form HBM costing path against the retained
per-burst loop oracle, per primitive x transfer size, and (2) the
array-resident TRON sweep throughput (points/sec) for all three memory
backends now that ``hbm-pim`` rides the SoA path.  Both arms carry
exactness checks: every primitive pair is pinned (latency bit-identical,
energy to 1e-12 relative) and sampled sweep points are compared
bit-exactly against fresh scalar runs.

``--quick`` runs the CI ``memory-smoke`` gate: smaller sizes, an 8-point
grid, no JSON written; exits nonzero unless every closed-form primitive
is at least as fast as its loop reference and parity holds.
"""

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from bench_memory_costing import (  # noqa: E402
    measure_primitive_speedups,
    measure_soa_backends,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "output",
        nargs="?",
        default=str(REPO / "BENCH_memory.json"),
        help="where to write the benchmark record",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: smaller sizes and grid, gates only, no JSON written",
    )
    args = parser.parse_args()
    quick = args.quick
    out_path = pathlib.Path(args.output)
    primitives = measure_primitive_speedups(quick=quick)
    backends = measure_soa_backends(quick=quick)
    record = {
        "bench": "HBM(-PIM) closed-form costing + SoA backend sweeps"
        + (" (quick smoke)" if quick else ""),
        "primitive_speedups": primitives,
        "soa_backend_sweeps": backends,
    }
    print(json.dumps(record, indent=2))
    # The deterministic gates: the closed form must never lose to the
    # per-burst walk, and the SoA path must stay bit-identical to the
    # scalar oracle for every backend.
    ok = all(row["speedup"] >= 1.0 for row in primitives) and all(
        row["parity_mismatches"] == 0 for row in backends
    )
    if not quick:
        out_path.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
