"""Emit BENCH_montecarlo.json: vectorized vs. naive Monte-Carlo speedup.

Usage::

    PYTHONPATH=src python benchmarks/run_mc_bench.py [output.json]

Records the vectorized Monte-Carlo engine (batched variation physics,
one workload materialization, every yield signature's affine replay
evaluated in one stacked array-resident pass) against the naive
N-scalar-runs baseline at N=256 samples on both accelerators, plus the
yield-aware Pareto frontiers of TRON and GHOST under a tight tuner
range.  Exits non-zero if the combined speedup falls below the 10x bar
or a frontier comes back empty.
"""

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from bench_mc_robustness import (  # noqa: E402
    compute_yield_pareto,
    measure_mc_speedup,
)

SAMPLES = 256


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "output",
        nargs="?",
        default=str(REPO / "BENCH_montecarlo.json"),
        help="where to write the benchmark record",
    )
    out_path = pathlib.Path(parser.parse_args().output)
    records, speedup = measure_mc_speedup(samples=SAMPLES)
    frontiers = compute_yield_pareto(samples=128)
    record = {
        "bench": "vectorized vs naive Monte-Carlo variation robustness",
        "samples": SAMPLES,
        "scenarios": records,
        "soa_speedup": round(speedup, 2),
        "yield_aware_pareto": frontiers,
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    ok = record["soa_speedup"] >= 10.0 and all(
        data["frontier"] for data in frontiers.values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
