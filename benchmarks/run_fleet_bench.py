"""Emit BENCH_fleet.json: the sharded multi-process serving tier.

Usage::

    PYTHONPATH=src python benchmarks/run_fleet_bench.py [output.json]
    PYTHONPATH=src python benchmarks/run_fleet_bench.py --quick

What it measures, on the same mixed LLM+GNN trace as
``run_serving_bench.py``:

1. **Correctness** — a 1-worker fleet must produce report payloads
   equal to the in-process ``ServingEngine`` on the identical request
   stream (the worker runs the same scheduler on the same documents;
   only pickled dicts cross the process boundary).
2. **Aggregate warm throughput** — N sharded workers replaying the
   trace closed-loop with hot shard caches, gated at
   ``SPEEDUP_BAR`` x the single-process ``throughput_rps``
   ``BENCH_serving.json`` recorded when the fleet tier was specced
   (``BASELINE_RPS``).  The bar is pinned to that figure rather than
   re-read live: the single-process number moves with unrelated engine
   work (the SoA batched-physics path alone shrank scheduler busy time
   ~5x), and a ratio against a moving baseline would fail the fleet
   whenever the engine it wraps gets faster.  The live figure is still
   recorded alongside for context.
3. **Open-loop saturation sweep** — Poisson offered load at 0.5x / 1x /
   2x the measured aggregate throughput, reporting honest
   arrival-to-completion p50/p95/p99.  The 2x (past-saturation) run
   must *complete* — bounded queues shed the excess with explicit
   responses instead of queueing without bound — and must actually
   shed (``shed > 0``).

``--quick`` is the CI smoke variant: a small trace, 2 workers, gating
only on zero mismatches and shed-not-hang.

Exits non-zero if any gate fails.
"""

import argparse
import json
import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.base import get_workload  # noqa: E402
from repro.serving import (  # noqa: E402
    ArrivalProcess,
    ServingEngine,
    ServingFleet,
    generate_trace,
    record_to_request,
)

CATALOG_SIZE = 48
TRACE_SEED = 0
SPEEDUP_BAR = 5.0
#: Single-process serving throughput (``stats.throughput_rps``) in the
#: BENCH_serving.json the fleet tier was specced against.  The
#: aggregate-throughput gate is SPEEDUP_BAR x this, i.e. ~32k req/s.
BASELINE_RPS = 6413.5
WARM_REPLAYS = 5
PAST_SATURATION_TIMEOUT_S = 120.0


def count_mismatches(reference, responses):
    """Report payloads that differ between the two serving paths."""
    mismatches = 0
    for ref, response in zip(reference, responses):
        ref_report = ref.to_dict()["report"]
        if ref_report != response.report:
            mismatches += 1
    return mismatches


def check_identity(requests, workers=1):
    """Gate 1: the sharded tier is bit-identical to in-process serving."""
    reference = ServingEngine().serve(requests)
    with ServingFleet(workers=workers) as fleet:
        responses = fleet.serve(requests)
    return count_mismatches(reference, responses)


def measure_warm_throughput(fleet, requests, replays=WARM_REPLAYS):
    """Gate 2: closed-loop aggregate req/s with hot shard caches."""
    fleet.serve(requests)  # warm every shard's caches
    t0 = time.perf_counter()
    for _ in range(replays):
        fleet.serve(requests)
    wall = time.perf_counter() - t0
    return replays * len(requests) / wall


def saturation_sweep(fleet, requests, saturation_rps, factors):
    """Gate 3: open-loop runs at the given multiples of saturation."""
    runs = []
    for factor in factors:
        process = ArrivalProcess("poisson", factor * saturation_rps)
        result = fleet.run_open_loop(
            requests,
            process,
            seed=TRACE_SEED,
            drain_timeout=PAST_SATURATION_TIMEOUT_S,
        )
        entry = {"saturation_factor": factor, **result.to_dict()}
        runs.append(entry)
        print(
            f"  open loop {factor:.1f}x: offered "
            f"{entry['offered_rps']:.0f} rps, completed "
            f"{entry['completed']}, shed {entry['shed']}, p99 "
            f"{1e3 * entry['p99_latency_s']:.2f} ms",
            file=sys.stderr,
        )
    return runs


def single_process_rps(num_requests):
    """The live single-process throughput, for context (not the gate)."""
    bench_path = REPO / "BENCH_serving.json"
    if bench_path.exists():
        record = json.loads(bench_path.read_text())
        recorded = record.get("stats", {}).get("throughput_rps")
        if recorded:
            return float(recorded), "BENCH_serving.json"
    records = generate_trace(
        num_requests=num_requests, seed=TRACE_SEED, catalog_size=CATALOG_SIZE
    )
    requests = [record_to_request(record) for record in records]
    engine = ServingEngine()
    engine.serve(requests)
    t0 = time.perf_counter()
    engine.serve(requests)
    wall = time.perf_counter() - t0
    return len(requests) / wall, "measured warm replay"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "output",
        nargs="?",
        default=str(REPO / "BENCH_fleet.json"),
        help="where to write the benchmark record",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small trace, 2 workers, correctness + "
        "shed-not-hang gates only",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fleet width (default: 2 quick, 4 full)",
    )
    args = parser.parse_args()

    num_requests = 200 if args.quick else 1000
    workers = args.workers or (2 if args.quick else 4)
    # Keep the per-shard bound well under the trace size so the 2x
    # (past-saturation) open-loop run demonstrably sheds; closed-loop
    # replay applies backpressure instead, so the bound never distorts
    # the identity or throughput measurements.
    max_queue = 32 if args.quick else 64
    records = generate_trace(
        num_requests=num_requests, seed=TRACE_SEED, catalog_size=CATALOG_SIZE
    )
    requests = [record_to_request(record) for record in records]
    # Materialize lazy GNN graphs up front: neither contender pays for
    # one-time synthesis inside a timed region, and forked workers
    # inherit the materialized graphs.
    for request in requests:
        get_workload(request.workload).materialize()

    print("checking 1-worker bit-identity ...", file=sys.stderr)
    mismatches = check_identity(requests)

    baseline_rps, baseline_source = single_process_rps(num_requests)

    fleet = ServingFleet(workers=workers, max_queue=max_queue)
    with fleet:
        print(
            f"measuring warm aggregate throughput ({workers} workers) ...",
            file=sys.stderr,
        )
        aggregate_rps = measure_warm_throughput(fleet, requests)
        factors = (2.0,) if args.quick else (0.5, 1.0, 2.0)
        open_loop = saturation_sweep(fleet, requests, aggregate_rps, factors)
    fleet_stats = fleet.fleet_stats()

    past_saturation = open_loop[-1]
    shed_not_hang = (
        past_saturation["submitted"]
        == past_saturation["completed"]
        + past_saturation["shed"]
        + past_saturation["errors"]
    )
    speedup = aggregate_rps / BASELINE_RPS
    gates = {
        "mismatches_zero": mismatches == 0,
        "shed_not_hang": shed_not_hang,
        "past_saturation_sheds": past_saturation["shed"] > 0,
    }
    if not args.quick:
        gates["aggregate_speedup"] = speedup >= SPEEDUP_BAR

    record = {
        "bench": "sharded multi-process fleet vs single-process serving",
        "quick": args.quick,
        "trace": {
            "requests": num_requests,
            "catalog_size": CATALOG_SIZE,
            "seed": TRACE_SEED,
        },
        "workers": workers,
        "max_queue": max_queue,
        "baseline_rps": BASELINE_RPS,
        "live_single_process_rps": round(baseline_rps, 1),
        "live_single_process_source": baseline_source,
        "aggregate_warm_rps": round(aggregate_rps, 1),
        "aggregate_speedup": round(speedup, 2),
        "speedup_bar": SPEEDUP_BAR,
        "one_worker_mismatches": mismatches,
        "open_loop": open_loop,
        "admission": fleet_stats["admission"],
        "shard_requests": fleet_stats["shard_requests"],
        "gates": gates,
    }
    out_path = pathlib.Path(args.output)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    if not all(gates.values()):
        failed = sorted(name for name, ok in gates.items() if not ok)
        print(f"FAILED gates: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
