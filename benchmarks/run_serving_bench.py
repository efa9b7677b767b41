"""Emit BENCH_serving.json: batched serving vs. the naive request loop.

Usage::

    PYTHONPATH=src python benchmarks/run_serving_bench.py [output.json]

Replays a 1000-request mixed LLM+GNN trace (Zipf repeat skew, four
execution corners, multiple dies and batch sizes) three ways:

- **naive** — the baseline a user would write today: per request, build
  a fresh accelerator and run the workload, with nothing shared between
  requests (physics caches cleared each time, mirroring the Monte-Carlo
  bench's naive convention).
- **served (cold)** — the serving engine with an empty cache, serving
  the trace in 64-request micro-batches through the batching scheduler
  (dedup + batched corner physics).
- **served (warm replay)** — the same trace again on the same engine;
  every request must hit the report cache and return a report
  bit-identical to the cold run's.

It then offers the trace **open-loop** to a fresh engine with cleared
physics memos, at half the measured cold serving rate: arrival times
are scheduled in advance from a Poisson process; each step serves
whatever has arrived by then, no matter how far behind the engine is,
with latency measured from the *scheduled arrival* to completion.
Closed-loop replay lets the engine's own pace throttle the offered
load, which understates latency exactly when the engine is slow
(coordinated omission); the ``open_loop`` block carries the honest
p50/p95/p99 of real costing work (a warm engine would answer nearly
every request from its report cache), and its ``hit_rate``.

Exits non-zero if the cold-serve speedup falls below the 5x bar, the
replay hit rate falls below 80%, or any replayed report differs from
its cold-run counterpart.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.base import WorkloadKind, get_workload  # noqa: E402
from repro.core.engine import clear_physics_cache  # noqa: E402
from repro.core.ghost import GHOST  # noqa: E402
from repro.core.tron import TRON, TRONConfig  # noqa: E402
from repro.errors import YieldError  # noqa: E402
from repro.serving import (  # noqa: E402
    ArrivalProcess,
    ServingEngine,
    generate_trace,
    latency_quantiles,
    record_to_request,
)

NUM_REQUESTS = 1000
CATALOG_SIZE = 48
TRACE_SEED = 0
WINDOW = 64
SPEEDUP_BAR = 5.0
HIT_RATE_BAR = 0.8


def run_naive(requests):
    """The per-request loop: fresh platform, nothing shared or reused."""
    reports = []
    for request in requests:
        clear_physics_cache()
        workload = get_workload(request.workload)
        platform = request.resolve_platform(workload.kind)
        if platform == "ghost":
            accelerator = GHOST()
        else:
            accelerator = TRON(TRONConfig(batch=request.batch))
        try:
            reports.append(accelerator.run(workload, ctx=request.ctx))
        except YieldError:
            reports.append(None)
    clear_physics_cache()
    return reports


def run_served(engine, requests):
    """Replay the trace through the engine in ``WINDOW``-request
    micro-batches."""
    responses = []
    for offset in range(0, len(requests), WINDOW):
        responses += engine.serve(requests[offset:offset + WINDOW])
    return responses


def run_open_loop(engine, requests, process, seed=0):
    """Offer ``requests`` on the arrival schedule; honest latencies.

    Each step serves whatever has arrived (at most ``WINDOW`` requests)
    as one micro-batch.  Latency is scheduled-arrival to completion, so
    queueing delay behind a slow engine counts — the closed-loop replay
    above cannot see it.
    """
    times = process.times(len(requests), seed=seed)
    latencies = []
    start = time.perf_counter()
    served = 0
    while served < len(requests):
        gap = start + float(times[served]) - time.perf_counter()
        if gap > 0.0:
            time.sleep(min(gap, 0.001))
            continue
        now = time.perf_counter() - start
        arrived = int(np.searchsorted(times, now, side="right"))
        end = min(arrived, served + WINDOW)
        engine.serve(requests[served:end])
        done = time.perf_counter()
        latencies += [done - start - float(t) for t in times[served:end]]
        served = end
    duration = time.perf_counter() - start
    quantiles = latency_quantiles(latencies)
    return {
        "arrivals": process.describe(),
        "offered_rps": process.rate_rps,
        "completed": len(requests),
        "duration_s": round(duration, 4),
        "throughput_rps": round(len(requests) / duration, 1),
        **{key: round(value, 6) for key, value in quantiles.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "output",
        nargs="?",
        default=str(REPO / "BENCH_serving.json"),
        help="where to write the benchmark record",
    )
    out_path = pathlib.Path(parser.parse_args().output)
    records = generate_trace(
        num_requests=NUM_REQUESTS,
        seed=TRACE_SEED,
        catalog_size=CATALOG_SIZE,
    )
    requests = [record_to_request(record) for record in records]
    distinct = len({tuple(sorted(record.items())) for record in records})

    # Materialize the lazy GNN graphs up front so neither contender pays
    # for one-time synthesis inside its timed region.
    for request in requests:
        get_workload(request.workload).materialize()

    t0 = time.perf_counter()
    naive_reports = run_naive(requests)
    naive_s = time.perf_counter() - t0

    engine = ServingEngine()
    t0 = time.perf_counter()
    cold = run_served(engine, requests)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = run_served(engine, requests)
    warm_s = time.perf_counter() - t0

    # Open loop on a fresh engine at half the measured cold rate
    # (sub-saturation): honest arrival-to-completion percentiles of the
    # costing work, not of report-cache hits.
    clear_physics_cache()
    open_engine = ServingEngine()
    open_loop = run_open_loop(
        open_engine,
        requests,
        ArrivalProcess("poisson", max(1.0, 0.5 * len(requests) / cold_s)),
        seed=TRACE_SEED,
    )
    open_loop["hit_rate"] = round(open_engine.stats.hit_rate, 4)

    replay_hits = sum(response.cached for response in warm)
    hit_rate = replay_hits / len(warm)
    bit_identical = all(
        (a.report is None and b.report is None)
        or (
            a.report is not None
            and b.report is not None
            and a.report.to_dict() == b.report.to_dict()
        )
        for a, b in zip(cold, warm)
    )
    # Sanity: the serving path agrees with the naive loop (dead dies
    # fail on both; live reports match to float tolerance).
    mismatches = 0
    for response, report in zip(cold, naive_reports):
        if (response.report is None) != (report is None):
            mismatches += 1
        elif report is not None and not (
            response.report.latency_ns == report.latency_ns
            and abs(response.report.energy_pj - report.energy_pj)
            <= 1e-9 * report.energy_pj
        ):
            mismatches += 1

    record = {
        "bench": "batched serving engine vs naive per-request loop",
        "trace": {
            "requests": NUM_REQUESTS,
            "distinct_types": distinct,
            "catalog_size": CATALOG_SIZE,
            "seed": TRACE_SEED,
            "window": WINDOW,
        },
        "naive_s": round(naive_s, 3),
        "served_cold_s": round(cold_s, 3),
        "served_warm_s": round(warm_s, 3),
        "speedup_cold": round(naive_s / cold_s, 2),
        "speedup_warm": round(naive_s / warm_s, 2),
        "replay_hit_rate": round(hit_rate, 4),
        "open_loop": open_loop,
        "bit_identical_replay": bit_identical,
        "naive_mismatches": mismatches,
        "stats": engine.stats.to_dict(),
        "cache": engine.cache.stats.to_dict(),
        "scheduler": engine.scheduler.stats.to_dict(),
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    ok = (
        record["speedup_cold"] >= SPEEDUP_BAR
        and record["replay_hit_rate"] > HIT_RATE_BAR
        and bit_identical
        and mismatches == 0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
