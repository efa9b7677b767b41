"""Profile the library hot paths: cProfile top-20 over a small run.

Usage::

    PYTHONPATH=src python tools/profile_hotpaths.py [--top N]
    PYTHONPATH=src python tools/profile_hotpaths.py --target serving-dispatch
    PYTHONPATH=src python tools/profile_hotpaths.py --target serving

Targets:

- ``sweep`` (default) — a small combined TRON + GHOST sweep through the
  array-resident soa path.
  This is the first tool to reach for when a sweep regression lands:
  the historical GHOST per-vertex aggregation loop, for example, showed
  up here as ~50k ``node_cycles`` calls before it was vectorized (see
  docs/performance.md).
- ``serving-dispatch`` — the fleet path the ``serve-batch`` benchmark
  times, seen from the parent: 1024-request batches of a 256-type
  Zipf-skewed ``generate_trace`` mix, each ``submit``-ted to a one-worker
  ``ServingFleet(cache_entries=64, max_queue=1024)`` and ``drain``-ed.
  The profile shows routing, admission, buffering and the wait for the
  worker; the collector thread that turns each columnar reply into
  ``FleetResponse`` objects is in it on Python 3.12+ (whose cProfile
  sees every thread) and shows as ``drain``'s wait before that.  The worker
  process is outside the profile.
- ``serving`` — the worker side ``serving-dispatch`` cannot see: one
  in-process ``ServingEngine(cache_entries=64)`` serving batches of the
  same mix, one scheduler pass per batch (what a fleet worker runs per
  flushed batch).  Scalar ``accelerator.run`` calls here mean jobs
  missed the column evaluators (see docs/performance.md, "Column-costed serving
  passes").
- ``hbm-costing`` — the HBM(-PIM) memory primitives over a mixed
  stream / burst / store / random workload at varied transfer sizes,
  with the movement memo cleared between rounds so the closed-form
  arithmetic (not cache hits) dominates the profile.  This is where the
  per-burst Python walk showed up before it became segment arithmetic.

Prints the top functions by cumulative time.
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

TARGETS = ("sweep", "serving-dispatch", "serving", "hbm-costing")


def profile_sweep(top: int = 20) -> pstats.Stats:
    """Profile a small combined sweep; returns the collected stats."""
    from repro.analysis.sweep import (
        ghost_sweep_space,
        run_sweep,
        tron_sweep_space,
    )
    from repro.core.engine import memo

    spaces = [
        tron_sweep_space(
            head_units=(4, 8), array_sizes=(32, 64), clocks_ghz=(2.5, 5.0)
        ),
        ghost_sweep_space(lanes=(8, 16), edge_units=(16, 32)),
    ]
    memo.clear("engine.")
    profiler = cProfile.Profile()
    profiler.enable()
    for space in spaces:
        run_sweep(space)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    return stats


def _zipf_batches(count: int, batch_size: int = 1024) -> list:
    """``count`` request batches drawn from a 256-type Zipf-skewed mix;
    repeats of a type are the same request object, as in a replayed
    stream."""
    import numpy as np

    from repro.serving import generate_trace, record_to_request

    population = generate_trace(num_requests=20000, seed=0, catalog_size=256)
    types: dict = {}
    kinds = [
        types.setdefault(tuple(sorted(record.items())), len(types))
        for record in population
    ]
    requests = [record_to_request(dict(key)) for key in types]
    picks = np.random.default_rng(1).integers(
        len(kinds), size=(count, batch_size)
    )
    return [[requests[kinds[i]] for i in row] for row in picks]


def _print_top(profiler: cProfile.Profile, top: int) -> pstats.Stats:
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    return stats


def profile_serving_dispatch(top: int = 20, batches: int = 8) -> pstats.Stats:
    """Profile ``submit``/``drain`` of 1024-request batches through a
    one-worker fleet, after as many warm-up batches."""
    from repro.serving import ServingFleet

    stream = _zipf_batches(2 * batches)
    profiler = cProfile.Profile()
    with ServingFleet(workers=1, cache_entries=64, max_queue=1024) as fleet:
        for index, batch in enumerate(stream):
            if index == batches:  # graphs, dies and the cache are warm
                profiler.enable()
            futures = [fleet.submit(request) for request in batch]
            fleet.drain()
            for future in futures:
                future.result()
        profiler.disable()
    return _print_top(profiler, top)


def profile_serving(top: int = 20, batches: int = 8) -> pstats.Stats:
    """Profile steady-state in-process scheduler passes: one
    ``ServingEngine.serve`` per 1024-request batch of a 256-type mix."""
    from repro.serving import ServingEngine

    stream = _zipf_batches(2 * batches)
    engine = ServingEngine(cache_entries=64)
    for batch in stream[:batches]:  # warm graphs, dies and the cache
        engine.serve(batch)
    profiler = cProfile.Profile()
    profiler.enable()
    for batch in stream[batches:]:
        engine.serve(batch)
    profiler.disable()
    return _print_top(profiler, top)


def profile_hbm_costing(top: int = 20, rounds: int = 50) -> pstats.Stats:
    """Profile the HBM(-PIM) primitives over a mixed cold workload."""
    from repro.core.engine import memo
    from repro.core.engine.hbm.geometry import HBMGeometry
    from repro.core.engine.hbm.model import HBMMemoryModel
    from repro.electronics.memory import MemorySystem

    model = HBMMemoryModel(MemorySystem(), geometry=HBMGeometry())
    sizes = (4 * 1024, 64 * 1024, 1024 * 1024, 16 * 1024 * 1024)

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(rounds):
        # Cold rounds: clear the movement memo so the profile shows the
        # closed-form arithmetic, not LRU hits.
        memo.clear("engine.movement")
        for num_bytes in sizes:
            model.stream_offchip(num_bytes)
            model.burst_offchip(num_bytes)
            model.store_offchip(num_bytes)
            model.random_offchip(num_bytes, penalty=4.0)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--target",
        choices=TARGETS,
        default="sweep",
        help="which hot path to profile",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="how many rows to print"
    )
    args = parser.parse_args()
    if args.target == "serving-dispatch":
        profile_serving_dispatch(top=args.top)
    elif args.target == "serving":
        profile_serving(top=args.top)
    elif args.target == "hbm-costing":
        profile_hbm_costing(top=args.top)
    else:
        profile_sweep(top=args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
