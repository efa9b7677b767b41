"""Measurement harness behind ``run_memory_bench.py``.

Two arms:

- **Primitive speedups** — the closed-form HBM costing path (what every
  ``stream_offchip`` / ``burst_offchip`` / ``random_offchip`` call runs)
  against the per-burst loop oracle (``tests/property/hbm_walk.py``), per
  primitive x transfer size, with a bit-exactness check on every pair
  (latencies identical, energies to 1e-12 relative).  The memo is
  bypassed on both sides — this times the arithmetic, not the cache.
- **SoA sweep throughput** — a TRON design-space sweep through the
  array-resident path (``run_sweep``) per memory backend (``analytic`` /
  ``hbm`` / ``hbm-pim``), in points/sec including report
  materialization, with a scalar-oracle parity check on a sample of
  points.  This is the number that used to fall off a cliff
  when ``hbm-pim`` points were gated out of the SoA path.
"""

import math
import pathlib
import sys
import time
from dataclasses import replace

from repro.analysis.sweep import (
    run_sweep_with_stats,
    tron_sweep_space,
    with_corners,
)
from repro.core.context import standard_corners
from repro.core.engine import clear_physics_cache
from repro.core.engine.hbm.geometry import HBMGeometry
from repro.core.engine.hbm.model import HBMMemoryModel
from repro.core.tron.accelerator import TRON
from repro.electronics.memory import MemorySystem

ORACLE_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "property"
sys.path.insert(0, str(ORACLE_DIR))
from hbm_walk import walk_scattered, walk_sequential, walk_stream  # noqa: E402

KIB = 1024
MIB = 1024 * 1024

#: Transfer sizes per arm: (label, bytes, loop-oracle repetitions).
FULL_SIZES = (("64KiB", 64 * KIB, 5), ("1MiB", MIB, 3), ("16MiB", 16 * MIB, 1))
QUICK_SIZES = (("64KiB", 64 * KIB, 3), ("1MiB", MIB, 1))

MEMORY_BACKENDS = ("analytic", "hbm", "hbm-pim")


def _time_per_call(fn, min_seconds=0.05, min_reps=1):
    """Seconds per call, repeating until the clock stops lying."""
    reps = min_reps
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds or reps >= 4096:
            return elapsed / reps
        reps *= 4


def measure_primitive_speedups(quick=False):
    """Closed-form vs loop-oracle cost per primitive x size."""
    model = HBMMemoryModel(MemorySystem(), geometry=HBMGeometry())
    primitives = (
        ("stream", model._stream_compute, lambda n: walk_stream(model, n)),
        ("burst", lambda n: model._sequential_dram(n, "RD"),
         lambda n: walk_sequential(model, n)),
        ("random", model._random_compute,
         lambda n: walk_scattered(model, n)),
    )
    sizes = QUICK_SIZES if quick else FULL_SIZES
    rows = []
    for name, fast, walk in primitives:
        for label, num_bytes, walk_reps in sizes:
            got = fast(num_bytes)
            want = walk(num_bytes)
            assert got.latency_ns == want.latency_ns, (name, label)
            assert math.isclose(
                got.energy_pj, want.energy_pj, rel_tol=1e-12
            ), (name, label)
            fast_s = _time_per_call(lambda: fast(num_bytes), min_reps=64)
            walk_s = _time_per_call(
                lambda: walk(num_bytes),
                min_seconds=0.0 if quick else 0.05,
                min_reps=walk_reps,
            )
            rows.append(
                {
                    "primitive": name,
                    "size": label,
                    "bytes": num_bytes,
                    "closed_form_us": round(fast_s * 1e6, 3),
                    "loop_reference_us": round(walk_s * 1e6, 3),
                    "speedup": round(walk_s / fast_s, 1),
                }
            )
    return rows


def _backend_space(backend, quick=False):
    """The TRON sweep space with every point pinned to ``backend``."""
    if quick:
        space = tron_sweep_space(
            head_units=(4, 8),
            array_sizes=(32, 64),
            clocks_ghz=(2.5, 5.0),
        )
    else:
        space = tron_sweep_space(
            head_units=(1, 2, 4, 6, 8, 12, 16, 32),
            array_sizes=(16, 32, 64, 128),
            clocks_ghz=(1.25, 2.5, 5.0, 10.0),
        )
        space = with_corners(space, standard_corners())
    base_config = space.build_config

    def build_config(knobs):
        return replace(base_config(knobs), memory_backend=backend)

    return replace(
        space,
        name=f"{space.name}-{backend}",
        build_config=build_config,
        build_accelerator=lambda knobs: TRON(build_config(knobs)),
    )


def measure_soa_backends(quick=False, parity_samples=3):
    """Array-resident sweep points/sec per memory backend."""
    rows = []
    for backend in MEMORY_BACKENDS:
        space = _backend_space(backend, quick=quick)
        evaluations = space.evaluations()
        clear_physics_cache()
        start = time.perf_counter()
        points, stats = run_sweep_with_stats(space)
        elapsed = time.perf_counter() - start
        if stats.fallback_points:
            raise RuntimeError(
                f"{space.name}: {stats.fallback_points} points fell back "
                "to the scalar path"
            )
        stride = max(1, len(evaluations) // parity_samples)
        mismatches = 0
        for index in range(0, len(evaluations), stride):
            knobs, _, ctx = evaluations[index]
            point = points[index]
            workload = space.build_workload()
            want = (
                space.build_accelerator(knobs)
                .run(workload, ctx=ctx)
                .to_dict()
            )
            if point.report.to_dict() != want:
                mismatches += 1
        rows.append(
            {
                "backend": backend,
                "points": len(evaluations),
                "wall_s": round(elapsed, 4),
                "points_per_sec": round(len(evaluations) / elapsed, 1),
                "parity_mismatches": mismatches,
            }
        )
    return rows
