"""Batched vs. naive Monte-Carlo robustness, and yield-aware Pareto.

Two scenarios mirror how the MC engine is used:

- **TRON / BERT-base** — transformer robustness; the naive baseline pays
  per-sample accelerator construction, physics-cache recomputation and a
  scalar context-physics evaluation per die.
- **GHOST / GCN-cora** — GNN robustness; the naive baseline additionally
  re-materializes the workload (graph synthesis) per die, which the
  engine memoizes once.

Two arms per scenario: ``run_monte_carlo``, the library's one
Monte-Carlo path (every yield signature's affine replay evaluates in
one stacked array-resident pass), and the naive baseline — the
N-cold-scalar-runs reference ``_run_naive``, called directly.  The
engine must match naive to float tolerance, and the combined
wall-clock speedup at N=256 samples is the number ``run_mc_bench.py``
records in BENCH_montecarlo.json, with a >= 10x bar.

The yield-aware Pareto bench sweeps array geometry under a tight tuner
range, where big arrays are fast but rarely fab fully functional — the
frontier a fab could ship differs from the nominal frontier.
"""

import time

import numpy as np

from repro.analysis.robustness import (
    _run_naive,
    monte_carlo_sweep,
    run_monte_carlo,
    yield_aware_pareto,
)
from repro.analysis.sweep import SweepSpace
from repro.core import ExecutionContext, GHOST, GHOSTConfig, TRON, TRONConfig
from repro.nn.gnn import GNNKind
from repro.nn.models import MODEL_ZOO
from repro.photonics.variation import ProcessVariationModel
from repro.workloads import TransformerWorkload, make_gnn_workload

#: The sampled die population of every bench scenario.
BENCH_CONTEXT = ExecutionContext(variation=ProcessVariationModel(), seed=7)

#: Tuner correction range (nm) of the yield-aware Pareto scenario —
#: tight enough that large arrays rarely fab fully functional.
PARETO_TUNER_RANGE_NM = 8.5

#: Tuner range of the many-signature speedup scenario: tight enough
#: that sampled dies land on dozens of distinct yield signatures, so
#: the per-signature unknowns (which the engine stacks into one pass)
#: actually dominate its work.
MANY_SIG_TUNER_RANGE_NM = 5.0


def _make_bert_workload():
    return TransformerWorkload(model=MODEL_ZOO["BERT-base"])


def _make_cora_workload():
    return make_gnn_workload(
        GNNKind.GCN, "cora", hidden_dim=64, rng_seed=0, name="GCN-cora"
    )


def _scenarios():
    import dataclasses

    tight = dataclasses.replace(
        BENCH_CONTEXT, tuner_range_nm=MANY_SIG_TUNER_RANGE_NM
    )
    return (
        ("TRON", "BERT-base", lambda: TRON(), _make_bert_workload,
         BENCH_CONTEXT),
        ("GHOST", "GCN-cora", lambda: GHOST(), _make_cora_workload,
         BENCH_CONTEXT),
        ("TRON", "BERT-base/tight-tuner", lambda: TRON(),
         _make_bert_workload, tight),
    )


def measure_mc_speedup(samples: int = 256):
    """(records, speedup) of the batched engine vs. the naive baseline.

    Each record holds both wall times, the per-scenario speedup and the
    yield; ``speedup`` is combined over every scenario.  The engine is
    asserted against naive to float tolerance before any number is
    reported.
    """
    records = []
    total_soa_s = 0.0
    total_naive_s = 0.0
    for (
        platform,
        workload,
        make_accelerator,
        make_workload,
        context,
    ) in _scenarios():
        # Warm the graph memo outside the timed regions: the engine arm
        # then measures evaluation cost, not one-time dataset synthesis
        # (the naive arm clears the memo per sample).
        make_workload().materialize()
        t0 = time.perf_counter()
        soa = run_monte_carlo(
            make_accelerator, make_workload, context, samples=samples
        )
        soa_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        naive = _run_naive(make_accelerator, make_workload, context, samples)
        naive_s = time.perf_counter() - t0
        # The affine reconstruction rounds differently from a direct run
        # in the last ulp, so the engine matches naive to tolerance.
        assert np.array_equal(soa.operational, naive.operational)
        assert np.array_equal(soa.fully_functional, naive.fully_functional)
        assert np.allclose(
            soa.energy_pj, naive.energy_pj, rtol=1e-9, equal_nan=True
        )
        assert np.allclose(
            soa.latency_ns, naive.latency_ns, rtol=1e-9, equal_nan=True
        )
        total_soa_s += soa_s
        total_naive_s += naive_s
        records.append(
            {
                "platform": platform,
                "workload": workload,
                "samples": samples,
                "soa_wall_s": round(soa_s, 4),
                "naive_wall_s": round(naive_s, 4),
                "soa_speedup": round(naive_s / soa_s, 2),
                "soa_groups": (soa.evaluation or {}).get("groups", 0),
                "yield": soa.yield_fraction,
                "mean_energy_uj": round(soa.mean_energy_pj / 1e6, 2),
                "mean_latency_us": round(soa.mean_latency_ns / 1e3, 2),
            }
        )
    return records, total_naive_s / total_soa_s


def _tron_pareto_space() -> SweepSpace:
    def build(knobs):
        size = int(knobs["array_size"])
        return TRON(
            TRONConfig(array_rows=size, array_cols=size, batch=8)
        )

    return SweepSpace(
        name="tron",
        knobs=SweepSpace.ordered_knobs({"array_size": (32, 64, 128)}),
        build_accelerator=build,
        build_workload=_make_bert_workload,
        label=lambda knobs: f"A{knobs['array_size']}",
    )


def _ghost_pareto_space() -> SweepSpace:
    def build(knobs):
        size = int(knobs["array_size"])
        return GHOST(
            GHOSTConfig(
                lanes=int(knobs["lanes"]), array_rows=size, array_cols=size
            )
        )

    return SweepSpace(
        name="ghost",
        knobs=SweepSpace.ordered_knobs(
            {"lanes": (8, 16), "array_size": (32, 64, 128)}
        ),
        build_accelerator=build,
        build_workload=_make_cora_workload,
        label=lambda knobs: f"V{knobs['lanes']}/A{knobs['array_size']}",
    )


def compute_yield_pareto(samples: int = 128, yield_threshold: float = 0.7):
    """Yield-aware Pareto frontiers of both accelerators.

    Returns ``{platform: {"points": [...], "frontier": [...]}}`` where
    each point records its yield and operational-die mean metrics.  The
    tight tuner range makes yield a real axis: the biggest arrays win
    the nominal frontier but rarely fab fully functional.
    """
    import dataclasses

    context = dataclasses.replace(
        BENCH_CONTEXT, tuner_range_nm=PARETO_TUNER_RANGE_NM
    )
    frontiers = {}
    for space in (_tron_pareto_space(), _ghost_pareto_space()):
        points = monte_carlo_sweep(space, context, samples=samples)
        frontier = yield_aware_pareto(points, yield_threshold=yield_threshold)
        frontiers[space.name] = {
            "yield_threshold": yield_threshold,
            "tuner_range_nm": PARETO_TUNER_RANGE_NM,
            "points": [p.to_dict() for p in points],
            "frontier": [p.label for p in frontier],
        }
    return frontiers


def test_mc_vectorized_speedup(run_once):
    records, speedup = run_once(measure_mc_speedup, samples=64)
    print()
    for record in records:
        print(
            f"{record['platform']}/{record['workload']}: "
            f"{record['soa_speedup']}x (yield {record['yield']:.2f})"
        )
    print(f"combined speedup at N=64: {speedup:.1f}x")
    # The >= 10x bar applies at the recorded N=256 (run_mc_bench.py);
    # the in-suite smoke run at N=64 just guards against regressions.
    assert speedup >= 3.0


def test_yield_pareto_nonempty(run_once):
    frontiers = run_once(compute_yield_pareto, samples=32)
    print()
    for name, data in frontiers.items():
        yields = {p["label"]: round(p["yield"], 3) for p in data["points"]}
        print(f"{name}: yields {yields} -> frontier {data['frontier']}")
        assert data["frontier"], f"{name}: no configuration met the yield bar"
        # Yield-awareness must actually cut something at this tuner range.
        assert len(data["frontier"]) < len(data["points"])
