"""Emit BENCH_streaming.json: the streaming workload subsystem.

Usage::

    PYTHONPATH=src python benchmarks/run_streaming_bench.py [output.json]
    PYTHONPATH=src python benchmarks/run_streaming_bench.py --quick

Three measurements, one per streaming pillar:

1. **Decode** — tokens/second and energy per token vs. context length
   on the GPT-2 decode path, evaluated through the stacked SoA series
   and gated bit-identical to the scalar per-step loop.  The recorded
   series is what ``bench_decode_scaling.py`` regression-gates against.
2. **Temporal reuse** — GHOST over an evolving-graph delta stream with
   the stage-cost memo warm vs. deliberately cleared per snapshot,
   recording the measured stage hit rate and wall-clock speedup.
3. **Diurnal fleet** — the sharded serving fleet under a multi-tenant
   trace with diurnal + bursty open-loop arrivals, recording completion
   and tail-latency (p99) accounting.
"""

import argparse
import json
import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.core.base import get_workload  # noqa: E402
from repro.core.ghost import GHOST  # noqa: E402
from repro.core.reports import EnergyReport, LatencyReport  # noqa: E402
from repro.core.tron import TRON, TRONConfig  # noqa: E402
from repro.core.tron.generation import (  # noqa: E402
    GenerationReport,
    decode_step_reports,
    prefill_report,
    static_power_mw,
)
from repro.nn.counting import OpCount  # noqa: E402
from repro.nn.models import gpt2_small  # noqa: E402
from repro.serving.fleet import ServingFleet  # noqa: E402
from repro.serving.trace import record_tenant, record_to_request  # noqa: E402
from repro.streaming import (  # noqa: E402
    TrafficModel,
    decode_series_batch,
    parse_shaped_arrivals,
    run_temporal,
)
from repro.streaming.decode import ENERGY_FIELDS  # noqa: E402

DECODE_BATCH = 8
DECODE_GENERATED = 32
DECODE_PROMPTS = (64, 256, 768)
TEMPORAL_WORKLOAD = "GCN-ba-temporal"
FLEET_TENANTS = 3
FLEET_SEED = 0


def scalar_episode(tron, model, prompt_tokens, generated_tokens):
    """The scalar reference of one episode: the per-step loop folded to
    ``(per_token_ns, per_token_pj, GenerationReport)`` in the order the
    stacked series sums."""
    prefill = prefill_report(tron, model, prompt_tokens)
    steps = decode_step_reports(tron, model, prompt_tokens, generated_tokens)
    latency, energy, ops = LatencyReport(), EnergyReport(), OpCount()
    for step in steps:
        latency = latency + step.latency
        energy = energy + step.energy
        ops = ops + step.ops
    static_pj = static_power_mw(tron) * latency.total_ns
    report = GenerationReport(
        prefill=prefill,
        decode_latency=latency,
        decode_energy=energy + EnergyReport(static_pj=static_pj),
        decode_ops=ops,
        prompt_tokens=prompt_tokens,
        generated_tokens=generated_tokens,
    )
    per_token_ns = np.array([s.latency.total_ns for s in steps])
    per_token_pj = np.array(
        [sum(getattr(s.energy, name) for name in ENERGY_FIELDS) for s in steps]
    )
    return per_token_ns, per_token_pj, report


def measure_decode(prompts=DECODE_PROMPTS, generated=DECODE_GENERATED):
    """Pillar 1: the per-token decode series across context lengths."""
    tron = TRON(TRONConfig(batch=DECODE_BATCH))
    model = gpt2_small()
    episodes = [(prompt, generated) for prompt in prompts]
    t0 = time.perf_counter()
    stacked = decode_series_batch(tron, model, episodes)
    stacked_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    scalar = [scalar_episode(tron, model, p, g) for p, g in episodes]
    scalar_wall = time.perf_counter() - t0

    bit_identical = all(
        np.array_equal(s.per_token_ns, per_token_ns)
        and np.array_equal(s.per_token_pj, per_token_pj)
        and s.to_generation_report() == report
        for s, (per_token_ns, per_token_pj, report) in zip(stacked, scalar)
    )
    series = []
    for s in stacked:
        episode = s.to_generation_report()
        series.append(
            {
                "prompt": s.prompt_tokens,
                "generated": s.generated_tokens,
                "tokens_per_s": round(episode.tokens_per_second, 3),
                "uj_per_token": round(episode.energy_per_token_uj, 6),
                "prefill_ms": round(episode.prefill.latency_ns / 1e6, 6),
                "first_token_us": round(float(s.per_token_ns[0]) / 1e3, 4),
                "last_token_us": round(float(s.per_token_ns[-1]) / 1e3, 4),
            }
        )
    return {
        "model": model.name,
        "batch": DECODE_BATCH,
        "series": series,
        "stacked_equals_scalar": bit_identical,
        "stacked_wall_s": round(stacked_wall, 6),
        "scalar_wall_s": round(scalar_wall, 6),
    }


def measure_temporal_stream(workload_name, iterations):
    """One evolving stream: in-stream and warm-replay stage reuse.

    Growth streams change the node count every snapshot, so in-stream
    reuse is near zero by construction; churn streams keep ``n`` fixed
    and reuse the node-keyed stages immediately.  Warm replay (the
    serving regime — the same stream re-costed as traffic repeats)
    reuses everything either way.
    """
    workload = get_workload(workload_name)
    snapshots = workload.snapshots
    model = workload.model_config

    warm_ghost = GHOST()
    first = run_temporal(warm_ghost, model, snapshots)  # fresh-memo pass
    replay = run_temporal(warm_ghost, model, snapshots)
    assert replay.total == first.total  # memoized == recomputed, bitwise
    t0 = time.perf_counter()
    for _ in range(iterations):
        run_temporal(warm_ghost, model, snapshots)
    warm_wall = (time.perf_counter() - t0) / iterations

    cold_ghost = GHOST()
    t0 = time.perf_counter()
    for _ in range(iterations):
        for graph in snapshots:
            cold_ghost.stage_memo.clear()
            cold_ghost.run_gnn(model, graph)
    cold_wall = (time.perf_counter() - t0) / iterations

    return {
        "workload": workload_name,
        "snapshots": len(snapshots),
        "nodes": [g.num_nodes for g in snapshots],
        "edges": [g.num_edges for g in snapshots],
        "stream_stage_hit_rate": round(first.stage_hit_rate, 4),
        "warm_replay_stage_hit_rate": round(replay.stage_hit_rate, 4),
        "total_latency_ms": round(first.total.latency_ns / 1e6, 6),
        "warm_wall_s": round(warm_wall, 6),
        "cold_wall_s": round(cold_wall, 6),
        "reuse_speedup": round(cold_wall / warm_wall, 2),
    }


def measure_temporal(iterations):
    """Pillar 2: stage-cost reuse across both evolution regimes."""
    return {
        "growth": measure_temporal_stream(TEMPORAL_WORKLOAD, iterations),
        "churn": measure_temporal_stream("GAT-sbm-temporal", iterations),
    }


def measure_fleet(num_requests, workers, rate_rps):
    """Pillar 3: the fleet under a diurnal multi-tenant mix."""
    model = TrafficModel.uniform_tenants(FLEET_TENANTS, seed=FLEET_SEED)
    records = model.generate(num_requests=num_requests)
    requests = [record_to_request(r) for r in records]
    tenants = [record_tenant(r) for r in records]
    for request in requests:
        get_workload(request.workload).materialize()
    arrivals = f"diurnal:poisson:{rate_rps:g}"
    process = parse_shaped_arrivals(arrivals)
    with ServingFleet(workers=workers) as fleet:
        fleet.serve(requests, tenants=tenants)  # warm the shard caches
        result = fleet.run_open_loop(
            requests, process, tenants=tenants, seed=FLEET_SEED
        )
    run = result.to_dict()
    return {
        "tenants": FLEET_TENANTS,
        "requests": num_requests,
        "workers": workers,
        "arrivals": arrivals,
        "completed": run["completed"],
        "shed": run["shed"],
        "errors": run["errors"],
        "throughput_rps": round(run["throughput_rps"], 1),
        "p50_latency_s": run["p50_latency_s"],
        "p99_latency_s": run["p99_latency_s"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "output",
        nargs="?",
        default=str(REPO / "BENCH_streaming.json"),
        help="where to write the benchmark record",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer requests/iterations, 1 fleet worker",
    )
    args = parser.parse_args()

    print("measuring decode series ...", file=sys.stderr)
    decode = measure_decode()
    print("measuring temporal stage reuse ...", file=sys.stderr)
    temporal = measure_temporal(iterations=3 if args.quick else 20)
    print("measuring diurnal fleet tail latency ...", file=sys.stderr)
    fleet = measure_fleet(
        num_requests=120 if args.quick else 600,
        workers=1 if args.quick else 2,
        rate_rps=500.0,
    )

    rates = [row["tokens_per_s"] for row in decode["series"]]
    gates = {
        "decode_stacked_equals_scalar": decode["stacked_equals_scalar"],
        "decode_rate_monotone": rates == sorted(rates, reverse=True),
        "temporal_churn_reuses_in_stream": temporal["churn"][
            "stream_stage_hit_rate"
        ]
        > 0.0,
        "temporal_warm_replay_reuses_fully": temporal["growth"][
            "warm_replay_stage_hit_rate"
        ]
        == 1.0,
        "fleet_accounted": fleet["completed"] + fleet["shed"] + fleet["errors"]
        == fleet["requests"],
    }
    record = {
        "bench": "streaming workloads: decode series, temporal reuse, "
        "diurnal multi-tenant fleet",
        "quick": args.quick,
        "decode": decode,
        "temporal": temporal,
        "fleet": fleet,
        "gates": gates,
    }
    pathlib.Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    if not all(gates.values()):
        print("GATE FAILURE", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
