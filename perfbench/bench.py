"""One benchmark process: set up a workload, then time it.

Usage (normally started by ``perfbench/run.py``)::

    python perfbench/bench.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 MONOTONIC --tmp DIR [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` runs from process start to the first timed
op.  The last stdout line is one JSON object with the raw results.

Workloads:

- ``cli-cold``: closed loop, one client; each op is a fresh
  ``python -m repro run <w> --json`` over a fixed six-command rotation.
- ``design-space``: closed loop, one in-process caller; each op is one
  exploration step at a fresh die seed (a corner sweep of both spaces
  plus two 256-die Monte-Carlo runs).
- ``serve-batch``: closed loop, one client; each op submits a batch of
  :data:`SERVE_BATCH` requests to a one-worker ``ServingFleet`` and waits
  for all of them (a 256-type Zipf mix against a 64-entry report cache).
  Batches are large so each op spans several worker flushes; 256-request
  batches left a run-to-run quartile spread of 0.29 on ``tail_ms``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

T_START = time.perf_counter()
import numpy  # noqa: E402,F401

NUMPY_IMPORT_MS = (time.perf_counter() - T_START) * 1e3
import repro.cli  # noqa: E402,F401

REPRO_IMPORT_MS = (time.perf_counter() - T_START) * 1e3

import spans  # noqa: E402
from repro.api import Session  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

#: Request types in the ``serve-batch`` catalog and the per-worker report
#: cache bound (a working set four times the cache).
SERVE_CATALOG = 256
SERVE_CACHE_ENTRIES = 64
#: Requests drawn from the fixed catalog to form the popularity mix.
SERVE_POPULATION = 20000
#: Requests per ``serve-batch`` op, and batches in one seed's stream.
SERVE_BATCH = 1024
SERVE_STREAM_BATCHES = 256
#: Discarded batches that warm the fleet's report cache in setup.
SERVE_WARMUP_BATCHES = 1
#: Seconds the fleet may take to drain one batch before it counts as hung.
SERVE_DRAIN_S = 30.0

#: Discarded ``design-space`` steps in setup (the first cold steps run
#: 2-4x slower than the steady state while memos fill).
DESIGN_WARMUP_STEPS = 8
DESIGN_SAMPLES = 256
#: Leading ops of each window whose outputs form the run digest.
DIGEST_OPS = {"cli-cold": 6, "design-space": 16, "serve-batch": 16}
#: Steps re-computed with every physics memo cleared after the window.
DESIGN_RECHECKS = 4

#: Seconds after which one cold CLI op counts as hung.
CLI_OP_TIMEOUT_S = 60.0
#: Whole rotations a ``cli-cold`` window runs at least.  With 12 or more
#: GAT-pubmed ops, the 11th-largest op (``tail_ms``) always lands among
#: them; with fewer it flips between them and the next-slowest command
#: as the rotation count varies with host speed.
CLI_MIN_ROTATIONS = 12


def cli_rotation(seed: int):
    """The six ``repro run`` argument lists of one ``cli-cold`` rotation."""
    return [
        ["BERT-base"],
        ["GCN-cora"],
        ["GAT-pubmed"],
        ["decode-gpt2-small"],
        ["BERT-base", "--memory-backend", "hbm-pim"],
        ["GCN-cora", "--corner", "slow-hot", "--seed", str(seed)],
    ]


def tail(values):
    """``(value, percentile, n)``: the highest percentile of ``values``
    with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else str(part).encode())
    return digest.hexdigest()


def check_claims(result) -> None:
    """Every headline and streaming claim must hold before timing."""
    failing = [c.format() for c in Session().claims() if not c.holds]
    if failing:
        result["correct"] = False
        result["errors"].append(f"claims failing: {failing}")


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------


class CliCold:
    """Cold ``repro run --json`` processes, byte-compared to references."""

    def __init__(self, args):
        self.tmp = Path(args.tmp)
        self.rotation = cli_rotation(args.seed)

    def setup(self, result) -> None:
        import compileall

        from repro.api.schemas import validate_payload
        from repro.errors import YieldError

        compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
        session = Session(disk_cache=True)  # warms this run's disk cache
        self.expected = []
        for argv in self.rotation:
            options = dict(zip(argv[1::2], argv[2::2]))
            try:
                run = session.run(
                    argv[0],
                    memory_backend=options.get("--memory-backend"),
                    corner=options.get("--corner", "nominal"),
                    seed=int(options.get("--seed", 0)),
                )
            except YieldError:
                self.expected.append(None)  # the CLI must fail the same way
                continue
            envelope = run.envelope()
            validate_payload(envelope)
            self.expected.append((json.dumps(envelope, indent=2) + "\n").encode())
        # One discarded cold op warms the OS caches behind a fresh process.
        self.op(0, traced=False)

    def op(self, index: int, traced: bool):
        """One cold process; returns (latency_ms, ok, output, extra)."""
        argv = self.rotation[index % len(self.rotation)]
        out = self.tmp / "op.out"
        err = self.tmp / "op.err"
        if traced:
            spans_path = self.tmp / "op.spans.json"
            spans_path.unlink(missing_ok=True)
            command = [sys.executable, "-X", "importtime", str(LAUNCHER),
                       str(spans_path), "run", *argv, "--json"]
        else:
            command = [sys.executable, "-m", "repro", "run", *argv, "--json"]
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            start = time.perf_counter()
            child = subprocess.Popen(command, stdout=stdout, stderr=stderr,
                                     cwd=str(ROOT))
            watchdog = threading.Timer(CLI_OP_TIMEOUT_S, child.kill)
            watchdog.start()
            _, status, usage = os.wait4(child.pid, 0)
            latency_ms = (time.perf_counter() - start) * 1e3
            watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        output = out.read_bytes()
        expected = self.expected[index % len(self.expected)]
        if expected is None:
            ok = child.returncode != 0 and b"YieldError" in err.read_bytes()
        else:
            ok = child.returncode == 0 and output == expected
        extra = {"rss_mb": usage.ru_maxrss / 1024.0}
        if traced:
            ok = ok and spans_path.exists()  # a killed child writes none
            extra["trace"] = (json.loads(spans_path.read_text()) if ok else
                              {"import_ms": 0.0, "spans": [],
                               "physics_before": {}, "physics_after": {}})
            extra["importtime"] = err.read_text()
        return latency_ms, ok, output, extra

    def window(self, seconds: float, traced: bool):
        ops = []
        start = time.perf_counter()
        rotation_s = 0.0
        while (len(ops) < CLI_MIN_ROTATIONS * len(self.rotation)
               or time.perf_counter() - start + rotation_s <= seconds):
            began = time.perf_counter()
            for index in range(len(self.rotation)):
                ops.append(self.op(index, traced))
            rotation_s = time.perf_counter() - began
        elapsed = time.perf_counter() - start
        failed = sum(1 for op in ops if not op[1])
        digest = sha(*(op[2] for op in ops[: DIGEST_OPS["cli-cold"]]))
        return {
            "latencies_ms": [op[0] for op in ops],
            "attempted": len(ops),
            "failed": failed,
            "elapsed_s": elapsed,
            "peak_rss_mb": max(op[3]["rss_mb"] for op in ops),
            "digest": digest,
            "ops": ops,
        }

    def layers(self, window) -> dict:
        summary: dict = {}
        import_ms = numpy_ms = 0.0
        physics = {"context_physics": [0, 0], "breakdown": [0, 0]}
        for op in window["ops"]:
            trace = op[3]["trace"]
            spans.merge(summary, spans.summarize(trace["spans"]))
            import_ms += trace["import_ms"]
            numpy_ms += numpy_import_ms(op[3]["importtime"])
            for key, counts in physics.items():
                for slot, field in enumerate(("hits", "misses")):
                    counts[slot] += (
                        trace["physics_after"].get(key, {}).get(field, 0)
                        - trace["physics_before"].get(key, {}).get(field, 0))
        n = len(window["ops"])
        return {
            "summary": summary,
            "per": n,
            "import.repro_cli_ms": import_ms / n,
            "import.numpy_ms": numpy_ms / n,
            "physics": physics,
        }


def numpy_import_ms(importtime: str) -> float:
    """Cumulative ``import numpy`` time from ``-X importtime`` output."""
    for line in importtime.splitlines():
        fields = [field.strip() for field in line.split("|")]
        if len(fields) == 3 and fields[2] == "numpy":
            return int(fields[1]) / 1e3
    return 0.0


# ----------------------------------------------------------------------
# design-space
# ----------------------------------------------------------------------


class DesignSpace:
    """Exploration steps: corner sweeps plus Monte-Carlo at fresh seeds."""

    def __init__(self, args):
        self.seed = args.seed
        self.session = Session()

    def step_seed(self, index: int) -> int:
        return self.seed * 1_000_000 + 1000 + index

    def setup(self, result) -> None:
        for index in range(DESIGN_WARMUP_STEPS):
            self.step(self.seed * 1_000_000 + index)

    def step(self, die_seed: int):
        sweep = self.session.sweep("all", corners=True, seed=die_seed)
        mcs = [
            self.session.monte_carlo(name, samples=DESIGN_SAMPLES, seed=die_seed).result
            for name in ("BERT-base", "GCN-cora")
        ]
        return sweep, mcs

    @staticmethod
    def check(sweep, mcs):
        """(ok, digest) of one step's outputs."""
        parts = []
        ok = True
        count = 0
        for name in sorted(sweep.points):
            points = sweep.points[name]
            frontier = sweep.frontiers[name]
            count += len(points)
            labels = {p.label for p in points}
            ok &= bool(frontier) and all(p.label in labels for p in frontier)
            for p in points:
                ok &= math.isfinite(p.latency_ns) and p.latency_ns > 0
                ok &= math.isfinite(p.energy_pj) and p.energy_pj > 0
                parts.append(f"{name}|{p.label}|{p.latency_ns!r}|{p.energy_pj!r}")
            parts.append("frontier|" + ",".join(p.label for p in frontier))
        ok &= count == 108
        for mc in mcs:
            ok &= mc.samples == DESIGN_SAMPLES and 0.0 <= mc.yield_fraction <= 1.0
            parts.append(
                f"{mc.workload}|{mc.yield_fraction!r}|{mc.operational_fraction!r}"
                f"|{mc.mean_latency_ns!r}|{mc.mean_energy_pj!r}"
            )
        return bool(ok), sha("\n".join(parts))

    def window(self, seconds: float, traced: bool):
        latencies, digests, oks = [], [], []
        start = time.perf_counter()
        while not latencies or time.perf_counter() - start < seconds:
            began = time.perf_counter()
            sweep, mcs = self.step(self.step_seed(len(latencies)))
            latencies.append((time.perf_counter() - began) * 1e3)
            ok, digest = self.check(sweep, mcs)
            oks.append(ok)
            digests.append(digest)
        elapsed = time.perf_counter() - start
        if not traced:  # keeps the traced window's spans to the window
            self.recheck(oks, digests)
        return {
            "latencies_ms": latencies,
            "attempted": len(latencies),
            "failed": oks.count(False),
            "elapsed_s": elapsed,
            "peak_rss_mb": peak_rss_mb(),
            "digest": sha(*digests[: DIGEST_OPS["design-space"]]),
        }

    def recheck(self, oks, digests) -> None:
        """Re-run a spread of the window's steps with every physics memo
        cleared; a step whose outputs differ counts as failed."""
        from repro.core.engine import clear_physics_cache

        n = len(digests)
        for index in sorted({round(i * (n - 1) / (DESIGN_RECHECKS - 1))
                             for i in range(DESIGN_RECHECKS)}):
            clear_physics_cache()
            _, digest = self.check(*self.step(self.step_seed(index)))
            if digest != digests[index]:
                oks[index] = False


# ----------------------------------------------------------------------
# serve-batch
# ----------------------------------------------------------------------


class ServeBatch:
    """One client sending request batches through the public
    ``ServingFleet.submit``/``drain`` path and waiting for each."""

    def __init__(self, args):
        self.seed = args.seed

    def setup(self, result) -> None:
        from repro.serving import ServingEngine, generate_trace
        from repro.serving.fleet import ServingFleet
        from repro.serving.trace import record_to_request

        # A fixed request population (one Zipf-skewed catalog); the seed
        # draws the stream from it, so every seed offers the same mix.
        population = generate_trace(
            num_requests=SERVE_POPULATION, seed=0, catalog_size=SERVE_CATALOG
        )
        types: dict = {}
        self.population = [
            types.setdefault(tuple(sorted(record.items())), len(types))
            for record in population
        ]
        self.types = [record_to_request(dict(key)) for key in types]
        self.stream = numpy.random.default_rng(self.seed).integers(
            len(self.population), size=SERVE_STREAM_BATCHES * SERVE_BATCH
        ).tolist()
        # Reference reports: every type costed once in process (this also
        # materializes the graphs and physics memos the forked worker
        # inherits).
        engine = ServingEngine(cache_entries=len(self.types))
        self.expected = []
        for response in engine.serve(self.types):
            report = response.report.to_dict() if response.ok else None
            self.expected.append((report, response.error, sha(
                json.dumps(report, sort_keys=True), response.error)))
        engine.close()
        # A forking server freezes its warmed heap before the fork, so
        # neither process rescans it on every full collection.
        gc.collect()
        gc.freeze()
        self.fleet = ServingFleet(
            workers=1, cache_entries=SERVE_CACHE_ENTRIES, max_queue=SERVE_BATCH
        )
        for index in range(SERVE_WARMUP_BATCHES):
            if not self.op(index)[1]:
                result["correct"] = False
                result["errors"].append("warm-up batch served wrong reports")
                break

    def batch(self, index: int):
        """Type indices of batch ``index`` of this seed's stream."""
        start = (index % SERVE_STREAM_BATCHES) * SERVE_BATCH
        return [self.population[i] for i in self.stream[start:start + SERVE_BATCH]]

    def op(self, index: int):
        """One batch: (latency_ms, ok, type hashes, per-request rows)."""
        kinds = self.batch(index)
        fleet = self.fleet
        began = time.perf_counter()
        futures = [fleet.submit(self.types[kind]) for kind in kinds]
        drained = fleet.drain(timeout=SERVE_DRAIN_S)
        latency_ms = (time.perf_counter() - began) * 1e3
        ok = drained
        hashes, rows, checked = [], [], {}
        for kind, future in zip(kinds, futures):
            try:  # drain returns as the last future is being resolved
                response = future.result(timeout=SERVE_DRAIN_S if drained else 0.0)
            except TimeoutError:
                response = None
            if response is None or response.shed:
                good = False
            else:
                key = (id(response.report), kind)
                good = checked.get(key)
                if good is None:
                    report, error, _ = self.expected[kind]
                    good = checked[key] = (
                        response.report == report and response.error == error
                    )
                rows.append((response.open_latency_s, response.latency_s,
                             response.cached, response.deduped, response.shed,
                             response.ok))
            ok = ok and good
            hashes.append(self.expected[kind][2] if good else "!")
        return latency_ms, ok, hashes, rows

    def window(self, seconds: float, traced: bool):
        latencies, oks, digest, rows = [], [], hashlib.sha256(), []
        start = time.perf_counter()
        while not latencies or time.perf_counter() - start < seconds:
            latency_ms, ok, hashes, batch_rows = self.op(len(latencies))
            if len(latencies) < DIGEST_OPS["serve-batch"]:
                digest.update("".join(hashes).encode())
            latencies.append(latency_ms)
            oks.append(ok)
            rows.extend(batch_rows)
        return {
            "latencies_ms": latencies,
            "attempted": len(latencies),
            "failed": oks.count(False),
            "elapsed_s": time.perf_counter() - start,
            "digest": digest.hexdigest(),
            "rows": rows,
        }

    def close(self) -> None:
        """Stop the fleet (idempotent); its worker reports final stats."""
        fleet = getattr(self, "fleet", None)
        if fleet is not None:
            fleet.close()


WORKLOADS = {"cli-cold": CliCold, "design-space": DesignSpace, "serve-batch": ServeBatch}


# ----------------------------------------------------------------------
# Per-layer metrics of a traced window
# ----------------------------------------------------------------------

#: Traced-run metrics that must be nonzero (+) or zero (0) per workload;
#: a layer absent from a workload's row is not checked there.
EXERCISE = {
    "cli-cold": {
        "+": ["import.repro_cli_ms", "import.numpy_ms", "cli.main.self_ms",
              "api.envelope.busy_ms", "graphs.synthesize.calls",
              "nn.op_count.busy_ms", "tron.run.calls", "ghost.run.calls",
              "streaming.decode.busy_ms", "engine.hbm.busy_ms",
              "engine.context_physics.calls", "api.session.self_ms"],
        "0": ["analysis.sweep.self_ms", "analysis.monte_carlo.self_ms",
              "serving.submit.busy_ms", "serving.scheduler.evaluated"],
    },
    "design-space": {
        "+": ["engine.context_physics.calls", "engine.soa.busy_ms",
              "analysis.sweep.self_ms", "analysis.monte_carlo.self_ms",
              "analysis.pareto.busy_ms", "api.session.self_ms"],
        "0": ["graphs.synthesize.calls", "cli.main.self_ms",
              "streaming.decode.busy_ms", "engine.hbm.busy_ms",
              "serving.submit.busy_ms", "serving.scheduler.evaluated"],
    },
    "serve-batch": {
        "+": ["serving.submit.busy_ms", "serving.wait_ms",
              "serving.scheduler.latency_ms", "serving.cache.hit_ratio",
              "serving.scheduler.evaluated", "serving.scheduler.physics_batches",
              "serving.flushes"],
        "0": ["graphs.synthesize.calls", "engine.context_physics.calls",
              "tron.run.calls", "ghost.run.calls", "cli.main.self_ms",
              "analysis.sweep.self_ms", "analysis.monte_carlo.self_ms"],
    },
}

#: Layers the traced run cannot time from outside the program.
UNMEASURABLE = {
    "serve-batch worker spans": "the forked worker's spans cannot cross "
    "back through a public path; serving.* rows come from per-response "
    "fields and worker stats instead",
    "engine.*/tron.*/ghost.* inside serve-batch": "that work runs in the "
    "fleet worker, so the parent-side counts are zero by construction",
}


def hit_ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(summary: dict, per: int, extra: dict) -> dict:
    """The per-layer metrics table, normalized per op of the window."""

    def busy(layer):
        return summary.get(layer, {}).get("busy_ms", 0.0) / per

    def self_ms(layer):
        return summary.get(layer, {}).get("self_ms", 0.0) / per

    def calls(layer):
        return summary.get(layer, {}).get("calls", 0) / per

    physics = extra.get("physics", {})
    metrics = {
        "import.repro_cli_ms": extra.get("import.repro_cli_ms", 0.0),
        "import.numpy_ms": extra.get("import.numpy_ms", 0.0),
        "cli.main.self_ms": self_ms("cli.main"),
        "api.envelope.busy_ms": busy("api.envelope"),
        "graphs.synthesize.calls": calls("graphs.synthesize"),
        "graphs.synthesize.busy_ms": busy("graphs.synthesize"),
        "nn.op_count.busy_ms": busy("nn.op_count"),
        "tron.run.calls": calls("tron.run"),
        "tron.run.self_ms": self_ms("tron.run"),
        "ghost.run.calls": calls("ghost.run"),
        "ghost.run.self_ms": self_ms("ghost.run"),
        "streaming.decode.busy_ms": busy("streaming.decode"),
        "engine.hbm.busy_ms": busy("engine.hbm"),
        "engine.context_physics.calls": calls("engine.context_physics"),
        "engine.context_physics.busy_ms": busy("engine.context_physics"),
        "engine.context_physics.hit_ratio": hit_ratio(*physics.get("context_physics", (0, 0))),
        "engine.breakdown.hit_ratio": hit_ratio(*physics.get("breakdown", (0, 0))),
        "engine.soa.busy_ms": busy("engine.soa"),
        "photonics.busy_ms": busy("photonics"),
        "analysis.sweep.self_ms": self_ms("analysis.sweep"),
        "analysis.monte_carlo.self_ms": self_ms("analysis.monte_carlo"),
        "analysis.pareto.busy_ms": busy("analysis.pareto"),
        "api.session.self_ms": self_ms("api.session"),
        "serving.submit.busy_ms": extra.get("serving.submit.busy_ms", 0.0),
    }
    for key in ("serving.wait_ms", "serving.scheduler.latency_ms",
                "serving.scheduler.tail_ms", "serving.cache.hit_ratio",
                "serving.dedup_ratio", "serving.scheduler.evaluated",
                "serving.scheduler.physics_batches", "serving.flushes",
                "serving.shed", "serving.errors"):
        metrics[key] = extra.get(key, 0.0)
    return metrics


def physics_counts():
    from repro.core.engine import physics_cache_stats

    stats = physics_cache_stats()
    return {key: (stats[key]["hits"], stats[key]["misses"])
            for key in ("context_physics", "breakdown")}


def serve_extra(workload: ServeBatch, window, summary) -> dict:
    """The serving rows, per request, from public per-response fields
    and the worker's final stats (the latter over the fleet's life)."""
    rows = window["rows"]
    served = [row for row in rows if row[5]]
    n = max(len(rows), 1)
    service = [row[1] * 1e3 for row in served]
    wait = [(row[0] - row[1]) * 1e3 for row in served]
    stats = workload.fleet.worker_stats.get(0, {})
    requests = max(stats.get("stats", {}).get("requests", 0), 1)
    return {
        "serving.submit.busy_ms": summary.get("serving.submit", {}).get("busy_ms", 0.0) / n,
        "serving.wait_ms": statistics.median(wait) if wait else 0.0,
        "serving.scheduler.latency_ms": statistics.median(service) if service else 0.0,
        "serving.scheduler.tail_ms": tail(service)[0] if service else 0.0,
        "serving.cache.hit_ratio": sum(row[2] for row in served) / max(len(served), 1),
        "serving.dedup_ratio": sum(row[3] for row in served) / max(len(served), 1),
        "serving.scheduler.evaluated": sum(
            1 for row in served if not row[2] and not row[3]) / n,
        "serving.scheduler.physics_batches": (
            stats.get("scheduler", {}).get("physics_batches", 0) / requests),
        "serving.flushes": stats.get("stats", {}).get("flushes", 0) / requests,
        "serving.shed": float(sum(row[4] for row in rows)),
        "serving.errors": float(sum(1 for row in rows if not row[4] and not row[5])),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def summary_of(window) -> dict:
    latencies = window["latencies_ms"]
    value, percentile, n = tail(latencies) if latencies else (0.0, 0.0, 0)
    completed = window["attempted"] - window["failed"]
    return {
        "latency_ms": statistics.median(latencies) if latencies else 0.0,
        "tail_ms": value,
        "tail_percentile": percentile,
        "tail_samples": n,
        "ops_per_s": completed / window["elapsed_s"] if window["elapsed_s"] else 0.0,
        "peak_rss_mb": window.get("peak_rss_mb", 0.0),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = {"correct": True, "errors": []}
    workload = WORKLOADS[args.workload](args)
    try:
        check_claims(result)
        workload.setup(result)
        result["setup_s"] = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps(result))
            return 0
        window = workload.window(args.seconds, traced=False)
        if args.workload == "serve-batch" and not args.trace:
            workload.close()  # the fleet's worker has now been reaped
            window["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        result.update(summary_of(window))
        result.update(attempted=window["attempted"], failed=window["failed"],
                      digest=window["digest"])
        if args.trace:
            result["layers"] = traced_window(args, workload, result)
    finally:
        if args.workload == "serve-batch":
            workload.close()
    result["correct"] = result["correct"] and result["failed"] == 0
    print(json.dumps(result))
    return 0


def traced_window(args, workload, result) -> dict:
    """Re-run the window with every layer wrapped; per-layer metrics."""
    recorder = spans.Recorder()
    if args.workload != "cli-cold":
        spans.install_library_layers(recorder)
    before = physics_counts()
    window = workload.window(args.seconds, traced=True)
    after = physics_counts()
    traced = summary_of(window)
    result["attempted"] += window["attempted"]
    result["failed"] += window["failed"]
    if window["digest"] != result["digest"]:
        result["correct"] = False
        result["errors"].append("traced digest differs from untraced")
    if args.workload == "cli-cold":
        extra = workload.layers(window)
        summary, per = extra["summary"], extra["per"]
    else:
        summary = spans.summarize(recorder.spans)
        per = window["attempted"]
        extra = {
            "import.repro_cli_ms": REPRO_IMPORT_MS,
            "import.numpy_ms": NUMPY_IMPORT_MS,
            "physics": {k: (after[k][0] - before[k][0], after[k][1] - before[k][1])
                        for k in after},
        }
        if args.workload == "serve-batch":
            workload.close()  # the worker reports its stats as it stops
            extra.update(serve_extra(workload, window, summary))
    metrics = layer_metrics(summary, per, extra)
    metrics["trace.overhead_ms"] = traced["latency_ms"] - result["latency_ms"]
    expect = EXERCISE[args.workload]
    wrong = [k for k in expect["+"] if not metrics[k] > 0]
    wrong += [k for k in expect["0"] if metrics[k] != 0]
    if wrong:
        result["correct"] = False
        result["errors"].append(f"layer-exercise check failed: {wrong}")
    result["unmeasurable"] = UNMEASURABLE
    return metrics


if __name__ == "__main__":
    sys.exit(main())
