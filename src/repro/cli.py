"""Command-line interface: ``python -m repro <command>``.

Every subcommand is a thin adapter over the programmatic API
(:class:`repro.api.Session`): the handlers below only parse arguments,
call the matching Session entry point, and print the returned result
object — all platform/analysis construction lives behind the facade.

Commands:

- ``describe`` — print both accelerators' configurations.
- ``claims`` — regenerate and check the paper's headline claims.
- ``figures`` — print the regenerated Figs. 8-11 tables.
- ``sweep tron|ghost|all`` — design-space sweep(s) with Pareto marking
  (``--corners`` adds the execution-corner axis).
- ``run <workload>`` — cost any registered workload on a platform,
  optionally at a named corner (``--corner slow-hot``).
- ``workloads`` — list the registered workload names.
- ``mc <workload>`` — Monte-Carlo variation analysis: yield and metric
  distributions over N sampled dies.
- ``corners`` — evaluate the standard corner grid on both accelerators.
- ``serve`` — replay a JSON request trace through the batching/caching
  serving engine (``--stats`` prints the fleet accounting);
  ``--workers N`` shards it over worker processes and ``--arrivals
  poisson:RATE`` drives open-loop offered load with admission control.
- ``gen-trace`` — synthesize a mixed LLM+GNN request trace.

``run`` / ``sweep`` / ``mc`` / ``serve`` also accept a declarative
experiment spec (``--spec file.{json,toml}``, format ``repro.spec/1``;
see docs/api.md) instead of flags.  ``--seed`` selects the fabricated
die / synthesized graph replica; ``--json`` switches output to
machine-readable JSON.  Every JSON payload is a schema-versioned
envelope — ``{"schema": "repro.<command>/1", "repro_version": "...",
"context": {...}, ...}`` — documented in ``docs/cli.md`` and
machine-checkable via :mod:`repro.api.schemas`.  ``repro --version``
prints the library version embedded in those envelopes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro._lazy import attach
from repro._version import __version__

# Re-exported here for backwards compatibility: the envelope builder
# now lives with the typed result objects in repro.api.results.
__getattr__, __dir__ = attach(__name__, {
    "repro.api.results": ("JSON_SCHEMA_VERSION", "json_envelope"),
})


def _session():
    """The Session behind this invocation."""
    from repro.api import Session

    return Session()


#: Flags that shape how a command prints, not what it runs; they are the
#: only ones that combine with ``--spec``.
_OUTPUT_FLAGS = ("spec", "json", "stats")


def _load_spec(args):
    """Load ``--spec`` input, checking it matches the subcommand and
    that no conflicting flags/positionals were passed alongside it —
    the spec is the whole experiment; silently ignoring an explicit
    flag would run a different experiment than the command line reads.

    Every flag of the subcommand but :data:`_OUTPUT_FLAGS` conflicts
    when it differs from the parser's own default, so a flag added to
    the parser later is checked without further code.
    """
    from repro.api import load_spec
    from repro.errors import ConfigurationError

    defaults = vars(build_parser().parse_args([args.command]))
    conflicting = sorted(
        name.replace("_", "-")
        for name, default in defaults.items()
        if name not in _OUTPUT_FLAGS and getattr(args, name) != default
    )
    if conflicting:
        raise ConfigurationError(
            f"--spec replaces the experiment flags; drop {conflicting} "
            "or edit the spec file instead"
        )
    spec = load_spec(args.spec)
    if spec.analysis.kind != args.command:
        raise ConfigurationError(
            f"{args.spec}: spec declares analysis kind "
            f"{spec.analysis.kind!r}; run it with "
            f"'repro {spec.analysis.kind} --spec {args.spec}'"
        )
    return spec


def _emit(result, args) -> None:
    """Print a result object the way the flags ask for."""
    if getattr(args, "json", False):
        print(json.dumps(result.envelope(), indent=2, allow_nan=False))
    else:
        print(result.format())


def _cmd_describe(_args) -> int:
    print(_session().describe())
    return 0


def _cmd_claims(_args) -> int:
    checks = _session().claims()
    for check in checks:
        print(check.format())
    return 0 if all(check.holds for check in checks) else 1


def _cmd_figures(_args) -> int:
    for figure in _session().figures():
        print(figure.format())
        print()
    return 0


def _cmd_workloads(_args) -> int:
    session = _session()
    for name in session.workloads():
        print(f"{name:<20s} {session.describe_workload(name)}")
    return 0


def _cmd_sweep(args) -> int:
    session = _session()
    if args.spec:
        result = session.execute(_load_spec(args))
    else:
        if args.target is None:
            raise _missing("sweep", "a target (tron|ghost|all)")
        result = session.sweep(
            target=args.target,
            corners=args.corners,
            seed=args.seed,
        )
    _emit(result, args)
    return 0


def _cmd_run(args) -> int:
    session = _session()
    if args.spec:
        result = session.execute(_load_spec(args))
    else:
        if args.workload is None:
            raise _missing("run", "a workload name")
        result = session.run(
            args.workload,
            platform=args.platform,
            batch=args.batch,
            corner=args.corner,
            seed=args.seed,
            memory_backend=args.memory_backend,
            trace_dump=args.trace_dump,
        )
    _emit(result, args)
    return 0


def _cmd_mc(args) -> int:
    session = _session()
    if args.spec:
        result = session.execute(_load_spec(args))
    else:
        if args.workload is None:
            raise _missing("mc", "a workload name")
        result = session.monte_carlo(
            args.workload,
            platform=args.platform,
            samples=args.samples,
            corner=args.corner,
            seed=args.seed,
            tuner_range_nm=args.tuner_range,
        )
    _emit(result, args)
    return 0


def _cmd_corners(args) -> int:
    result = _session().corners(seed=args.seed)
    _emit(result, args)
    return 0


def _cmd_serve(args) -> int:
    session = _session()
    if args.spec:
        result = session.execute(_load_spec(args))
    else:
        if args.trace is None:
            raise _missing("serve", "a --trace file")
        result = session.serve(
            trace=args.trace,
            repeat=args.repeat,
            window=args.window,
            cache_entries=args.cache_entries,
            workers=args.workers,
            arrivals=args.arrivals,
            max_queue=args.max_queue,
            tenant_rate=args.tenant_rate,
        )
    if args.json:
        print(json.dumps(result.envelope(), indent=2, allow_nan=False))
    else:
        print(result.format(detailed=args.stats))
    return 0 if result.ok else 1


def _cmd_gen_trace(args) -> int:
    result = _session().generate_trace(
        output=args.output,
        requests=args.requests,
        seed=args.seed,
        catalog=args.catalog,
        llm_fraction=args.llm_fraction,
        skew=args.skew,
        tenants=args.tenants,
        shape=args.shape,
        rate=args.rate,
    )
    print(result.format())
    return 0


def _missing(command: str, what: str):
    from repro.errors import ConfigurationError

    return ConfigurationError(f"'{command}' needs {what} or --spec FILE")


def _add_seed(parser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="die / replica selection seed (threads into the "
        "ExecutionContext)",
    )


def _add_spec(parser) -> None:
    parser.add_argument(
        "--spec",
        metavar="FILE",
        help="run a declarative experiment spec (repro.spec/1, "
        ".json or .toml) instead of flags; see docs/api.md",
    )


CORNER_NAMES = ("nominal", "typical", "slow-hot", "fast-cold")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    from repro.api.session import SERVE_MAX_QUEUE, SERVE_WINDOW

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Silicon-photonic accelerator simulators (TRON & GHOST)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the library version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("describe", help="print accelerator configurations")
    sub.add_parser("claims", help="check the paper's headline claims")
    sub.add_parser("figures", help="regenerate Figs. 8-11")
    sub.add_parser("workloads", help="list registered workloads")

    sweep = sub.add_parser("sweep", help="design-space sweep with Pareto")
    sweep.add_argument(
        "target", nargs="?", choices=("tron", "ghost", "all"), default=None
    )
    sweep.add_argument(
        "--corners",
        action="store_true",
        help="add the standard execution-corner axis to the sweep",
    )
    sweep.add_argument("--json", action="store_true")
    _add_seed(sweep)
    _add_spec(sweep)

    run = sub.add_parser("run", help="cost any registered workload")
    run.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="registered name, e.g. BERT-base, GCN-cora",
    )
    run.add_argument(
        "--platform",
        choices=("auto", "tron", "ghost"),
        default="auto",
        help="target accelerator (auto picks by workload kind)",
    )
    run.add_argument("--batch", type=int, default=1)
    run.add_argument(
        "--corner",
        choices=CORNER_NAMES,
        default="nominal",
        help="evaluate at a standard execution corner",
    )
    run.add_argument(
        "--memory-backend",
        default=None,
        help="memory backend override (analytic|hbm|hbm-pim); default "
        "keeps the platform's configured backend",
    )
    run.add_argument(
        "--trace-dump",
        default=None,
        metavar="PATH",
        help="write the DRAM command trace here (needs --memory-backend "
        "hbm or hbm-pim)",
    )
    run.add_argument("--json", action="store_true")
    _add_seed(run)
    _add_spec(run)

    mc = sub.add_parser(
        "mc", help="Monte-Carlo variation analysis of a workload"
    )
    mc.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="registered name, e.g. BERT-base",
    )
    mc.add_argument(
        "--platform", choices=("auto", "tron", "ghost"), default="auto"
    )
    mc.add_argument("--samples", type=int, default=128)
    mc.add_argument(
        "--corner",
        choices=CORNER_NAMES,
        default="typical",
        help="die population to sample (nominal falls back to the "
        "typical variation statistics)",
    )
    mc.add_argument(
        "--tuner-range",
        type=float,
        default=None,
        help="TO tuner correction range in nm (dead rings beyond it); "
        "default 0.55 x FSR",
    )
    mc.add_argument("--json", action="store_true")
    _add_seed(mc)
    _add_spec(mc)

    corners = sub.add_parser(
        "corners", help="evaluate the standard corner grid on TRON & GHOST"
    )
    corners.add_argument("--json", action="store_true")
    _add_seed(corners)

    serve = sub.add_parser(
        "serve",
        help="replay a JSON request trace through the serving engine",
    )
    serve.add_argument(
        "--trace", help="trace file (see repro gen-trace)"
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="print cache/dedup/latency accounting after the replay",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="replay the trace N times (the cache stays warm between "
        "replays)",
    )
    serve.add_argument(
        "--window",
        type=int,
        default=SERVE_WINDOW,
        help="in-process micro-batch window: requests coalesced per flush "
        "(rejected with --workers)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        help="report-cache bound (LRU eviction beyond it)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard the trace over N worker processes (0 = in-process)",
    )
    serve.add_argument(
        "--arrivals",
        default=None,
        metavar="KIND:RATE[:BURST]",
        help="open-loop offered load, e.g. poisson:5000, "
        "bursty:2000:16, diurnal:poisson:500, or 'trace' to adopt the "
        "trace's recorded hint (needs --workers)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=SERVE_MAX_QUEUE,
        help="fleet per-shard in-flight bound; admission control sheds "
        "beyond it (needs --workers)",
    )
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        help="fleet per-tenant token-bucket quota (req/s; needs --workers)",
    )
    serve.add_argument("--json", action="store_true")
    _add_spec(serve)

    gen_trace = sub.add_parser(
        "gen-trace",
        help="synthesize a mixed LLM+GNN request trace with repeat skew",
    )
    gen_trace.add_argument("output", help="trace file to write")
    gen_trace.add_argument(
        "--requests", type=int, default=1000, help="trace length"
    )
    gen_trace.add_argument(
        "--catalog",
        type=int,
        default=48,
        help="distinct request types in the traffic mix",
    )
    gen_trace.add_argument(
        "--llm-fraction",
        type=float,
        default=0.7,
        help="fraction of LLM/MLP (vs. GNN) request types",
    )
    gen_trace.add_argument(
        "--skew",
        type=float,
        default=1.1,
        help="Zipf popularity exponent of the request types",
    )
    gen_trace.add_argument(
        "--tenants",
        type=int,
        default=0,
        help="multi-tenant traffic model: N tenants with per-tenant "
        "catalogs of embedded specs (0 = classic flat records)",
    )
    gen_trace.add_argument(
        "--shape",
        choices=("flat", "diurnal"),
        default="flat",
        help="arrival-shape hint stored in the trace for open-loop "
        "replay (serve --arrivals trace)",
    )
    gen_trace.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="mean offered rate (req/s) of the stored arrival hint",
    )
    _add_seed(gen_trace)

    return parser


_HANDLERS = {
    "describe": _cmd_describe,
    "claims": _cmd_claims,
    "figures": _cmd_figures,
    "workloads": _cmd_workloads,
    "sweep": _cmd_sweep,
    "run": _cmd_run,
    "mc": _cmd_mc,
    "corners": _cmd_corners,
    "serve": _cmd_serve,
    "gen-trace": _cmd_gen_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
