"""Regenerate the golden fixtures under ``tests/golden/``.

Usage::

    PYTHONPATH=src python tools/regen_golden_traces.py

Rewrites, in one command:

- ``hbm_small.dramtrace`` — the pinned DRAM command trace
  (``tests/unit/test_memory_backends.py::TestGoldenTrace`` mirrors the
  recipe below; keep the two in sync),
- ``envelopes/*.json`` — the ``--json`` envelopes of the commands in
  :data:`ENVELOPES` (nominal and corner runs, corner sweeps,
  Monte-Carlo, a trace replay), produced in-process through
  :func:`repro.cli.main`.  ``tests/integration/test_golden_envelopes.py``
  recomputes each one through :func:`envelope_text` and compares bytes.

Run it only when a deliberate model change moves the numbers, and commit
the diff with the change that caused it.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile
from typing import Dict, List

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import cli  # noqa: E402
from repro.core.context import ExecutionContext  # noqa: E402
from repro.core.engine import HBMGeometry, HBMMemoryModel, memo  # noqa: E402
from repro.core.tron.config import TRONConfig  # noqa: E402

GOLDEN = REPO / "tests" / "golden"
ENVELOPE_DIR = GOLDEN / "envelopes"

#: ``repro`` command lines of the pinned envelopes, by fixture name.
#: ``{trace}`` stands for a trace file written by :data:`TRACE_ARGV`.
ENVELOPES: Dict[str, List[str]] = {
    "run_bert_base_analytic.json": ["run", "BERT-base", "--json"],
    "run_gcn_cora_analytic.json": ["run", "GCN-cora", "--json"],
    "run_decode_gpt2_small.json": ["run", "decode-gpt2-small", "--json"],
    "sweep_all_corners_seed0.json": [
        "sweep", "all", "--corners", "--json", "--seed", "0",
    ],
    "sweep_all_corners_seed4.json": [
        "sweep", "all", "--corners", "--json", "--seed", "4",
    ],
    "mc_bert_base.json": ["mc", "BERT-base", "--json"],
    "mc_gcn_cora.json": ["mc", "GCN-cora", "--json"],
    "serve_trace.json": ["serve", "--trace", "{trace}", "--json"],
}

#: The ``gen-trace`` command behind the ``serve`` fixture.
TRACE_ARGV = ["gen-trace", "{trace}", "--requests", "256"]

#: Envelope fields left out of the fixtures.  ``physics_cache`` reports
#: memo hit/miss counters, and ``memo.clear()`` keeps those counters, so
#: in one process they depend on every command run before (the same
#: sweep gives other counts after an ``mc``).  The ``serve`` fields
#: under ``stats`` are wall-clock timings.
VOLATILE_TOP = ("physics_cache",)
VOLATILE_STATS = (
    "busy_s",
    "throughput_rps",
    "mean_latency_s",
    "p50_latency_s",
    "p95_latency_s",
    "p99_latency_s",
)


def pinned_trace_text() -> str:
    """The pinned trace workload: stream + store + scattered read on the
    stock TRON memory system at seed 7 (mirrored by the golden-trace
    test — change both together)."""
    model = HBMMemoryModel(
        TRONConfig().memory,
        context=ExecutionContext(seed=7),
        geometry=HBMGeometry(op_trace=True),
    )
    model.stream_offchip(4096)
    model.store_offchip(1024)
    model.random_offchip(512, 4.0)
    return model.trace.format()


def _cli_stdout(argv: List[str]) -> str:
    """stdout of one in-process ``repro`` command, from cold memos."""
    memo.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return out.getvalue()


def envelope_text(fixture: str, workdir: pathlib.Path) -> str:
    """The fixture text of one :data:`ENVELOPES` entry.

    ``workdir`` holds the generated trace; the envelope records it by
    file name only.
    """
    trace = pathlib.Path(workdir) / "trace.json"
    argv = ENVELOPES[fixture]
    if "{trace}" in argv:
        _cli_stdout([arg.replace("{trace}", str(trace)) for arg in TRACE_ARGV])
    envelope = json.loads(
        _cli_stdout([arg.replace("{trace}", str(trace)) for arg in argv])
    )
    for name in VOLATILE_TOP:
        envelope.pop(name, None)
    for name in VOLATILE_STATS:
        envelope.get("stats", {}).pop(name, None)
    if "trace" in envelope["context"]:
        envelope["context"]["trace"] = trace.name
    return json.dumps(envelope, indent=2) + "\n"


def main() -> int:
    ENVELOPE_DIR.mkdir(parents=True, exist_ok=True)

    trace_path = GOLDEN / "hbm_small.dramtrace"
    trace_path.write_text(pinned_trace_text())
    print(f"wrote {trace_path}")

    with tempfile.TemporaryDirectory(prefix="repro-golden-") as workdir:
        for fixture in ENVELOPES:
            path = ENVELOPE_DIR / fixture
            path.write_text(envelope_text(fixture, pathlib.Path(workdir)))
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
