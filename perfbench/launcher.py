"""Traced stand-in for ``python -m repro``: one cold CLI op with spans.

Usage: ``python -X importtime perfbench/launcher.py OUT.json <repro args>``

Times ``import repro.cli``, installs the layer wrappers, runs
``repro.cli.main`` with the remaining arguments, and writes the spans
plus the physics-memo counters of the op to ``OUT.json``.  The envelope
goes to stdout exactly as ``python -m repro`` prints it.
"""

import json
import sys
import time

start = time.perf_counter()
import repro.cli  # noqa: E402

import_ms = (time.perf_counter() - start) * 1e3

import spans  # noqa: E402
from repro.core.engine import physics_cache_stats  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install_library_layers(recorder)
    dumps = json.dumps
    repro.cli.json.dumps = recorder.traced("api.envelope", dumps)
    before = physics_cache_stats()
    try:
        code = recorder.traced("cli.main", repro.cli.main)(argv)
    finally:
        sys.stdout.flush()
        repro.cli.json.dumps = dumps
        after = physics_cache_stats()
        with open(out_path, "w") as handle:
            json.dump(
                {
                    "import_ms": import_ms,
                    "spans": recorder.spans,
                    "physics_before": before,
                    "physics_after": after,
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
