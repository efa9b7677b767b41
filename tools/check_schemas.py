"""Validate every ``--json`` CLI envelope and shipped spec against the
registered JSON Schemas.

Usage::

    PYTHONPATH=src python tools/check_schemas.py

What it checks (this is what the CI ``schemas`` job runs):

1. Every JSON-emitting subcommand's actual output parses and validates
   against its ``repro.<cmd>/1`` schema (:mod:`repro.api.schemas`).
2. Every spec shipped under ``examples/specs/`` loads, validates
   against ``repro.spec/1``, round-trips (file → spec → dict → spec)
   without loss, builds its platform(s) and resolves its context — so
   its overrides pass the config classes' ``LIMITS`` tables.
3. A generated trace validates against ``repro.trace/1``.

Every document is parsed strictly: ``NaN``/``Infinity`` (which Python's
``json`` accepts but JSON does not) fail the check.

Requires the optional ``jsonschema`` package.  Exits non-zero on any
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api import (  # noqa: E402
    get_platform,
    load_spec,
    resolve_platform,
    validate_payload,
)
from repro.api.schemas import schema_for  # noqa: E402
from repro.cli import main  # noqa: E402


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(text: str):
    """``json.loads`` that rejects ``NaN``/``Infinity``/``-Infinity``."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli_json(argv: list) -> dict:
    """Run one CLI invocation in-process and parse its JSON output."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return strict_loads(buffer.getvalue())


def spec_platforms(spec) -> tuple:
    """The registry names a spec's platform block builds: both targets
    for a ``sweep all``, the routed platform for ``auto`` plus a
    workload, none for a workload-free ``auto``."""
    name = spec.platform.name
    if name == "all":
        return ("tron", "ghost")
    if name != "auto":
        return (name,)
    if spec.workload is None:
        return ()
    from repro.core.base import get_workload

    return (resolve_platform(name, get_workload(spec.workload).kind),)


def check(label: str, fn) -> bool:
    try:
        detail = fn()
    except Exception as exc:  # noqa: BLE001 - report and fail the job
        print(f"  FAIL  {label}: {type(exc).__name__}: {exc}")
        return False
    print(f"    ok  {label}{f' ({detail})' if detail else ''}")
    return True


def main_check() -> int:
    import jsonschema  # hard requirement of this tool, not the library

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="repro-schemas-"))
    trace_path = tmp / "trace.json"
    tenant_trace_path = tmp / "tenants.json"

    def gen_trace():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(
                ["gen-trace", str(trace_path), "--requests", "24",
                 "--catalog", "6"]
            )
        assert code == 0
        payload = strict_loads(trace_path.read_text())
        return validate_payload(payload)

    def gen_tenant_trace():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(
                ["gen-trace", str(tenant_trace_path), "--requests", "24",
                 "--catalog", "5", "--tenants", "3", "--shape", "diurnal"]
            )
        assert code == 0
        payload = strict_loads(tenant_trace_path.read_text())
        assert payload["arrivals"] == "diurnal:poisson:500"
        assert all("tenant" in record for record in payload["requests"])
        return validate_payload(payload)

    def run_decode():
        payload = run_cli_json(["run", "decode-gpt2-small", "--json"])
        assert "decode" in payload  # the optional per-token block
        return validate_payload(payload)

    commands = [
        ("run --json", ["run", "MLP-mnist", "--json"]),
        (
            "run --corner typical --json",
            ["run", "MLP-mnist", "--corner", "typical", "--seed", "1",
             "--json"],
        ),
        (
            "run --memory-backend hbm --json",
            ["run", "MLP-mnist", "--memory-backend", "hbm", "--json"],
        ),
        (
            "run --memory-backend hbm-pim --trace-dump --json",
            ["run", "MLP-mnist", "--memory-backend", "hbm-pim",
             "--trace-dump", str(tmp / "mlp.dramtrace"), "--json"],
        ),
        ("mc --json", ["mc", "MLP-mnist", "--samples", "4", "--json"]),
        ("corners --json", ["corners", "--json"]),
        ("sweep ghost --json", ["sweep", "ghost", "--json"]),
        (
            "serve --json",
            ["serve", "--trace", str(trace_path), "--repeat", "2", "--json"],
        ),
        (
            "serve --workers --arrivals --json",
            ["serve", "--trace", str(trace_path), "--workers", "2",
             "--arrivals", "poisson:500", "--json"],
        ),
        (
            "serve tenant trace --arrivals trace --json",
            ["serve", "--trace", str(tenant_trace_path), "--workers", "1",
             "--arrivals", "trace", "--json"],
        ),
    ]

    failures = 0
    if not check("gen-trace (repro.trace/1)", gen_trace):
        failures += 1
    if not check("gen-trace --tenants --shape (repro.trace/1)",
                 gen_tenant_trace):
        failures += 1
    if not check("run decode-gpt2-small --json (decode block)", run_decode):
        failures += 1
    for label, argv in commands:
        if not check(label, lambda argv=argv: validate_payload(run_cli_json(argv))):
            failures += 1

    spec_files = sorted((REPO / "examples" / "specs").iterdir())
    if not spec_files:
        print("  FAIL  no example specs shipped under examples/specs/")
        failures += 1
    for path in spec_files:
        def check_spec(path=path):
            spec = load_spec(path)
            jsonschema.validate(spec.to_dict(), schema_for("repro.spec/1"))
            assert type(spec).from_dict(spec.to_dict()) == spec
            for name in spec_platforms(spec):
                get_platform(name, overrides=dict(spec.platform.overrides))
            spec.context.resolve()
            return spec.fingerprint()

        if not check(f"spec {path.name}", check_spec):
            failures += 1

    if failures:
        print(f"{failures} schema check(s) failed")
        return 1
    print("all schema checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main_check())
