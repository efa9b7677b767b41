"""Cold-start import budget: a command loads only the modules it uses.

Package ``__init__`` modules are PEP 562 name tables, so what a process
imports follows what it calls.  Every check runs in a fresh interpreter:
what one test imported must not hide what another path loads.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]


def run_python(script: str):
    """Run ``script`` in a fresh interpreter; its stdout parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'repro')"

LOADED_AFTER_MAIN = (
    "import contextlib, io, json, sys\n"
    "from repro.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    main({argv!r})\n"
    f"print(json.dumps({LOADED}))\n"
)

#: workload -> (modules ``repro run <workload> --json`` must not load,
#: the most ``repro`` modules it may load).
BUDGETS = {
    "BERT-base": (
        (
            "repro.graphs", "repro.nn.gnn", "repro.core.ghost",
            "repro.baselines.gnn", "repro.analysis", "repro.serving",
            "repro.streaming", "repro.core.engine.soa",
            "repro.core.engine.hbm.model", "repro.photonics.dse",
            "repro.api.schemas",
        ),
        54,
    ),
    "GCN-cora": (
        (
            "repro.core.tron", "repro.nn.transformer", "repro.analysis",
            "repro.serving", "repro.streaming", "repro.core.engine.soa",
            "repro.photonics.dse", "repro.api.schemas",
        ),
        55,
    ),
}


@pytest.mark.parametrize("workload", sorted(BUDGETS))
def test_run_loads_only_what_it_uses(workload):
    forbidden, most = BUDGETS[workload]
    loaded = run_python(
        LOADED_AFTER_MAIN.format(argv=["run", workload, "--json"])
    )
    assert sorted(set(forbidden) & set(loaded)) == []
    assert len(loaded) <= most, loaded


def test_every_module_imports_on_its_own():
    """A lazy ``__init__`` must not hide an import cycle: each module
    imports first in a process that holds no other ``repro`` module."""
    script = (
        "import importlib, json, pkgutil, sys\n"
        "import repro\n"
        "names = ['repro'] + sorted(m.name for m in pkgutil.walk_packages(\n"
        "    repro.__path__, 'repro.'))\n"
        "failures = {}\n"
        "for name in names:\n"
        f"    for loaded in {LOADED}:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as exc:\n"
        "        failures[name] = repr(exc)\n"
        "print(json.dumps([len(names), failures]))\n"
    )
    count, failures = run_python(script)
    assert count > 80
    assert failures == {}


def test_package_tables_list_and_resolve_every_public_name():
    """``dir()`` lists, ``getattr`` resolves and ``import *`` binds every
    ``__all__`` name of every package, and a package's table holds
    nothing outside ``__all__``."""
    script = (
        "import importlib, json, pkgutil, sys\n"
        "import repro\n"
        "packages = ['repro'] + sorted(m.name for m in pkgutil.walk_packages(\n"
        "    repro.__path__, 'repro.') if m.ispkg)\n"
        "problems = {}\n"
        "for name in packages:\n"
        f"    for loaded in {LOADED}:\n"
        "        del sys.modules[loaded]\n"
        "    package = importlib.import_module(name)\n"
        "    public = set(package.__all__)\n"
        "    table = set(dir(package)) - set(vars(package))\n"
        "    star = {}\n"
        "    exec(f'from {name} import *', star)\n"
        "    bad = sorted(public ^ (table | (public & set(vars(package)))))\n"
        "    bad += sorted(public - set(star))\n"
        "    bad += [n for n in sorted(public) if getattr(package, n) is None]\n"
        "    if bad:\n"
        "        problems[name] = bad\n"
        "print(json.dumps([len(packages), problems]))\n"
    )
    count, problems = run_python(script)
    assert count >= 15
    assert problems == {}


def test_fleet_worker_imports_nothing_after_fork():
    """Importing the fleet loads what a worker's scheduler pass reaches,
    so forked workers inherit it instead of importing it themselves."""
    script = (
        "import json, sys\n"
        "import repro.serving.fleet\n"
        "from repro.serving import ServingEngine, generate_trace\n"
        "from repro.serving import record_to_request\n"
        f"before = set({LOADED})\n"
        "records = generate_trace(num_requests=200, seed=1)\n"
        "records += [{'workload': name} for name in (\n"
        "    'decode-gpt2-small', 'GCN-ba-temporal', 'LLM-serving-mix')]\n"
        "ServingEngine().serve([record_to_request(r) for r in records])\n"
        f"print(json.dumps(sorted(set({LOADED}) - before)))\n"
    )
    assert run_python(script) == []
