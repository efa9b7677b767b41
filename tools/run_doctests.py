"""Run the documentation doctests: public-API docstrings + docs pages.

Usage::

    PYTHONPATH=src python tools/run_doctests.py

Imports each audited module properly (``python -m doctest file.py``
would import package files standalone, duplicating the workload
registry) and runs ``doctest.testmod`` over it, then ``doctest.testfile``
over every ``docs/*.md`` page and the README.  Exits non-zero on any
failure, or if an audited module has lost all its examples.

The tier-1 suite runs the same checks through
``tests/unit/test_docs.py``; this entry point is what the CI docs job
calls.
"""

from __future__ import annotations

import doctest
import importlib
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: The audited public-API modules: every one must carry runnable
#: examples (the PR-3 docstring audit covers core, robustness and
#: workloads; serving shipped with examples from day one).
AUDITED_MODULES = (
    "repro._version",
    "repro.core.base",
    "repro.core.reports",
    "repro.core.context",
    "repro.core.scheduling",
    "repro.core.serialization",
    "repro.core.engine.memo",
    "repro.core.engine.membackend",
    "repro.core.engine.movement",
    "repro.core.engine.hbm.geometry",
    "repro.core.engine.hbm.trace",
    "repro.core.engine.hbm.model",
    "repro.core.engine.hbm.pim",
    "repro.analysis.robustness",
    "repro.workloads",
    "repro.streaming.decode",
    "repro.streaming.temporal",
    "repro.streaming.traffic",
    "repro.serving.cache",
    "repro.serving.request",
    "repro.serving.engine",
    "repro.serving.trace",
    "repro.serving.arrivals",
    "repro.serving.admission",
    "repro.serving.shard",
    "repro.serving.fleet",
    "repro.api.registry",
    "repro.api.spec",
    "repro.api.session",
    "repro.api.results",
    "repro.api.schemas",
)


def doc_pages() -> list:
    """The markdown pages whose ``>>>`` examples must run."""
    return sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]


def main() -> int:
    failed = 0
    for name in AUDITED_MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        status = "ok" if result.failed == 0 else "FAIL"
        if result.attempted == 0:
            status = "FAIL (no examples)"
        print(
            f"{status:>6s}  {name}: {result.attempted} examples, "
            f"{result.failed} failures"
        )
        if result.failed or result.attempted == 0:
            failed += 1
    for page in doc_pages():
        result = doctest.testfile(
            str(page), module_relative=False, verbose=False
        )
        status = "ok" if result.failed == 0 else "FAIL"
        print(
            f"{status:>6s}  {page.relative_to(REPO)}: "
            f"{result.attempted} examples, {result.failed} failures"
        )
        if result.failed:
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
