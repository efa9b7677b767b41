"""The declarative experiment API: specs, the platform registry, and
the :class:`Session` facade.

This package is the library's single programmatic surface — the CLI
subcommands are thin adapters over it, and the serving engine accepts
its specs directly:

- :mod:`repro.api.registry` — the **platform registry**
  (:func:`register_platform` / :func:`get_platform`), mirroring the
  workload registry: TRON, GHOST and the roofline baselines behind one
  factory API with validated config overrides.
- :mod:`repro.api.spec` — the versioned **ExperimentSpec**
  (``repro.spec/1``): platform + overrides + workload + context +
  analysis, round-tripping through JSON/TOML and fingerprinting with
  the cache digest scheme.
- :mod:`repro.api.session` — the **Session** facade
  (``run`` / ``sweep`` / ``monte_carlo`` / ``corners`` / ``serve`` /
  ``execute``) returning typed result objects.
- :mod:`repro.api.results` — those result types, each owning its
  schema-versioned JSON envelope and its human-readable rendering.
- :mod:`repro.api.schemas` — machine-checkable JSON Schemas of every
  interchange format (the CI schema job validates against them).

Example:
    >>> from repro.api import Session, ExperimentSpec
    >>> Session().run("MLP-mnist").report.platform
    'TRON'
    >>> ExperimentSpec.from_dict(
    ...     {"schema": "repro.spec/1", "workload": "MLP-mnist"}).workload
    'MLP-mnist'
"""

from repro.api.registry import (
    PlatformInfo,
    get_platform,
    get_platform_info,
    list_platforms,
    register_platform,
    resolve_platform,
)
from repro.api.results import (
    JSON_SCHEMA_VERSION,
    CornersResult,
    MonteCarloRunResult,
    RunResult,
    ServeResult,
    SweepResult,
    TraceResult,
    json_envelope,
)
from repro.api.schemas import SCHEMAS, schema_for, validate_payload
from repro.api.session import Session
from repro.api.spec import (
    ANALYSIS_KINDS,
    SPEC_SCHEMA,
    AnalysisSpec,
    ContextSpec,
    ExperimentSpec,
    PlatformSpec,
    load_spec,
)

__all__ = [
    "Session",
    "ExperimentSpec",
    "PlatformSpec",
    "ContextSpec",
    "AnalysisSpec",
    "load_spec",
    "SPEC_SCHEMA",
    "ANALYSIS_KINDS",
    "PlatformInfo",
    "register_platform",
    "get_platform",
    "get_platform_info",
    "list_platforms",
    "resolve_platform",
    "RunResult",
    "SweepResult",
    "MonteCarloRunResult",
    "CornersResult",
    "ServeResult",
    "TraceResult",
    "json_envelope",
    "JSON_SCHEMA_VERSION",
    "SCHEMAS",
    "schema_for",
    "validate_payload",
]
