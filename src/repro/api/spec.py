"""The declarative experiment spec: ``repro.spec/1``.

An :class:`ExperimentSpec` is the serialized form of one experiment —
what a CLI invocation, a queued serving job, or a checked-in experiment
definition all reduce to.  It names **what** to evaluate, never **how**
to print it::

    {"schema": "repro.spec/1",
     "platform": {"name": "tron", "overrides": {"batch": 8}},
     "workload": "BERT-base",
     "context": {"corner": "typical", "seed": 3, "tuner_range_nm": null},
     "analysis": {"kind": "run", ...}}

The four blocks:

- **platform** (:class:`PlatformSpec`) — a registered platform name
  (``"auto"`` routes by workload kind; for ``kind="sweep"`` it is the
  sweep target ``tron``/``ghost``/``all``) plus sparse config
  overrides, validated against the platform's config dataclass.
- **workload** — a registered workload name (``repro workloads``).
- **context** (:class:`ContextSpec`) — a standard corner name + die
  seed (+ optional tuner range), resolved through the same
  :func:`repro.core.context.resolve_corner` rule as the CLI flags.
- **analysis** (:class:`AnalysisSpec`) — which evaluation to run
  (``run`` / ``sweep`` / ``mc`` / ``corners`` / ``serve``) and its
  parameters.

Specs round-trip losslessly through dicts, JSON, and TOML (reading TOML
needs Python 3.11+ ``tomllib``), and :meth:`ExperimentSpec.fingerprint`
digests the canonical form — library version included — with the same
scheme as the report/physics caches, so cached artifacts can be keyed
by the spec that produced them.

Example:
    >>> spec = ExperimentSpec(workload="BERT-base")
    >>> ExperimentSpec.from_dict(spec.to_dict()) == spec
    True
    >>> spec.fingerprint() == spec.fingerprint()
    True
    >>> ExperimentSpec.from_json(spec.to_json()) == spec
    True
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Union

from repro._version import __version__
from repro.core.context import ExecutionContext, resolve_corner
from repro.core.engine.memo import fingerprint as _digest
from repro.core.serialization import (
    check_limits,
    config_from_dict,
    config_to_dict,
)
from repro.errors import ConfigurationError

#: Schema tag of the spec interchange format.
SPEC_SCHEMA = "repro.spec/1"

#: The analysis kinds a spec can declare (= the Session entry points).
ANALYSIS_KINDS = ("run", "sweep", "mc", "corners", "serve")


def _canonical(value: Any) -> Any:
    """``value`` with every nested mapping key-sorted (deterministic
    serialization for fingerprints and round-trip comparisons)."""
    if isinstance(value, Mapping):
        return {key: _canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _freeze(value: Any) -> Any:
    """A hashable deep-frozen view of a canonical value tree."""
    if isinstance(value, Mapping):
        return tuple((key, _freeze(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class PlatformSpec:
    """The platform block: a registry name plus sparse overrides.

    Example:
        >>> spec = PlatformSpec(name="tron", overrides={"batch": 8})
        >>> spec.build().config.batch
        8
        >>> PlatformSpec.from_dict(spec.to_dict()) == spec
        True
    """

    name: str = "auto"
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a platform spec needs a name")
        if not isinstance(self.overrides, Mapping):
            raise ConfigurationError(
                f"platform overrides must be a mapping, "
                f"got {self.overrides!r}"
            )
        object.__setattr__(self, "overrides", _canonical(self.overrides))

    def __hash__(self) -> int:
        # The generated hash would reject the overrides dict; hash the
        # canonical frozen form instead (specs are natural set members).
        return hash((self.name, _freeze(self.overrides)))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (canonically key-sorted overrides)."""
        return {"name": self.name, "overrides": dict(self.overrides)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformSpec":
        """Reconstruct from :meth:`to_dict` output (validating keys)."""
        return config_from_dict(cls, data, path="platform")

    def build(self, batch: Optional[int] = None):
        """The configured accelerator this block denotes.

        ``batch`` (when not ``None``) overrides the ``batch`` knob —
        the serving/CLI convention for TRON's weight-streaming batch.
        """
        from repro.api.registry import get_platform

        overrides = dict(self.overrides)
        if batch is not None:
            overrides["batch"] = batch
        return get_platform(self.name, overrides=overrides or None)


@dataclass(frozen=True)
class ContextSpec:
    """The context block: corner name + die seed (+ tuner range).

    Resolution follows :func:`repro.core.context.resolve_corner` — the
    exact rule behind the CLI's ``--corner``/``--seed`` flags — so a
    spec and the equivalent CLI invocation evaluate the same die.

    Example:
        >>> ContextSpec(corner="typical", seed=3).resolve().seed
        3
        >>> ContextSpec().resolve() is None     # nominal = context-free
        True
    """

    corner: str = "nominal"
    seed: int = 0
    tuner_range_nm: Optional[float] = None

    LIMITS = {
        name: ExecutionContext.LIMITS[name]
        for name in ("seed", "tuner_range_nm")
    }

    __post_init__ = check_limits

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ContextSpec":
        """Reconstruct from :meth:`to_dict` output (validating keys)."""
        return config_from_dict(cls, data, path="context")

    def resolve(self) -> Optional[ExecutionContext]:
        """The :class:`ExecutionContext` this block denotes (``None``
        for the nominal corner — the context-free path).

        Raises:
            ConfigurationError: if a tuner range is set on the nominal
                corner — there is no variation for it to constrain, and
                silently ignoring a declared constraint would report
                numbers the spec does not describe.
        """
        ctx = resolve_corner(self.corner, self.seed)
        if ctx is None:
            if self.tuner_range_nm is not None:
                raise ConfigurationError(
                    "tuner_range_nm only applies where process variation "
                    f"exists; corner {self.corner!r} resolves to the "
                    "nominal (context-free) path"
                )
            return None
        if self.tuner_range_nm is not None:
            ctx = replace(ctx, tuner_range_nm=self.tuner_range_nm)
        return ctx


#: The in-process ``serve`` micro-batch window (requests per engine
#: ``serve`` call); a worker fleet batches per shard instead.
SERVE_WINDOW = 64


@dataclass(frozen=True)
class AnalysisSpec:
    """The analysis block: which evaluation to run, and its knobs.

    Attributes:
        kind: one of :data:`ANALYSIS_KINDS`.
        samples: Monte-Carlo die count (``mc``).
        corners_axis: add the standard-corner axis to the sweep grid
            (``sweep``).
        trace: request-trace path to replay (``serve``).
        repeat: trace replays, cache kept warm between them (``serve``).
        window: micro-batch window — requests coalesced per flush
            (``serve``, in process only: a fleet spec keeps the
            default).
        cache_entries: report-cache bound (``serve``).
        workers: worker-process count of the sharded fleet tier; ``0``
            serves in process (``serve``).
        arrivals: open-loop arrival spec, e.g. ``"poisson:5000"`` or
            ``"bursty:2000:16"`` — needs ``workers >= 1`` (``serve``).

    Example:
        >>> AnalysisSpec(kind="mc", samples=64).samples
        64
        >>> AnalysisSpec(kind="teleport")
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: unknown analysis kind 'teleport'; pick one of ('run', 'sweep', 'mc', 'corners', 'serve')
    """

    kind: str = "run"
    samples: int = 128
    corners_axis: bool = False
    trace: Optional[str] = None
    repeat: int = 1
    window: int = SERVE_WINDOW
    cache_entries: int = 1024
    workers: int = 0
    arrivals: Optional[str] = None

    LIMITS = {
        "samples": ">= 1",
        "repeat": ">= 1",
        "window": ">= 1",
        "cache_entries": ">= 1",
        "workers": ">= 0",
    }

    def __post_init__(self) -> None:
        if self.kind not in ANALYSIS_KINDS:
            raise ConfigurationError(
                f"unknown analysis kind {self.kind!r}; "
                f"pick one of {ANALYSIS_KINDS}"
            )
        check_limits(self)
        if self.arrivals is not None:
            # Fail at spec construction, not mid-serve: the arrival
            # spec must parse and the fleet tier must be requested.
            from repro.serving.arrivals import parse_arrivals

            parse_arrivals(self.arrivals)
            if self.workers < 1:
                raise ConfigurationError(
                    "analysis.arrivals needs analysis.workers >= 1 "
                    "(open-loop load runs on the fleet tier)"
                )
        if self.workers and self.window != SERVE_WINDOW:
            raise ConfigurationError(
                "window sets the in-process micro-batch; a worker fleet "
                "(analysis.workers >= 1) batches per shard, so drop "
                "analysis.window or set analysis.workers to 0"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (always the complete canonical field set)."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisSpec":
        """Reconstruct from :meth:`to_dict` output (validating keys)."""
        return config_from_dict(cls, data, path="analysis")


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete, serializable experiment definition.

    Example:
        >>> spec = ExperimentSpec(
        ...     platform=PlatformSpec(name="tron", overrides={"batch": 8}),
        ...     workload="BERT-base",
        ...     context=ContextSpec(corner="typical", seed=3))
        >>> spec.to_dict()["platform"]["overrides"]
        {'batch': 8}
        >>> ExperimentSpec.from_json(spec.to_json()) == spec
        True
    """

    platform: PlatformSpec = PlatformSpec()
    workload: Optional[str] = None
    context: ContextSpec = ContextSpec()
    analysis: AnalysisSpec = AnalysisSpec()

    def to_dict(self) -> Dict[str, Any]:
        """The complete canonical dict form (schema tag included)."""
        return {
            "schema": SPEC_SCHEMA,
            "platform": self.platform.to_dict(),
            "workload": self.workload,
            "context": self.context.to_dict(),
            "analysis": self.analysis.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Reconstruct a spec, validating the schema tag and every key.

        Missing blocks keep their defaults, so a minimal spec is just
        ``{"schema": "repro.spec/1", "workload": "BERT-base"}``.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a spec must be a mapping, got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema != SPEC_SCHEMA:
            raise ConfigurationError(
                f"unsupported spec schema {schema!r} "
                f"(this build reads {SPEC_SCHEMA!r})"
            )
        known = {"schema", "platform", "workload", "context", "analysis"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"spec has unknown field(s) {unknown}; "
                f"known fields: {sorted(known)}"
            )
        workload = data.get("workload")
        if workload is not None and not isinstance(workload, str):
            raise ConfigurationError(
                f"spec workload must be a registered name, got {workload!r}"
            )
        return cls(
            platform=PlatformSpec.from_dict(data.get("platform", {})),
            workload=workload,
            context=ContextSpec.from_dict(data.get("context", {})),
            analysis=AnalysisSpec.from_dict(data.get("analysis", {})),
        )

    # ------------------------------------------------------------------
    # JSON
    # ------------------------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        """The spec as a JSON document (a non-finite value raises)."""
        text = json.dumps(self.to_dict(), indent=indent, allow_nan=False)
        return text + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a JSON spec document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON spec: {exc}") from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # TOML
    # ------------------------------------------------------------------

    def to_toml(self) -> str:
        """The spec as a TOML document (``None`` fields omitted — TOML
        has no null; they reconstruct to their defaults)."""
        return _emit_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        """Parse a TOML spec document (Python 3.11+)."""
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py3.10 fallback
            raise ConfigurationError(
                "reading TOML specs needs Python 3.11+ (tomllib); "
                "use the JSON form instead"
            ) from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"invalid TOML spec: {exc}") from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Files + fingerprinting
    # ------------------------------------------------------------------

    def save(self, path: Union[str, pathlib.Path]) -> None:
        """Write the spec to ``path`` (format chosen by extension)."""
        path = pathlib.Path(path)
        if path.suffix == ".toml":
            path.write_text(self.to_toml())
        elif path.suffix == ".json":
            path.write_text(self.to_json())
        else:
            raise ConfigurationError(
                f"spec files must end in .json or .toml, got {path.name!r}"
            )

    def fingerprint(self) -> str:
        """A short stable digest of the canonical spec — the scheme of
        the serving caches (:func:`repro.core.engine.memo.fingerprint`),
        with the library version folded in so artifacts
        from different builds never collide.
        """
        canonical = json.dumps(_canonical(self.to_dict()), sort_keys=True)
        return _digest((SPEC_SCHEMA, __version__, canonical))


def load_spec(path: Union[str, pathlib.Path]) -> ExperimentSpec:
    """Read an :class:`ExperimentSpec` from a ``.json`` or ``.toml`` file.

    Example:
        >>> import tempfile, pathlib
        >>> p = pathlib.Path(tempfile.mkdtemp()) / "spec.json"
        >>> ExperimentSpec(workload="MLP-mnist").save(p)
        >>> load_spec(p).workload
        'MLP-mnist'
    """
    path = pathlib.Path(path)
    text = path.read_text()
    if path.suffix == ".toml":
        return ExperimentSpec.from_toml(text)
    if path.suffix == ".json":
        return ExperimentSpec.from_json(text)
    raise ConfigurationError(
        f"spec files must end in .json or .toml, got {path.name!r}"
    )


# ----------------------------------------------------------------------
# Minimal TOML emission (specs only nest tables + scalars)
# ----------------------------------------------------------------------


def _toml_scalar(value: Any) -> str:
    """One TOML scalar (strings/bools/ints/floats/flat lists)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)  # valid TOML basic string
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(item) for item in value) + "]"
    raise ConfigurationError(f"cannot write {value!r} to TOML")


def _emit_toml(data: Mapping[str, Any], prefix: str = "") -> str:
    """A nested dict as TOML (``None`` values omitted)."""
    lines: List[str] = []
    tables: List[str] = []
    for key, value in data.items():
        if value is None:
            continue
        if isinstance(value, Mapping):
            name = f"{prefix}.{key}" if prefix else key
            body = _emit_toml(value, name)
            tables.append(f"[{name}]\n{body}" if body else f"[{name}]\n")
        else:
            lines.append(f"{key} = {_toml_scalar(value)}")
    parts = []
    if lines:
        parts.append("\n".join(lines) + "\n")
    parts.extend(tables)
    return "\n".join(parts)
