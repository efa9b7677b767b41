"""Typed dataclass ⇄ dict serialization with validating reconstruction.

Every configuration object in the library — ``TRONConfig``,
``GHOSTConfig``, ``ExecutionContext`` and everything they nest (device
models, memory systems, variation statistics) — is a dataclass whose
fields are scalars, enums, optionals, tuples, or further dataclasses.
That regularity makes one generic serializer sufficient for the whole
configuration tree:

- :func:`config_to_dict` walks a dataclass into plain JSON/TOML-ready
  dicts (enums become their values, tuples become lists).
- :func:`config_from_dict` reconstructs an instance from such a dict,
  **validating as it goes**: unknown keys raise
  :class:`~repro.errors.ConfigurationError` naming the offending path
  and the valid fields, type mismatches name the expected type, and
  every dataclass ``__post_init__`` range check still fires — so an
  out-of-range field fails with the same helpful message whether it
  came from Python code or a spec file.
- :func:`merge_overrides` deep-merges a sparse override mapping into a
  full config dict, which is how declarative specs express "the default
  platform, but with these knobs changed".
- :func:`check_limits` enforces a class's ``LIMITS`` table — one
  interval rule per numeric field, declared once next to the fields —
  from its ``__post_init__``.

Round-trips are exact: values pass through as Python objects (no string
formatting), so ``from_dict(to_dict(cfg)) == cfg`` for every config.

Example:
    >>> from repro.core.tron import TRONConfig
    >>> cfg = TRONConfig(batch=8)
    >>> TRONConfig.from_dict(cfg.to_dict()) == cfg
    True
    >>> TRONConfig.from_dict({"batch": 8}).batch
    8
    >>> TRONConfig.from_dict({"batsh": 8})
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: TRONConfig.batsh: unknown field; valid fields: ['activation', 'adc', 'array_cols', 'array_rows', 'batch', 'bits', 'clock_ghz', 'control', 'dac', 'design', 'hbm', 'memory', 'memory_backend', 'noise', 'num_ff_arrays', 'num_head_units', 'num_linear_arrays', 'pcm', 'softmax', 'weight_refresh_cycles']
"""

from __future__ import annotations

import math
import typing
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Dict, Mapping, Tuple, Union

from repro.errors import ConfigurationError

#: Per-class compiled limits: ``(name, lo, hi, rule text)`` rows.
_LIMIT_TABLES: Dict[type, Tuple[Tuple[str, float, float, str], ...]] = {}


def _compile_rule(rule: str) -> Tuple[float, float, str]:
    """``rule`` as a closed float interval ``[lo, hi]`` plus its text.

    Open ends step one ulp inward and a missing upper end is open at
    infinity, so ``lo <= value <= hi`` is the whole check: it also
    fails NaN and ±inf.
    """
    if rule[0] in "([":
        lo, hi = (float(end) for end in rule[1:-1].split(","))
        lo_open, hi_open = rule[0] == "(", rule[-1] == ")"
        text = f"in {rule}"
    else:
        op, bound = rule.split()
        if op not in (">", ">="):
            raise ValueError(f"unparseable limit rule {rule!r}")
        lo, hi, lo_open, hi_open = float(bound), math.inf, op == ">", True
        text = rule
    if lo_open:
        lo = math.nextafter(lo, math.inf)
    if hi_open:
        hi = math.nextafter(hi, -math.inf)
    return lo, hi, text


def check_limits(obj: Any) -> None:
    """Enforce ``type(obj).LIMITS`` on ``obj``'s fields.

    ``LIMITS`` maps a field name to an interval rule — ``"> 0"``,
    ``">= 1"``, ``"(0, 1)"``, ``"(0, 1]"`` or ``"[0, 1]"``. Every rule
    implies a finite value (so ``"(-inf, inf)"`` reads "finite"),
    ``None`` (an unset Optional field) is skipped, and each class's
    table is compiled once.

    Example:
        >>> from repro.photonics.converters import DAC
        >>> DAC.LIMITS["sample_rate_gsps"]
        '> 0'
        >>> DAC(sample_rate_gsps=float("nan"))
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: sample_rate_gsps must be > 0, got nan
    """
    cls = type(obj)
    table = _LIMIT_TABLES.get(cls)
    if table is None:
        table = _LIMIT_TABLES[cls] = tuple(
            (name, *_compile_rule(rule)) for name, rule in cls.LIMITS.items()
        )
    for name, lo, hi, rule in table:
        value = getattr(obj, name)
        if value is not None and not lo <= value <= hi:
            raise ConfigurationError(f"{name} must be {rule}, got {value}")


def config_to_dict(obj: Any) -> Any:
    """A dataclass tree as plain dicts/lists/scalars (JSON/TOML-ready).

    Example:
        >>> from repro.core.context import ThermalCorner
        >>> config_to_dict(ThermalCorner(name="hot", ambient_delta_k=30.0))
        {'name': 'hot', 'ambient_delta_k': 30.0, 'drift_nm_per_k': 0.08, 'hbm_derate': 1.0}
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: config_to_dict(getattr(obj, f.name))
            for f in fields(obj)
            if f.init
        }
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [config_to_dict(value) for value in obj]
    if isinstance(obj, Mapping):
        return {key: config_to_dict(value) for key, value in obj.items()}
    return obj


def config_from_dict(cls: type, data: Mapping, path: str = "") -> Any:
    """Reconstruct dataclass ``cls`` from :func:`config_to_dict` output.

    Args:
        cls: the target dataclass type.
        data: a mapping of (a subset of) its init fields; nested
            dataclasses may be given as nested mappings or as already
            constructed instances.
        path: error-message prefix naming where in a larger document
            this object sits (defaults to the class name).

    Raises:
        ConfigurationError: on unknown keys, type mismatches, or any
            range check the dataclass itself enforces.
    """
    path = path or cls.__name__
    if is_dataclass(data) and isinstance(data, cls):
        return data
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{path}: expected a mapping for {cls.__name__}, "
            f"got {type(data).__name__} ({data!r})"
        )
    valid = {f.name: f for f in fields(cls) if f.init}
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ConfigurationError(
            ", ".join(f"{path}.{name}" for name in unknown)
            + f": unknown field{'s' if len(unknown) > 1 else ''}; "
            f"valid fields: {sorted(valid)}"
        )
    hints = typing.get_type_hints(cls)
    kwargs = {
        name: _coerce(hints[name], data[name], f"{path}.{name}")
        for name in valid
        if name in data
    }
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        # Re-raise range checks fired by __post_init__ with the document
        # path, so spec-file errors name where the bad value sits.
        raise ConfigurationError(f"{path}: {exc}") from None


def merge_overrides(
    base: Mapping[str, Any], overrides: Mapping[str, Any]
) -> Dict[str, Any]:
    """``base`` (a full config dict) with ``overrides`` deep-merged in.

    Mappings merge recursively; every other value replaces wholesale.
    Unknown override keys are *not* checked here — they surface with a
    precise path when the merged dict goes through
    :func:`config_from_dict`.

    Example:
        >>> merge_overrides({"a": 1, "b": {"c": 2, "d": 3}}, {"b": {"d": 9}})
        {'a': 1, 'b': {'c': 2, 'd': 9}}
    """
    merged = dict(base)
    for key, value in overrides.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), Mapping):
            merged[key] = merge_overrides(merged[key], value)
        else:
            merged[key] = value
    return merged


def _coerce(annotation: Any, value: Any, path: str) -> Any:
    """``value`` as the type ``annotation`` names, or a helpful error."""
    if annotation is Any:
        return value
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is Union:
        if value is None:
            if type(None) in args:
                return None
            raise ConfigurationError(f"{path}: may not be null")
        last_error = None
        for candidate in (a for a in args if a is not type(None)):
            try:
                return _coerce(candidate, value, path)
            except ConfigurationError as exc:
                last_error = exc
        raise last_error  # the single-candidate Optional[X] common case
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(
                f"{path}: expected a list, got {value!r}"
            )
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(
                _coerce(args[0], item, f"{path}[{i}]")
                for i, item in enumerate(value)
            )
        if args:
            if len(value) != len(args):
                raise ConfigurationError(
                    f"{path}: expected {len(args)} elements, "
                    f"got {len(value)}"
                )
            return tuple(
                _coerce(a, item, f"{path}[{i}]")
                for i, (a, item) in enumerate(zip(args, value))
            )
        return tuple(value)
    if isinstance(annotation, type):
        if is_dataclass(annotation):
            if isinstance(value, annotation):
                return value
            return config_from_dict(annotation, value, path)
        if issubclass(annotation, Enum):
            if isinstance(value, annotation):
                return value
            try:
                return annotation(value)
            except ValueError:
                raise ConfigurationError(
                    f"{path}: {value!r} is not one of "
                    f"{[member.value for member in annotation]}"
                ) from None
        if annotation is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"{path}: expected a number, got {value!r}"
                )
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{path}: expected a finite number, got {value!r}"
                )
            return float(value)
        if annotation is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{path}: expected an integer, got {value!r}"
                )
            return value
        if annotation is bool:
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"{path}: expected true/false, got {value!r}"
                )
            return value
        if annotation is str:
            if not isinstance(value, str):
                raise ConfigurationError(
                    f"{path}: expected a string, got {value!r}"
                )
            return value
    return value
