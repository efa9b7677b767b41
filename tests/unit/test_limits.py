"""Tests for the declarative field limits (``LIMITS`` + ``check_limits``).

Every config and report class declares its numeric ranges once, as a
``LIMITS`` table of interval rules. These tests enumerate the tables:
each key is a real init field, a value just outside the rule fails with
a message that starts with the field name, NaN and ±inf fail for every
float field, and overrides of nested fields name their document path.
"""

import importlib
import math
import pkgutil
import re
import typing
from dataclasses import fields, is_dataclass

import pytest

import repro
from repro.api import AnalysisSpec, ContextSpec, get_platform, schema_for
from repro.core.base import get_workload
from repro.core.context import (
    ExecutionContext,
    PinnedArrayPhysics,
    ThermalCorner,
)
from repro.core.engine.hbm.geometry import HBMGeometry
from repro.core.ghost import GHOST, GHOSTConfig
from repro.core.reports import EnergyReport, LatencyReport
from repro.core.tron import TRON, TRONConfig
from repro.electronics.digital import ControlUnit, SoftmaxLUT
from repro.electronics.memory import HBMChannel, SRAMBuffer
from repro.errors import ConfigurationError
from repro.photonics.converters import ADC, DAC
from repro.photonics.devices import SOA
from repro.photonics.microring import MicroringDesign
from repro.photonics.noise import AnalogNoiseModel
from repro.photonics.pcm import PCMCell
from repro.photonics.variation import ProcessVariationModel

LIMITED_CLASSES = (
    TRONConfig, GHOSTConfig, HBMGeometry,
    DAC, ADC, MicroringDesign, SOA, AnalogNoiseModel, PCMCell,
    SoftmaxLUT, ControlUnit, HBMChannel, SRAMBuffer,
    ExecutionContext, ProcessVariationModel, ThermalCorner,
    PinnedArrayPhysics, ContextSpec, AnalysisSpec,
    EnergyReport, LatencyReport,
)

#: Valid values of required fields, for classes that have them.
REQUIRED = {
    SRAMBuffer: {"capacity_bytes": 4096},
    PinnedArrayPhysics: {
        "usable_rows": 64, "usable_cols": 64, "correction_power_mw": 1.0,
    },
}

NON_FINITE = (math.nan, math.inf, -math.inf)

_RULE = re.compile(r"(>=?)\s*(\S+)|([\[(])\s*(\S+)\s*,\s*(\S+)\s*([\])])")


def _field_type(cls, name):
    """The field's annotation with ``Optional[...]`` unwrapped."""
    hint = typing.get_type_hints(cls)[name]
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if typing.get_origin(hint) is typing.Union else hint


def _just_outside(rule, kind):
    """A value of type ``kind`` just below the rule's lower end."""
    match = _RULE.fullmatch(rule.strip())
    assert match, f"unparseable rule {rule!r}"
    op, bound, left, lower = match.group(1, 2, 3, 4)
    lo = kind(float(bound if op else lower))
    if op == ">" or left == "(":
        return lo
    return lo - 1 if kind is int else math.nextafter(lo, -math.inf)


def _rows(classes):
    return [
        pytest.param(cls, name, rule, id=f"{cls.__name__}.{name}")
        for cls in classes
        for name, rule in vars(cls).get("LIMITS", {}).items()
    ]


def _float_rows(classes):
    return [
        row for row in _rows(classes)
        if _field_type(row.values[0], row.values[1]) is float
    ]


def _build(cls, name, value):
    return cls(**{**REQUIRED.get(cls, {}), name: value})


def test_each_class_declares_limits():
    missing = [c.__name__ for c in LIMITED_CLASSES if not vars(c).get("LIMITS")]
    assert missing == []


def test_every_limits_table_is_enumerated():
    """A class that gains a table must be added to LIMITED_CLASSES."""
    found = set()
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__"):
            continue
        for value in vars(importlib.import_module(module.name)).values():
            if isinstance(value, type) and "LIMITS" in vars(value):
                found.add(value)
    assert found <= set(LIMITED_CLASSES), found - set(LIMITED_CLASSES)


@pytest.mark.parametrize("cls, name, rule", _rows(LIMITED_CLASSES))
def test_keys_are_init_fields(cls, name, rule):
    assert name in {f.name for f in fields(cls) if f.init}


@pytest.mark.parametrize("cls, name, rule", _rows(LIMITED_CLASSES))
def test_just_out_of_range_names_the_field(cls, name, rule):
    value = _just_outside(rule, _field_type(cls, name))
    with pytest.raises(ConfigurationError, match=rf"^{name} must be "):
        _build(cls, name, value)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("cls, name, rule", _float_rows(LIMITED_CLASSES))
def test_non_finite_float_names_the_field(cls, name, rule, value):
    with pytest.raises(ConfigurationError, match=rf"^{name} must be "):
        _build(cls, name, value)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "cls, name",
    [
        (TRONConfig, "clock_ghz"),
        (GHOSTConfig, "clock_ghz"),
        (GHOSTConfig, "random_access_penalty"),
        (HBMChannel, "bandwidth_gbps"),
        (HBMChannel, "energy_per_bit_pj"),
        (DAC, "energy_per_conversion_pj"),
        (DAC, "sample_rate_gsps"),
        (ADC, "energy_per_conversion_pj"),
        (ADC, "sample_rate_gsps"),
        (HBMGeometry, "trcd_ns"),
        (MicroringDesign, "radius_um"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_non_finite_holes_are_closed(cls, name, value):
    """Fields whose old hand-written ``<= 0``/``< 1`` checks let NaN
    and +inf through construction."""
    with pytest.raises(ConfigurationError, match=rf"^{name} must be "):
        cls(**{name: value})


def test_nan_penalty_never_reaches_a_report():
    """A NaN penalty used to cost GCN-cora to a finite report."""
    with pytest.raises(
        ConfigurationError, match="^random_access_penalty must be >= 1, got nan"
    ):
        GHOST(GHOSTConfig(random_access_penalty=math.nan)).run(
            get_workload("GCN-cora")
        )


def test_nan_ambient_never_reaches_the_physics():
    """A NaN ambient used to surface from a varied run as a YieldError
    that did not name the field."""
    with pytest.raises(
        ConfigurationError,
        match=r"^ambient_delta_k must be in \(-inf, inf\), got nan",
    ):
        TRON().run(
            get_workload("BERT-base"),
            ctx=ExecutionContext(
                variation=ProcessVariationModel(),
                thermal=ThermalCorner(name="nan", ambient_delta_k=math.nan),
            ),
        )


def test_message_shape():
    with pytest.raises(ConfigurationError) as exc:
        MicroringDesign(self_coupling=1.0)
    assert str(exc.value) == "self_coupling must be in (0, 1), got 1.0"
    with pytest.raises(ConfigurationError) as exc:
        TRONConfig(clock_ghz=math.inf)
    assert str(exc.value) == "clock_ghz must be > 0, got inf"


def test_optional_none_is_skipped():
    assert ExecutionContext(tuner_range_nm=None).tuner_range_nm is None
    assert AnalogNoiseModel(adc_bits=None).adc_bits is None


# ----------------------------------------------------------------------
# Nested overrides name their document path
# ----------------------------------------------------------------------


def _nested_rows(platform, cls, path=()):
    for f in fields(cls):
        if not f.init:
            continue
        kind = _field_type(cls, f.name)
        if f.name in vars(cls).get("LIMITS", {}):
            yield pytest.param(
                platform, path, f.name, cls.LIMITS[f.name], kind,
                id=".".join((platform, *path, f.name)),
            )
        elif is_dataclass(kind):
            yield from _nested_rows(platform, kind, (*path, f.name))


OVERRIDE_ROWS = [
    *_nested_rows("tron", TRONConfig),
    *_nested_rows("ghost", GHOSTConfig),
]


def _override(path, name, value):
    doc = {name: value}
    for key in reversed(path):
        doc = {key: doc}
    return doc


def test_override_rows_reach_nested_tables():
    paths = {row.values[:2] for row in OVERRIDE_ROWS}
    assert ("tron", ("memory", "hbm")) in paths
    assert ("ghost", ("activation", "soa")) in paths
    assert ("ghost", ("hbm",)) in paths


@pytest.mark.parametrize("platform, path, name, rule, kind", OVERRIDE_ROWS)
def test_override_error_carries_path(platform, path, name, rule, kind):
    prefix = ".".join((f"{platform}.overrides", *path))
    value = _just_outside(rule, kind)
    with pytest.raises(ConfigurationError) as exc:
        get_platform(platform, overrides=_override(path, name, value))
    assert str(exc.value).startswith(f"{prefix}: {name} must be ")
    if kind is float:
        with pytest.raises(ConfigurationError) as exc:
            get_platform(platform, overrides=_override(path, name, math.nan))
        assert str(exc.value).startswith(
            f"{prefix}.{name}: expected a finite number"
        )


# ----------------------------------------------------------------------
# The spec schema's hand-written bounds match the tables
# ----------------------------------------------------------------------

_SCHEMA_BOUND = {">=": "minimum", ">": "exclusiveMinimum"}


@pytest.mark.parametrize(
    "block, cls", [("context", ContextSpec), ("analysis", AnalysisSpec)]
)
def test_spec_schema_bounds_match_limits(block, cls):
    properties = schema_for("repro.spec/1")["properties"][block]["properties"]
    schema_bounds = {
        name: {key: prop[key] for key in prop if "imum" in key}
        for name, prop in properties.items()
        if any("imum" in key for key in prop)
    }
    table_bounds = {}
    for name, rule in cls.LIMITS.items():
        op, bound = rule.split()
        table_bounds[name] = {_SCHEMA_BOUND[op]: int(bound)}
    assert schema_bounds == table_bounds


def test_context_spec_reuses_execution_context_rules():
    for name, rule in ContextSpec.LIMITS.items():
        assert rule is ExecutionContext.LIMITS[name]
