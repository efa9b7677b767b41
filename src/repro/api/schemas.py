"""Machine-checkable JSON Schemas of every versioned interchange format.

One schema per tag:

- the ``--json`` envelopes — ``repro.run/1``, ``repro.sweep/1``,
  ``repro.mc/1``, ``repro.corners/1``, ``repro.serve/1``;
- the declarative spec format ``repro.spec/1``;
- the serving trace format ``repro.trace/1``.

:func:`schema_for` looks a schema up by tag, and
:func:`validate_payload` dispatches on a payload's own ``schema`` field
and validates it (requires the optional ``jsonschema`` package — the CI
schema job installs it; the library itself never imports it at module
scope).

Example:
    >>> schema_for("repro.run/1")["properties"]["schema"]["const"]
    'repro.run/1'
    >>> sorted(SCHEMAS)[:3]
    ['repro.corners/1', 'repro.mc/1', 'repro.run/1']
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import ConfigurationError

_NUMBER = {"type": "number"}
_NON_NEGATIVE_INT = {"type": "integer", "minimum": 0}
_POSITIVE_INT = {"type": "integer", "minimum": 1}
_STRING = {"type": "string"}
_BOOL = {"type": "boolean"}

#: A float-valued breakdown dict (category -> value).
_BREAKDOWN = {"type": "object", "additionalProperties": _NUMBER}

#: The distribution stats blocks of the mc payload.
_STATS_BLOCK = {
    "type": "object",
    "properties": {
        "mean": _NUMBER,
        "p5": _NUMBER,
        "p50": _NUMBER,
        "p95": _NUMBER,
    },
    "required": ["mean", "p5", "p50", "p95"],
}

#: Array-resident evaluation stats (``repro.core.engine.SoAStats``):
#: how much work the evaluation collapsed and any scalar fallback.
_SOA_STATS = {
    "type": "object",
    "properties": {
        "points": _NON_NEGATIVE_INT,
        "groups": _NON_NEGATIVE_INT,
        "materialized_reports": _NON_NEGATIVE_INT,
        "fallback_points": _NON_NEGATIVE_INT,
    },
    "required": [
        "points",
        "groups",
        "materialized_reports",
        "fallback_points",
    ],
}

#: A serialized RunReport (the ``run`` payload; embedded by ``mc``).
_RUN_REPORT = {
    "type": "object",
    "properties": {
        "platform": _STRING,
        "workload": _STRING,
        "bits_per_value": _POSITIVE_INT,
        "latency_ns": _NUMBER,
        "energy_pj": _NUMBER,
        "gops": _NUMBER,
        "epb_pj": _NUMBER,
        "total_ops": _NON_NEGATIVE_INT,
        "latency_breakdown_ns": _BREAKDOWN,
        "energy_breakdown_pj": _BREAKDOWN,
    },
    "required": [
        "platform",
        "workload",
        "bits_per_value",
        "latency_ns",
        "energy_pj",
        "gops",
        "epb_pj",
        "total_ops",
        "latency_breakdown_ns",
        "energy_breakdown_pj",
    ],
}


#: The optional memory block of a run envelope: present only when the
#: run used a non-default memory backend (the analytic default keeps
#: the envelope byte-identical to pre-backend builds).
_MEMORY_BLOCK = {
    "type": "object",
    "properties": {
        "backend": _STRING,
        "trace": {
            "type": "object",
            "properties": {
                "commands": _NON_NEGATIVE_INT,
                "ops": {
                    "type": "object",
                    "additionalProperties": _NON_NEGATIVE_INT,
                },
                "data_bytes": _NON_NEGATIVE_INT,
                "energy_pj": _NUMBER,
            },
            "required": ["commands", "ops", "data_bytes", "energy_pj"],
        },
        "trace_path": _STRING,
    },
    "required": ["backend"],
}


#: The optional decode block of a run envelope: the per-token series
#: of a decode workload (absent everywhere else, so non-decode
#: envelopes stay byte-identical).
_DECODE_BLOCK = {
    "type": "object",
    "properties": {
        "prompt_tokens": _POSITIVE_INT,
        "generated_tokens": _POSITIVE_INT,
        "tokens_per_second": _NUMBER,
        "first_token_ns": _NUMBER,
        "last_token_ns": _NUMBER,
        "context": {"type": "array", "items": _POSITIVE_INT},
        "per_token_ns": {"type": "array", "items": _NUMBER},
        "per_token_pj": {"type": "array", "items": _NUMBER},
    },
    "required": [
        "prompt_tokens",
        "generated_tokens",
        "tokens_per_second",
        "first_token_ns",
        "last_token_ns",
        "context",
        "per_token_ns",
        "per_token_pj",
    ],
}


#: The serving-engine accounting block (``ServingStats.to_dict``) —
#: fleet runs emit the same shape with fleet-wide counters and
#: open-loop (arrival-to-completion) latency percentiles.
_SERVE_STATS = {
    "type": "object",
    "properties": {
        "requests": _NON_NEGATIVE_INT,
        "errors": _NON_NEGATIVE_INT,
        "cache_hits": _NON_NEGATIVE_INT,
        "deduped": _NON_NEGATIVE_INT,
        "flushes": _NON_NEGATIVE_INT,
        "busy_s": _NUMBER,
        "hit_rate": _NUMBER,
        "throughput_rps": _NUMBER,
        "mean_latency_s": _NUMBER,
        "p50_latency_s": _NUMBER,
        "p95_latency_s": _NUMBER,
        "p99_latency_s": _NUMBER,
    },
    "required": [
        "requests",
        "errors",
        "cache_hits",
        "deduped",
        "flushes",
        "busy_s",
        "hit_rate",
        "throughput_rps",
        "mean_latency_s",
        "p50_latency_s",
        "p95_latency_s",
        "p99_latency_s",
    ],
}

#: The open-loop latency quantile block
#: (``repro.serving.arrivals.latency_quantiles``).
_LATENCY_QUANTILES = {
    "type": "object",
    "properties": {
        "mean_latency_s": _NUMBER,
        "p50_latency_s": _NUMBER,
        "p95_latency_s": _NUMBER,
        "p99_latency_s": _NUMBER,
    },
    "required": [
        "mean_latency_s",
        "p50_latency_s",
        "p95_latency_s",
        "p99_latency_s",
    ],
}

#: The fleet-tier block of a ``--workers N`` serve run: worker count,
#: shard load spread, admission/shed accounting, per-repeat open-loop
#: results.
_FLEET_BLOCK = {
    "type": "object",
    "properties": {
        "workers": _POSITIVE_INT,
        "completed": _NON_NEGATIVE_INT,
        "wall_s": _NUMBER,
        "throughput_rps": _NUMBER,
        "open_loop_latency": _LATENCY_QUANTILES,
        "admission": {
            "type": "object",
            "properties": {
                "submitted": _NON_NEGATIVE_INT,
                "admitted": _NON_NEGATIVE_INT,
                "shed_queue": _NON_NEGATIVE_INT,
                "shed_quota": _NON_NEGATIVE_INT,
                "shed_rate": _NUMBER,
            },
            "required": [
                "submitted",
                "admitted",
                "shed_queue",
                "shed_quota",
                "shed_rate",
            ],
        },
        "shard_requests": {
            "type": "array",
            "items": _NON_NEGATIVE_INT,
        },
        "worker_stats": {"type": "array", "items": {"type": "object"}},
        "arrivals": {"type": ["string", "null"]},
        "open_loop": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "arrivals": _STRING,
                    "offered_rps": _NUMBER,
                    "submitted": _NON_NEGATIVE_INT,
                    "completed": _NON_NEGATIVE_INT,
                    "shed": _NON_NEGATIVE_INT,
                    "errors": _NON_NEGATIVE_INT,
                    "duration_s": _NUMBER,
                    "throughput_rps": _NUMBER,
                    **_LATENCY_QUANTILES["properties"],
                },
                "required": [
                    "arrivals",
                    "offered_rps",
                    "submitted",
                    "completed",
                    "shed",
                    "errors",
                    "duration_s",
                    "throughput_rps",
                    *_LATENCY_QUANTILES["required"],
                ],
            },
        },
    },
    "required": [
        "workers",
        "completed",
        "throughput_rps",
        "admission",
        "shard_requests",
    ],
}


def _envelope(
    command: str,
    context_properties: Dict[str, Any],
    payload_properties: Dict[str, Any],
    required: list,
) -> Dict[str, Any]:
    """The shared envelope shape of one ``--json`` command schema."""
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "type": "object",
        "properties": {
            "schema": {"const": f"repro.{command}/1"},
            "repro_version": _STRING,
            "context": {
                "type": "object",
                "properties": context_properties,
                "required": sorted(context_properties),
            },
            **payload_properties,
        },
        "required": ["schema", "repro_version", "context", *required],
    }


#: The declarative spec format (also embedded inside trace records).
_SPEC_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "schema": {"const": "repro.spec/1"},
        "platform": {
            "type": "object",
            "properties": {
                "name": _STRING,
                "overrides": {"type": "object"},
            },
            "additionalProperties": False,
        },
        "workload": {"type": ["string", "null"]},
        "context": {
            "type": "object",
            "properties": {
                "corner": _STRING,
                "seed": _NON_NEGATIVE_INT,
                "tuner_range_nm": {
                    "type": ["number", "null"],
                    "exclusiveMinimum": 0,
                },
            },
            "additionalProperties": False,
        },
        "analysis": {
            "type": "object",
            "properties": {
                "kind": {
                    "enum": ["run", "sweep", "mc", "corners", "serve"]
                },
                "samples": _POSITIVE_INT,
                "corners_axis": _BOOL,
                "trace": {"type": ["string", "null"]},
                "repeat": _POSITIVE_INT,
                "window": _POSITIVE_INT,
                "cache_entries": _POSITIVE_INT,
                "workers": _NON_NEGATIVE_INT,
                "arrivals": {"type": ["string", "null"]},
            },
            "additionalProperties": False,
        },
    },
    "required": ["schema"],
    "additionalProperties": False,
}

#: One trace record: the flat form, an embedded spec document, or the
#: tenant-wrapped form the multi-tenant traffic model emits.
_TRACE_RECORD = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "workload": _STRING,
                "platform": _STRING,
                "corner": _STRING,
                "seed": _NON_NEGATIVE_INT,
                "batch": _POSITIVE_INT,
            },
            "required": ["workload"],
            "additionalProperties": False,
        },
        _SPEC_SCHEMA,
        {
            "type": "object",
            "properties": {
                "tenant": _STRING,
                "spec": _SPEC_SCHEMA,
            },
            "required": ["tenant", "spec"],
            "additionalProperties": False,
        },
    ]
}

SCHEMAS: Dict[str, Dict[str, Any]] = {
    "repro.run/1": _envelope(
        "run",
        {"corner": _STRING, "seed": _NON_NEGATIVE_INT},
        {
            **_RUN_REPORT["properties"],
            "memory": _MEMORY_BLOCK,
            "decode": _DECODE_BLOCK,
        },
        list(_RUN_REPORT["required"]),
    ),
    "repro.mc/1": _envelope(
        "mc",
        {"corner": _STRING, "seed": _NON_NEGATIVE_INT},
        {
            "platform": _STRING,
            "workload": _STRING,
            "samples": _POSITIVE_INT,
            "seed": _NON_NEGATIVE_INT,
            "yield": _NUMBER,
            "operational_fraction": _NUMBER,
            "nominal": _RUN_REPORT,
            "latency_ns": _STATS_BLOCK,
            "energy_pj": _STATS_BLOCK,
            "gops": _STATS_BLOCK,
            "epb_pj": _STATS_BLOCK,
            "tuning_power_mw": _STATS_BLOCK,
            "evaluation": _SOA_STATS,
        },
        [
            "platform",
            "workload",
            "samples",
            "yield",
            "operational_fraction",
            "nominal",
            "latency_ns",
            "energy_pj",
            "evaluation",
        ],
    ),
    "repro.corners/1": _envelope(
        "corners",
        {"seed": _NON_NEGATIVE_INT},
        {
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "corner": _STRING,
                        "platform": _STRING,
                        "workload": _STRING,
                        "latency_ns": _NUMBER,
                        "energy_pj": _NUMBER,
                        "epb_pj": _NUMBER,
                        "correction_power_mw": _NUMBER,
                        "ring_yield": _NUMBER,
                    },
                    "required": [
                        "corner",
                        "platform",
                        "workload",
                        "latency_ns",
                        "energy_pj",
                        "epb_pj",
                        "correction_power_mw",
                        "ring_yield",
                    ],
                },
            }
        },
        ["rows"],
    ),
    "repro.sweep/1": _envelope(
        "sweep",
        {"corners_axis": _BOOL, "seed": _NON_NEGATIVE_INT},
        {
            "spaces": {
                "type": "object",
                "additionalProperties": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "label": _STRING,
                            "knobs": {
                                "type": "object",
                                "additionalProperties": _STRING,
                            },
                            "latency_ns": _NUMBER,
                            "energy_pj": _NUMBER,
                            "gops": _NUMBER,
                            "pareto": _BOOL,
                        },
                        "required": [
                            "label",
                            "knobs",
                            "latency_ns",
                            "energy_pj",
                            "gops",
                            "pareto",
                        ],
                    },
                },
            },
            "physics_cache": {"type": "object"},
            "evaluation": {
                "type": "object",
                "additionalProperties": _SOA_STATS,
            },
        },
        ["spaces", "physics_cache", "evaluation"],
    ),
    "repro.serve/1": _envelope(
        "serve",
        {"trace": _STRING, "repeat": _POSITIVE_INT, "window": _POSITIVE_INT},
        {
            "stats": _SERVE_STATS,
            "cache": {"type": "object"},
            "scheduler": {"type": "object"},
            "physics_cache": {"type": "object"},
            "fleet": _FLEET_BLOCK,
        },
        ["stats", "cache", "scheduler", "physics_cache"],
    ),
    "repro.spec/1": _SPEC_SCHEMA,
    "repro.trace/1": {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "type": "object",
        "properties": {
            "schema": {"const": "repro.trace/1"},
            "requests": {"type": "array", "items": _TRACE_RECORD},
            "arrivals": _STRING,
        },
        "required": ["schema", "requests"],
    },
}


def schema_for(tag: str) -> Dict[str, Any]:
    """The JSON Schema registered for an interchange tag.

    Example:
        >>> schema_for("repro.spec/1")["properties"]["schema"]["const"]
        'repro.spec/1'
    """
    if tag not in SCHEMAS:
        raise ConfigurationError(
            f"no schema registered for {tag!r}; known tags: "
            f"{sorted(SCHEMAS)}"
        )
    return SCHEMAS[tag]


def validate_payload(payload: Dict[str, Any]) -> str:
    """Validate a payload against the schema its own tag names.

    Returns the tag on success; raises ``jsonschema.ValidationError``
    on mismatch (and :class:`~repro.errors.ConfigurationError` if the
    payload carries no known tag or ``jsonschema`` is unavailable).
    """
    try:
        import jsonschema
    except ImportError:  # pragma: no cover - env without jsonschema
        raise ConfigurationError(
            "payload validation needs the optional 'jsonschema' package"
        ) from None
    tag = payload.get("schema") if isinstance(payload, dict) else None
    if not isinstance(tag, str):
        raise ConfigurationError(
            f"payload carries no schema tag: {str(payload)[:120]}"
        )
    jsonschema.validate(payload, schema_for(tag))
    return tag
