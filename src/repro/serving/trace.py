"""Request traces: the JSON interchange format and a traffic generator.

A **trace** is the serialized form of a request stream — what a
production front-end would log and what ``repro serve --trace`` replays.
The format (documented in ``docs/serving.md``) is a JSON object::

    {"schema": "repro.trace/1",
     "requests": [
        {"workload": "BERT-base", "platform": "auto",
         "corner": "typical", "seed": 3, "batch": 8},
        ...]}

Every field but ``workload`` is optional (defaults: ``platform`` auto,
``corner`` nominal, ``seed`` 0, ``batch`` 1).  The corner + seed pair
resolves to an :class:`~repro.core.context.ExecutionContext` through
:func:`repro.core.context.resolve_corner` — the same rule the CLI's
``--corner``/``--seed`` flags use.

Besides the flat form, a record may be an embedded run-kind
``repro.spec/1`` document (recognized by its ``schema`` field), or the
*tenant-wrapped* form the multi-tenant traffic model
(:mod:`repro.streaming.traffic`) emits::

    {"tenant": "tenant-0", "spec": {"schema": "repro.spec/1", ...}}

The optional top-level ``"arrivals"`` field records the arrival spec
the trace was shaped for (e.g. ``"diurnal:poisson:500"``) so replay
tooling can reproduce the intended open-loop schedule.

:func:`generate_trace` synthesizes realistic mixed LLM+GNN traffic: a
bounded catalog of distinct request types (workload x corner x die x
batch) sampled under a Zipf popularity law, which is what gives real
serving workloads their high repeat skew — and what makes the report
cache and in-batch deduplication worth their keep.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.context import resolve_corner
from repro.errors import ConfigurationError
from repro.serving.request import ServeRequest

#: Schema tag of the trace interchange format.
TRACE_SCHEMA = "repro.trace/1"

#: Transformer / MLP / suite workloads of the stock generator mix.
LLM_WORKLOADS = (
    "BERT-base",
    "BERT-large",
    "DistilBERT",
    "GPT-2",
    "ViT-base",
    "MLP-mnist",
    "MLP-recsys",
    "LLM-serving-mix",
)

#: GNN workloads of the stock generator mix.
GNN_WORKLOADS = (
    "GCN-cora",
    "GCN-citeseer",
    "GCN-pubmed",
    "GRAPHSAGE-cora",
    "GIN-citeseer",
    "GAT-pubmed",
)

#: Corner popularity of generated traffic: most requests run nominal
#: fleet-wide, a sizable share on typical dies, tails on the extremes.
CORNER_WEIGHTS = {
    "nominal": 0.50,
    "typical": 0.30,
    "slow-hot": 0.15,
    "fast-cold": 0.05,
}

#: TRON batch sizes of generated traffic and their popularity.
BATCH_WEIGHTS = {1: 0.5, 8: 0.3, 32: 0.2}


def record_to_request(record: Dict) -> ServeRequest:
    """A trace record (plain dict) as a :class:`ServeRequest`.

    A record is the flat trace form below, an embedded run-kind
    ``repro.spec/1`` document (recognized by its ``schema`` field), or
    the tenant-wrapped form ``{"tenant": ..., "spec": <spec doc>}``
    (recognized by its ``spec`` field) — declarative specs serve
    directly either way; the wrapper only adds the tenant identity
    (read it with :func:`record_tenant`).

    Example:
        >>> record_to_request({"workload": "BERT-base"}).batch
        1
        >>> record_to_request({"workload": "GCN-cora", "corner": "typical",
        ...                    "seed": 3}).ctx.seed
        3
        >>> record_to_request({"schema": "repro.spec/1",
        ...                    "workload": "BERT-base"}).workload
        'BERT-base'
        >>> record_to_request({"tenant": "acme",
        ...     "spec": {"schema": "repro.spec/1",
        ...              "workload": "GPT-2"}}).workload
        'GPT-2'
    """
    if "spec" in record:
        extra = set(record) - {"tenant", "spec"}
        if extra:
            raise ConfigurationError(
                f"tenant-wrapped trace record has unknown field(s) "
                f"{sorted(extra)}; known fields: ['spec', 'tenant']"
            )
        spec = record["spec"]
        if not isinstance(spec, dict) or "schema" not in spec:
            raise ConfigurationError(
                "a trace record's 'spec' must be an embedded repro.spec/1 "
                f"document, got {spec!r}"
            )
        return ServeRequest.from_spec(spec)
    if "schema" in record:
        return ServeRequest.from_spec(record)
    if "workload" not in record:
        raise ConfigurationError(f"trace record lacks a workload: {record}")
    known = {"workload", "platform", "corner", "seed", "batch"}
    unknown = set(record) - known
    if unknown:
        raise ConfigurationError(
            f"trace record has unknown field(s) {sorted(unknown)}; "
            f"known fields: {sorted(known)}"
        )
    corner = record.get("corner", "nominal")
    seed = int(record.get("seed", 0))
    return ServeRequest(
        workload=record["workload"],
        platform=record.get("platform", "auto"),
        ctx=resolve_corner(corner, seed),
        batch=int(record.get("batch", 1)),
    )


def record_tenant(record: Dict) -> Optional[str]:
    """The tenant a trace record belongs to, if it names one.

    Example:
        >>> record_tenant({"workload": "BERT-base"}) is None
        True
        >>> record_tenant({"tenant": "acme", "spec": {"schema": "x"}})
        'acme'
    """
    tenant = record.get("tenant")
    return str(tenant) if tenant is not None else None


def load_trace_payload(path: Union[str, pathlib.Path]) -> Dict:
    """The raw validated payload of a trace file (schema-checked)."""
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, dict) or "requests" not in payload:
        raise ConfigurationError(
            f"{path}: not a trace file (expected an object with a "
            "'requests' list)"
        )
    schema = payload.get("schema")
    if schema != TRACE_SCHEMA:
        raise ConfigurationError(
            f"{path}: unsupported trace schema {schema!r} "
            f"(this build reads {TRACE_SCHEMA!r})"
        )
    return payload


def load_trace(path: Union[str, pathlib.Path]) -> List[ServeRequest]:
    """Parse a trace file into requests (validating the schema tag)."""
    payload = load_trace_payload(path)
    return [record_to_request(record) for record in payload["requests"]]


def save_trace(
    records: Sequence[Dict],
    path: Union[str, pathlib.Path],
    arrivals: Optional[str] = None,
) -> None:
    """Write trace records to ``path`` in the interchange format.

    ``arrivals``, when given, is stored as the trace's arrival-spec
    hint (the open-loop schedule the trace was generated for).
    """
    payload: Dict = {"schema": TRACE_SCHEMA, "requests": list(records)}
    if arrivals is not None:
        payload["arrivals"] = str(arrivals)
    text = json.dumps(payload, indent=2, allow_nan=False)
    pathlib.Path(path).write_text(text + "\n")


def generate_trace(
    num_requests: int = 1000,
    seed: int = 0,
    catalog_size: int = 48,
    llm_fraction: float = 0.7,
    skew: float = 1.1,
    die_seeds: int = 4,
) -> List[Dict]:
    """Synthesize a mixed LLM+GNN request trace with repeat skew.

    The generator first draws a catalog of ``catalog_size`` distinct
    request types — workload (LLM-side with probability
    ``llm_fraction``, GNN-side otherwise), execution corner
    (:data:`CORNER_WEIGHTS`), die seed (``die_seeds`` dies per fleet)
    and TRON batch (:data:`BATCH_WEIGHTS`) — then samples
    ``num_requests`` requests from it under a Zipf law with exponent
    ``skew`` (type popularity ~ 1/rank^skew).  The result mimics
    production traffic: a few very hot request types, a long cold tail.

    Returns trace *records* (plain dicts) ready for :func:`save_trace`;
    convert with :func:`record_to_request` to serve them directly.

    Example:
        >>> records = generate_trace(num_requests=10, seed=1)
        >>> len(records)
        10
        >>> sorted(records[0]) == ['batch', 'corner', 'platform',
        ...                        'seed', 'workload']
        True
    """
    if num_requests < 1:
        raise ConfigurationError(
            f"need >= 1 request, got {num_requests}"
        )
    if catalog_size < 1:
        raise ConfigurationError(f"need >= 1 type, got {catalog_size}")
    if not 0.0 <= llm_fraction <= 1.0:
        raise ConfigurationError(
            f"llm fraction must be in [0, 1], got {llm_fraction}"
        )
    if skew < 0.0:
        raise ConfigurationError(f"skew must be >= 0, got {skew}")
    if die_seeds < 1:
        raise ConfigurationError(f"need >= 1 die seed, got {die_seeds}")
    rng = np.random.default_rng(seed)
    corner_names = list(CORNER_WEIGHTS)
    corner_p = np.array([CORNER_WEIGHTS[c] for c in corner_names])
    corner_p = corner_p / corner_p.sum()
    batch_sizes = list(BATCH_WEIGHTS)
    batch_p = np.array([BATCH_WEIGHTS[b] for b in batch_sizes])
    batch_p = batch_p / batch_p.sum()

    catalog: List[Dict] = []
    seen = set()
    attempts = 0
    while len(catalog) < catalog_size:
        attempts += 1
        if attempts > 100 * catalog_size:
            raise ConfigurationError(
                f"cannot draw {catalog_size} distinct request types from "
                "the workload/corner/die/batch space; lower catalog_size"
            )
        if rng.random() < llm_fraction:
            workload = str(rng.choice(LLM_WORKLOADS))
            batch = int(rng.choice(batch_sizes, p=batch_p))
        else:
            workload = str(rng.choice(GNN_WORKLOADS))
            batch = 1  # GHOST costs full-graph inferences
        corner = str(rng.choice(corner_names, p=corner_p))
        # A die seed only means something where variation exists.
        die = int(rng.integers(die_seeds)) if corner != "nominal" else 0
        record = {
            "workload": workload,
            "platform": "auto",
            "corner": corner,
            "seed": die,
            "batch": batch,
        }
        fingerprint = tuple(sorted(record.items()))
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        catalog.append(record)

    ranks = np.arange(1, catalog_size + 1, dtype=float)
    popularity = ranks**-skew
    popularity = popularity / popularity.sum()
    choices = rng.choice(catalog_size, size=num_requests, p=popularity)
    return [dict(catalog[int(i)]) for i in choices]
