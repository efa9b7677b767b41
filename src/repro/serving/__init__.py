"""The batched serving subsystem (request -> report at fleet scale).

The ROADMAP's north star is serving heavy cost-query traffic; this
package is the layer that makes one-at-a-time ``Accelerator.run`` calls
scale:

- :mod:`repro.serving.request` — the :class:`ServeRequest` /
  :class:`ServeResponse` contract.
- :mod:`repro.serving.cache` — the bounded, stats-instrumented
  :class:`ReportCache` keyed on the frozen
  ``(workload, config-fingerprint, context)`` triple.
- :mod:`repro.serving.scheduler` — the :class:`BatchingScheduler`:
  coalesces request streams into per-(platform, context-family) groups,
  deduplicates identical requests, and evaluates each group's dies
  through one batched corner-physics pass.
- :mod:`repro.serving.engine` — the in-process :class:`ServingEngine`
  front-end: one synchronous micro-batch per ``serve`` call, with
  per-request latency and fleet-level hit-rate accounting.
- :mod:`repro.serving.trace` — the JSON trace format and the mixed
  LLM+GNN traffic generator behind ``repro serve`` / ``repro
  gen-trace``.
- :mod:`repro.serving.arrivals` — open-loop arrival processes
  (uniform / Poisson / bursty) for honest offered-load generation.
- :mod:`repro.serving.admission` — bounded queues and per-tenant
  token-bucket quotas; past saturation the tier sheds explicitly.
- :mod:`repro.serving.shard` — stable request -> shard hashing and the
  plain-document wire codec of the fleet tier.
- :mod:`repro.serving.fleet` — the :class:`ServingFleet`: N sharded
  worker processes (each a private ``ServingEngine``) behind one
  admission-controlled, asynchronous front door, with an open-loop
  load runner.

See ``docs/serving.md`` for cache keying rules, batching semantics,
the trace format and the fleet tier.
"""

from repro.serving.admission import (
    SHED_QUEUE,
    SHED_QUOTA,
    AdmissionController,
    AdmissionStats,
    TokenBucket,
)
from repro.serving.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    latency_quantiles,
    parse_arrivals,
)
from repro.serving.cache import (
    CacheKey,
    ReportCache,
    config_fingerprint,
    normalize_context,
)
from repro.serving.engine import ServingEngine, ServingStats
from repro.serving.fleet import FleetResponse, OpenLoopResult, ServingFleet
from repro.serving.request import (
    PLATFORM_CHOICES,
    ServeRequest,
    ServeResponse,
)
from repro.serving.scheduler import BatchingScheduler, SchedulerStats
from repro.serving.shard import (
    ShardRouter,
    request_to_wire,
    wire_to_request,
)
from repro.serving.trace import (
    TRACE_SCHEMA,
    generate_trace,
    load_trace,
    record_to_request,
    save_trace,
)

__all__ = [
    "ARRIVAL_KINDS",
    "AdmissionController",
    "AdmissionStats",
    "ArrivalProcess",
    "BatchingScheduler",
    "CacheKey",
    "FleetResponse",
    "OpenLoopResult",
    "PLATFORM_CHOICES",
    "ReportCache",
    "SHED_QUEUE",
    "SHED_QUOTA",
    "SchedulerStats",
    "ServeRequest",
    "ServeResponse",
    "ServingEngine",
    "ServingFleet",
    "ServingStats",
    "ShardRouter",
    "TRACE_SCHEMA",
    "TokenBucket",
    "config_fingerprint",
    "generate_trace",
    "latency_quantiles",
    "load_trace",
    "normalize_context",
    "parse_arrivals",
    "record_to_request",
    "request_to_wire",
    "save_trace",
    "wire_to_request",
]
