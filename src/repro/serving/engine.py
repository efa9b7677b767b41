"""The in-process serving front-end: synchronous micro-batches.

:class:`ServingEngine` is the object an in-process traffic source talks
to.  It owns the report cache and the batching scheduler;
:meth:`ServingEngine.serve` costs a whole request sequence as one
scheduler micro-batch and returns the responses in request order.
Traffic that needs asynchronous submission, admission control or
open-loop arrivals goes through :class:`~repro.serving.fleet.ServingFleet`,
whose workers each run one engine.

Requests route and cost as ``repro run`` would: the scheduler builds
each platform through the API registry
(:func:`repro.api.registry.get_platform`) and resolves ``auto`` by the
registry's rule.

Every response carries its service latency, and the engine aggregates
fleet-level accounting (:class:`ServingStats`) — throughput, hit rate,
latency percentiles — which ``repro serve --stats`` prints.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Sequence

#: Most-recent request latencies retained for the percentile stats —
#: the window keeps a long-lived engine's accounting O(1) per request.
LATENCY_WINDOW = 4096

from repro.serving.arrivals import latency_quantiles
from repro.serving.cache import ReportCache
from repro.serving.request import ServeRequest, ServeResponse
from repro.serving.scheduler import BatchingScheduler


@dataclass
class ServingStats:
    """Fleet-level accounting of one :class:`ServingEngine`.

    Attributes:
        requests: requests resolved (served or failed).
        errors: requests that produced no report.
        cache_hits / deduped: requests served without a run-path
            evaluation (from the cache / coalesced in-batch).
        flushes: micro-batches executed.
        busy_s: wall time spent inside scheduler execution.
        latency_sum_s: running sum of every service latency (exact mean
            at any fleet size).
        recent_latencies_s: the last :data:`LATENCY_WINDOW` latencies —
            a bounded window, so a long-lived engine's percentile stats
            stay O(1) per request instead of growing without bound.
    """

    requests: int = 0
    errors: int = 0
    cache_hits: int = 0
    deduped: int = 0
    flushes: int = 0
    busy_s: float = 0.0
    latency_sum_s: float = 0.0
    recent_latencies_s: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the report cache."""
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def throughput_rps(self) -> float:
        """Requests per second of scheduler busy time."""
        return self.requests / self.busy_s if self.busy_s > 0.0 else 0.0

    @property
    def mean_latency_s(self) -> float:
        """Mean service latency over all requests (exact)."""
        return self.latency_sum_s / self.requests if self.requests else 0.0

    def to_dict(self) -> Dict:
        """JSON-serializable form (no per-request arrays); the
        percentiles come from the recent window."""
        latency = latency_quantiles(self.recent_latencies_s)
        return {
            "requests": self.requests,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "flushes": self.flushes,
            "busy_s": self.busy_s,
            "hit_rate": self.hit_rate,
            "throughput_rps": self.throughput_rps,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": latency["p50_latency_s"],
            "p95_latency_s": latency["p95_latency_s"],
            "p99_latency_s": latency["p99_latency_s"],
        }


class ServingEngine:
    """Batched, cached request serving over the TRON/GHOST cost models.

    Args:
        cache_entries: report-cache bound (LRU beyond it).

    Each micro-batch evaluates on the calling thread; the scheduler
    serializes concurrent :meth:`serve` callers.

    Example:
        >>> engine = ServingEngine()
        >>> r1, r2 = engine.serve([ServeRequest(workload="MLP-mnist"),
        ...                        ServeRequest(workload="MLP-mnist")])
        >>> r1.report.platform, r2.deduped
        ('TRON', True)
        >>> engine.serve([ServeRequest(workload="MLP-mnist")])[0].cached
        True
    """

    def __init__(self, cache_entries: int = 1024) -> None:
        self.cache = ReportCache(max_entries=cache_entries)
        self.scheduler = BatchingScheduler(cache=self.cache)
        self.stats = ServingStats()
        # Concurrent serve() callers race on the stats.
        self._lock = threading.Lock()

    def serve(
        self, requests: Sequence[ServeRequest]
    ) -> List[ServeResponse]:
        """Cost ``requests`` as one micro-batch; responses in order."""
        start = time.perf_counter()
        responses = self.scheduler.execute(requests)
        self._absorb(responses, time.perf_counter() - start)
        return responses

    def serve_specs(self, specs: Sequence) -> List[ServeResponse]:
        """Cost a sequence of run-kind :class:`~repro.api.ExperimentSpec`
        documents (or their dict forms) as one micro-batch.

        Example:
            >>> from repro.api import ExperimentSpec
            >>> engine = ServingEngine()
            >>> spec = ExperimentSpec(workload="MLP-mnist")
            >>> engine.serve_specs([spec])[0].report.platform
            'TRON'
        """
        return self.serve([ServeRequest.from_spec(spec) for spec in specs])

    def close(self) -> None:
        """Release nothing: serving is synchronous, so an engine holds no
        thread or process.  Kept so callers that pair construction with
        ``close()`` keep working."""

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _absorb(
        self, responses: Sequence[ServeResponse], busy_s: float
    ) -> None:
        latencies = [response.latency_s for response in responses]
        with self._lock:
            stats = self.stats
            stats.flushes += 1
            stats.busy_s += busy_s
            stats.requests += len(responses)
            stats.errors += sum(r.report is None for r in responses)
            stats.cache_hits += sum(r.cached for r in responses)
            stats.deduped += sum(r.deduped for r in responses)
            stats.latency_sum_s += sum(latencies)
            stats.recent_latencies_s.extend(latencies)
