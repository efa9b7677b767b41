"""The sharded multi-process serving tier: :class:`ServingFleet`.

One :class:`~repro.serving.engine.ServingEngine` is a single process —
its throughput tops out at one core's worth of scheduler work.  The
fleet tier scales it out:

- **N worker processes**, each owning a private ``ServingEngine``
  (report cache + batching scheduler + physics memos).  Workers are fed
  entirely by plain documents over a multiprocessing queue
  (:func:`repro.serving.shard.request_to_wire`) and answer each pass
  with one columnar reply (see :func:`_worker_main`): request ids,
  report documents (each distinct one pickled once), ``cached`` /
  ``deduped`` byte columns, errors and latencies.  Nothing but plain
  picklable data crosses the process boundary.
- A **shard router** (:class:`~repro.serving.shard.ShardRouter`) that
  hashes each request onto a fixed worker, so every shard's caches stay
  hot for its slice of the traffic.
- **Admission control** (:mod:`repro.serving.admission`): bounded
  per-shard in-flight queues and optional per-tenant token buckets.
  Past saturation the fleet *sheds explicitly* (an immediate
  :class:`FleetResponse` with ``shed=True``) instead of queueing
  without bound.
- An **open-loop load generator** (:meth:`ServingFleet.run_open_loop`)
  driven by :class:`~repro.serving.arrivals.ArrivalProcess` schedules,
  stamping every response with its *arrival-to-completion* latency —
  the honest percentile basis (no coordinated omission).

``submit`` only buffers: a shard's buffer goes to its worker as one
queue item on :meth:`~ServingFleet.flush`/:meth:`~ServingFleet.drain` or
once the shard reaches its admission bound.  The worker runs everything
queued as one scheduler pass, so its micro-batch is what the client
batched.  The parent's collector resolves a whole reply under one lock
hold.

A one-worker fleet produces responses whose report payloads are
bit-identical to the in-process engine on the same request stream (the
worker runs exactly the same scheduler code on exactly the same
documents); ``benchmarks/run_fleet_bench.py`` gates on this.

Example:
    >>> from repro.serving import ServeRequest
    >>> with ServingFleet(workers=1) as fleet:
    ...     response = fleet.serve([ServeRequest(workload="MLP-mnist")])[0]
    >>> response.ok, response.shed, response.report["platform"]
    (True, False, 'TRON')
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.engine.memo import LRUMemo
from repro.errors import ConfigurationError
from repro.serving.admission import AdmissionController
from repro.serving.arrivals import ArrivalProcess, latency_quantiles
from repro.serving.engine import LATENCY_WINDOW, ServingEngine
from repro.serving.request import ServeRequest
from repro.serving.shard import ShardRouter, request_to_wire, wire_to_request

#: Distinct request types whose routing + wire encoding the front door
#: memoizes (beyond it, routing still works — just uncached).
ROUTE_CACHE_BOUND = 65536


def merge_counters(dicts: Sequence[Dict]) -> Dict:
    """Sum worker accounting dicts recursively into one fleet view.

    Numeric leaves add, booleans OR, nested dicts merge; a ``hit_rate``
    sitting next to ``hits``/``misses`` counters is recomputed from the
    summed counters (rates never add).

    Example:
        >>> merge_counters([{"hits": 3, "misses": 1, "hit_rate": 0.75},
        ...                 {"hits": 1, "misses": 3, "hit_rate": 0.25}])
        {'hits': 4, 'misses': 4, 'hit_rate': 0.5}
    """
    merged: Dict = {}
    for entry in dicts:
        for key, value in entry.items():
            if isinstance(value, dict):
                merged[key] = merge_counters([merged.get(key, {}), value])
            elif isinstance(value, bool):
                merged[key] = bool(merged.get(key, False)) or value
            elif isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
            else:
                merged[key] = value
    if "hit_rate" in merged and "hits" in merged and "misses" in merged:
        lookups = merged["hits"] + merged["misses"]
        merged["hit_rate"] = merged["hits"] / lookups if lookups else 0.0
    return merged


@dataclass
class FleetResponse:
    """The fleet's answer to one submission.

    Attributes:
        workload: the request's workload name.
        report: the serialized :class:`~repro.core.reports.RunReport`
            dict (``None`` for failures and sheds) — fleet responses
            carry *documents*, exactly what crossed the wire.
        cached / deduped: the worker's serving metadata.
        shed: rejected by admission control (never reached a worker).
        error: failure or shed reason.
        latency_s: the worker-side service latency.
        open_latency_s: arrival-to-completion latency on the parent
            clock — scheduled arrival (open loop) or submission time
            (closed loop) to response collection.
        shard / worker: where the request was routed / served.
    """

    workload: str
    report: Optional[Dict] = None
    cached: bool = False
    deduped: bool = False
    shed: bool = False
    error: Optional[str] = None
    latency_s: float = 0.0
    open_latency_s: float = 0.0
    shard: int = -1
    worker: int = -1

    @property
    def ok(self) -> bool:
        """Whether the request produced a report."""
        return self.report is not None


@dataclass
class OpenLoopResult:
    """One open-loop run: offered load in, honest percentiles out.

    ``throughput_rps`` counts *completed* requests over the span from
    first scheduled arrival to last completion; the latency block is
    arrival-to-completion over completed requests only (sheds are
    counted, not averaged in).
    """

    arrivals: str
    offered_rps: float
    submitted: int
    completed: int
    shed: int
    errors: int
    duration_s: float
    latency: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of run duration."""
        return self.completed / self.duration_s if self.duration_s else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {
            "arrivals": self.arrivals,
            "offered_rps": self.offered_rps,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            **self.latency,
        }


@dataclass(slots=True)
class _Pending:
    """Parent-side bookkeeping of one in-flight request.

    ``future`` is only materialized on the public :meth:`submit` path;
    the whole-stream entry points skip it (a ``Future`` costs an RLock
    plus callback machinery per request) and read ``response`` directly
    after :meth:`~ServingFleet.drain` — the fleet's condition variable
    is the synchronization.
    """

    workload: str
    shard: int
    arrival_s: float
    future: Optional[Future] = None
    response: Optional[FleetResponse] = None

    def resolve(self, response: FleetResponse) -> None:
        """Deliver the response (future and/or direct slot)."""
        self.response = response
        if self.future is not None:
            self.future.set_result(response)


def _worker_main(
    worker_id: int,
    inbox,
    outbox,
    cache_entries: int,
    max_queue: int,
) -> None:
    """One shard: a private engine fed by wire documents.

    Reads ``("batch", [(id, wire_record), ...])`` items, coalescing
    everything already queued into one scheduler micro-batch (the
    parent's admission bound keeps at most ``max_queue`` requests in
    flight, so it bounds a pass), and replies with one columnar
    ``("batch", worker_id, (ids, reports, cached, deduped, errors,
    latencies))`` item: per request, in pass order, its id, its report
    payload (``None`` on failure; every request of one type carries the
    same dict object, so pickle sends each distinct payload once),
    ``cached``/``deduped`` as one byte each, its error text and its
    service latency.
    A ``("stop", None)`` item drains the inbox, emits the engine's
    accounting as ``("stats", worker_id, {...})`` and exits.
    """
    engine = ServingEngine(cache_entries=cache_entries)
    # Decode memo: the router tags each distinct request type with a
    # ``type_id``, so the (reflectively validating, ~100x slower than a
    # dict hit) ExecutionContext round-trip runs once per *type*, not
    # once per request.  Hot-shard traffic is exactly the repeated-type
    # case the fleet shards for.
    decoded: Dict[int, Any] = {}

    def decode(record):
        type_id = record.get("type_id")
        if type_id is None:
            return wire_to_request(record)
        request = decoded.get(type_id)
        if request is None:
            request = decoded[type_id] = wire_to_request(record)
        return request

    # Serialized-report memo, by request type: a report is a pure
    # function of its request, so a type's document is built once even
    # when the report cache evicts the type and the scheduler costs it
    # again.  Bounded at the report cache plus one coalesced batch, so
    # every cached type and every type of the pass stays memoized.
    # Untagged records (past the parent's route memo) serialize afresh.
    report_payloads = LRUMemo(
        "serving.report_payloads", engine.cache.max_entries + max_queue
    )

    def encode(record, report):
        if report is None:
            return None
        type_id = record.get("type_id")
        if type_id is None:
            return report.to_dict()
        payload = report_payloads.get(type_id)
        if payload is None:
            payload = report.to_dict()
            report_payloads.put(type_id, payload)
        return payload

    stopping = False
    while not stopping:
        kind, payload = inbox.get()
        if kind == "stop":
            break
        batch = list(payload)
        while True:
            try:
                kind, payload = inbox.get_nowait()
            except queue_module.Empty:
                break
            if kind == "stop":
                stopping = True
                break
            batch.extend(payload)
        responses = engine.serve([decode(record) for _, record in batch])
        outbox.put(
            (
                "batch",
                worker_id,
                (
                    [request_id for request_id, _ in batch],
                    [
                        encode(record, response.report)
                        for (_, record), response in zip(batch, responses)
                    ],
                    bytes([response.cached for response in responses]),
                    bytes([response.deduped for response in responses]),
                    [response.error for response in responses],
                    [response.latency_s for response in responses],
                ),
            )
        )
    from repro.core.engine import physics_cache_stats

    outbox.put(
        (
            "stats",
            worker_id,
            {
                "stats": engine.stats.to_dict(),
                "cache": engine.cache.stats.to_dict(),
                "scheduler": engine.scheduler.stats.to_dict(),
                "physics_cache": physics_cache_stats(),
                "report_payloads": len(report_payloads),
            },
        )
    )


class ServingFleet:
    """N sharded worker processes behind one submission front door.

    Args:
        workers: worker-process count (= shard count).
        cache_entries: each worker's report-cache bound.
        max_queue: per-shard in-flight bound; submissions beyond it
            shed with an explicit response (see
            :mod:`repro.serving.admission`).  A shard that reaches it
            dispatches its buffer without waiting for :meth:`flush`.
        tenant_rate_rps / tenant_burst: optional per-tenant quota.
        start_method: multiprocessing start method (default: ``fork``
            where available — workers inherit warmed module state —
            else the platform default).
    """

    def __init__(
        self,
        workers: int = 4,
        cache_entries: int = 1024,
        max_queue: int = 256,
        tenant_rate_rps: Optional[float] = None,
        tenant_burst: Optional[float] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"need >= 1 worker, got {workers}")
        self.workers = workers
        self.router = ShardRouter(num_shards=workers)
        self.admission = AdmissionController(
            max_queue=max_queue,
            tenant_rate_rps=tenant_rate_rps,
            tenant_burst=tenant_burst,
        )
        self.worker_stats: Dict[int, Dict[str, Any]] = {}
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        ctx = multiprocessing.get_context(start_method)
        self._outbox = ctx.Queue()
        self._inboxes = [ctx.Queue() for _ in range(workers)]
        self._processes = [
            ctx.Process(
                target=_worker_main,
                args=(
                    i, self._inboxes[i], self._outbox, cache_entries,
                    max_queue,
                ),
                daemon=True,
                name=f"repro-fleet-{i}",
            )
            for i in range(workers)
        ]
        for process in self._processes:
            process.start()

        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._next_id = 0
        self._routes: Dict[ServeRequest, tuple] = {}
        self._id_routes: Dict[int, tuple] = {}
        self._pending: Dict[int, _Pending] = {}
        # Replies popped from ``_pending`` whose responses the collector
        # is still delivering; drain waits for them too.
        self._delivering = 0
        self._in_flight = [0] * workers
        self._shard_counts = [0] * workers
        self._buffers: List[List] = [[] for _ in range(workers)]
        self._completed = 0
        self._errors = 0
        self._latency_sum_s = 0.0
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self._first_submit_s: Optional[float] = None
        self._last_completion_s = 0.0
        self._closed = False
        self._collector = threading.Thread(
            target=self._collect, name="repro-fleet-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _now(self) -> float:
        """Seconds since fleet start (the fleet's shared clock)."""
        return time.perf_counter() - self._t0

    def _route(self, request: ServeRequest):
        """Memoized ``(shard, tagged wire record)`` of a request type.

        Routing (workload lookup, config fingerprint) and wire encoding
        (the exact :class:`ExecutionContext` round-trip) are pure in the
        request, so repeated types — the traffic the fleet shards for —
        pay them once.  The cached record carries a parent-assigned
        ``type_id`` the workers key their own decode memo on.
        """
        # Identity fast path: replayed streams submit the *same* request
        # objects, and `is`-checking skips the (nested-dataclass) hash.
        # The strong request reference in the value keeps the id valid.
        hit = self._id_routes.get(id(request))
        if hit is not None and hit[0] is request:
            return hit[1]
        try:
            entry = self._routes.get(request)
        except TypeError:  # unhashable payload: route uncached
            return self.router.shard_of(request), request_to_wire(request)
        if entry is None:
            shard = self.router.shard_of(request)
            record = request_to_wire(request)
            with self._lock:
                entry = self._routes.get(request)
                if entry is None:
                    if len(self._routes) >= ROUTE_CACHE_BOUND:
                        return shard, record
                    # The id must be assigned under the lock: two types
                    # sharing one id would collide in worker decode
                    # memos.
                    record["type_id"] = len(self._routes)
                    entry = (shard, record)
                    self._routes[request] = entry
        if len(self._id_routes) < ROUTE_CACHE_BOUND:
            self._id_routes[id(request)] = (request, entry)
        return entry

    def _submit_entry(
        self,
        request: ServeRequest,
        tenant: Optional[str],
        arrival_s: Optional[float],
        future: Optional[Future],
        route,
    ):
        """The one submission path: returns the in-flight ``_Pending``
        entry, or an immediate :class:`FleetResponse` for shed and
        unroutable requests (they never cross a process boundary).

        The closed check, the admission decision, the id and the buffer
        slot are one section under the fleet lock, so a submit to a
        closed fleet takes no admission decision and the backlog that
        admission sees is the one the request joins."""
        now = self._now()
        if arrival_s is None:
            arrival_s = now
        try:
            shard, record = (
                route if route is not None else self._route(request)
            )
        except ConfigurationError as exc:
            with self._lock:
                self._errors += 1
            return FleetResponse(workload=request.workload, error=str(exc))
        with self._lock:
            if self._closed:
                raise ConfigurationError("fleet is closed")
            in_flight = self._in_flight[shard]
            reason = self.admission.admit(
                in_flight=in_flight, tenant=tenant, now_s=now
            )
            if reason is not None:
                return FleetResponse(
                    workload=request.workload,
                    shed=True,
                    error=reason,
                    shard=shard,
                )
            request_id = self._next_id
            self._next_id = request_id + 1
            entry = self._pending[request_id] = _Pending(
                request.workload, shard, arrival_s, future
            )
            self._in_flight[shard] = in_flight = in_flight + 1
            self._shard_counts[shard] += 1
            if self._first_submit_s is None:
                self._first_submit_s = arrival_s
            buffer = self._buffers[shard]
            buffer.append((request_id, record))
            # At the bound nothing more can join this shard's batch.
            ready = in_flight >= self.admission.max_queue
            if ready:
                self._buffers[shard] = []
        if ready:
            self._inboxes[shard].put(("batch", buffer))
        return entry

    def submit(
        self,
        request: ServeRequest,
        tenant: Optional[str] = None,
        arrival_s: Optional[float] = None,
    ) -> "Future[FleetResponse]":
        """Route one request through admission to its shard's buffer,
        which :meth:`flush`/:meth:`drain` or the admission bound sends.

        ``arrival_s`` is the scheduled arrival on the fleet clock (open
        loop); it defaults to the submission instant (closed loop).
        Shed and unroutable requests resolve immediately — they never
        cross a process boundary.
        """
        future: "Future[FleetResponse]" = Future()
        out = self._submit_entry(request, tenant, arrival_s, future, None)
        if isinstance(out, FleetResponse):
            future.set_result(out)
        return future

    def flush(self) -> None:
        """Dispatch every buffered request to its shard queue."""
        for shard in range(self.workers):
            with self._lock:
                buffer = self._buffers[shard]
                self._buffers[shard] = []
            if buffer:
                self._inboxes[shard].put(("batch", buffer))

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Flush and wait until no request is in flight and every
        response has been delivered (to its future and its entry).

        Returns ``False`` on timeout.  If a worker process dies, its
        pending requests resolve with an error response instead of
        deadlocking the parent.
        """
        self.flush()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._done:
            while self._pending or self._delivering:
                remaining = 0.25
                if deadline is not None:
                    remaining = min(remaining, deadline - time.monotonic())
                    if remaining <= 0.0:
                        return False
                self._done.wait(timeout=remaining)
                self._fail_dead_worker_pending()
        return True

    def _fail_dead_worker_pending(self) -> None:
        """Resolve pending entries whose worker process has died.

        Must be called with ``self._lock`` held (the ``_done``
        condition shares it).
        """
        dead = [
            shard
            for shard, process in enumerate(self._processes)
            if not process.is_alive()
        ]
        if not dead:
            return
        doomed = [
            (request_id, entry)
            for request_id, entry in self._pending.items()
            if entry.shard in set(dead)
        ]
        completion = self._now()
        resolved = []
        for request_id, entry in doomed:
            del self._pending[request_id]
            self._in_flight[entry.shard] -= 1
            self._errors += 1
            resolved.append(entry)
        if resolved:
            self._done.notify_all()
        for entry in resolved:
            entry.resolve(
                FleetResponse(
                    workload=entry.workload,
                    error=f"worker {entry.shard} died",
                    shard=entry.shard,
                    open_latency_s=completion - entry.arrival_s,
                )
            )

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def _collect(self) -> None:
        """Collector thread: resolve responses, gather final stats."""
        stats_remaining = self.workers
        while stats_remaining:
            try:
                kind, worker_id, payload = self._outbox.get(timeout=0.25)
            except queue_module.Empty:
                if all(
                    not process.is_alive() for process in self._processes
                ) and self._outbox.empty():
                    break  # pragma: no cover - crashed-fleet escape hatch
                continue
            if kind == "stats":
                self.worker_stats[worker_id] = payload
                stats_remaining -= 1
                continue
            ids, reports, cached, deduped, errors, latencies = payload
            completion = self._now()
            with self._lock:
                pop = self._pending.pop
                entries = [pop(request_id, None) for request_id in ids]
                if None in entries:  # pragma: no cover - dead worker
                    # A late reply from a worker found dead: drain has
                    # already failed every entry of its shard at once.
                    continue
                opens = [completion - entry.arrival_s for entry in entries]
                # A worker serves exactly its own shard.
                self._in_flight[worker_id] -= len(entries)
                self._completed += len(entries)
                self._errors += reports.count(None)
                self._latency_sum_s += sum(opens)
                self._latencies.extend(opens)
                self._last_completion_s = completion
                self._delivering += 1
            # FleetResponse fields in order (keywords cost ~0.5 ms more
            # per 1024-request reply).
            for entry, report, hit, dup, error, latency, open_latency in zip(
                entries, reports, cached, deduped, errors, latencies, opens
            ):
                entry.resolve(
                    FleetResponse(
                        entry.workload, report, hit == 1, dup == 1, False,
                        error, latency, open_latency, worker_id, worker_id,
                    )
                )
            with self._lock:
                self._delivering -= 1
                self._done.notify_all()

    # ------------------------------------------------------------------
    # Whole-stream entry points
    # ------------------------------------------------------------------

    def serve(
        self,
        requests: Sequence[ServeRequest],
        tenants: Optional[Sequence[Optional[str]]] = None,
    ) -> List[FleetResponse]:
        """Closed-loop replay: submit everything, drain, responses in
        request order.

        A closed-loop caller *waits* at a full shard instead of being
        shed (backpressure) — shedding is the open-loop behavior, where
        arrivals cannot be paused.  Tenant-quota sheds still apply.
        """
        if tenants is None:
            tenants = [None] * len(requests)
        entries = []
        for request, tenant in zip(requests, tenants):
            try:
                route = self._route(request)
            except ConfigurationError:
                route = None  # _submit_entry resolves it to an error
            if route is not None:
                self._wait_for_room(route[0])
            entries.append(
                self._submit_entry(request, tenant, None, None, route)
            )
        self.drain()
        return [
            entry if isinstance(entry, FleetResponse) else entry.response
            for entry in entries
        ]

    def _wait_for_room(self, shard: int) -> None:
        """Block until ``shard`` is below its admission bound."""
        while True:
            with self._lock:
                backlog = self._in_flight[shard]
            if backlog < self.admission.max_queue:
                return
            # A shard at its bound has already dispatched its buffer.
            with self._done:
                self._done.wait(timeout=0.05)
                self._fail_dead_worker_pending()

    def run_open_loop(
        self,
        requests: Sequence[ServeRequest],
        process: ArrivalProcess,
        seed: int = 0,
        tenants: Optional[Sequence[Optional[str]]] = None,
        drain_timeout: Optional[float] = None,
    ) -> OpenLoopResult:
        """Offer ``requests`` on an :class:`ArrivalProcess` schedule.

        Each request is submitted at (or as soon as possible after) its
        scheduled arrival regardless of completions — the open loop.
        Latency percentiles are arrival-to-completion over completed
        requests; shed requests are counted separately.
        """
        if tenants is None:
            tenants = [None] * len(requests)
        times = process.times(len(requests), seed=seed)
        start = self._now()
        entries = []
        for request, tenant, offset in zip(requests, tenants, times):
            target = start + float(offset)
            while True:
                gap = target - self._now()
                if gap <= 0.0:
                    break
                # The generator is ahead of schedule: dispatch buffered
                # work instead of letting it idle (sub-saturation
                # latency stays honest, not batch-boundary-quantized).
                self.flush()
                time.sleep(min(gap, 0.001))
            entries.append(
                self._submit_entry(request, tenant, target, None, None)
            )
        self.drain(timeout=drain_timeout)
        outcomes = [
            entry if isinstance(entry, FleetResponse) else entry.response
            for entry in entries
        ]
        responses = [r for r in outcomes if r is not None]
        completed = [r for r in responses if not r.shed and r.ok]
        shed = sum(r.shed for r in responses)
        errors = sum(1 for r in responses if not r.shed and not r.ok)
        duration = max(self._now() - start, 1e-9)
        return OpenLoopResult(
            arrivals=process.describe(),
            offered_rps=process.rate_rps,
            submitted=len(requests),
            completed=len(completed),
            shed=shed,
            errors=errors,
            duration_s=duration,
            latency=latency_quantiles(
                [r.open_latency_s for r in completed]
            ),
        )

    # ------------------------------------------------------------------
    # Accounting + lifecycle
    # ------------------------------------------------------------------

    def fleet_stats(self) -> Dict[str, Any]:
        """The fleet-level accounting block of the ``repro.serve/1``
        envelope: parent-side routing/admission/latency counters plus
        (after :meth:`close`) every worker engine's own stats."""
        with self._lock:
            completed = self._completed
            latency = latency_quantiles(list(self._latencies))
            mean = (
                self._latency_sum_s / completed if completed else 0.0
            )
            wall = self._last_completion_s - (self._first_submit_s or 0.0)
            admission = self.admission.stats.to_dict()
        latency["mean_latency_s"] = mean
        return {
            "workers": self.workers,
            "completed": completed,
            "wall_s": wall,
            "throughput_rps": completed / wall if wall > 0.0 else 0.0,
            "open_loop_latency": latency,
            "admission": admission,
            "shard_requests": list(self._shard_counts),
            "worker_stats": [
                self.worker_stats.get(i, {}) for i in range(self.workers)
            ],
        }

    def aggregate_stats(self) -> Dict[str, Any]:
        """Worker engine stats summed fleet-wide, in the exact shape of
        :meth:`ServingStats.to_dict` (percentiles from the parent's
        arrival-to-completion window — the honest open-loop numbers).

        Only meaningful after :meth:`close` (workers report their
        accounting as they stop)."""
        counters = {
            "requests": 0,
            "errors": 0,
            "cache_hits": 0,
            "deduped": 0,
            "flushes": 0,
        }
        busy_s = 0.0
        for stats in self.worker_stats.values():
            engine_stats = stats.get("stats", {})
            for key in counters:
                counters[key] += int(engine_stats.get(key, 0))
            busy_s += float(engine_stats.get("busy_s", 0.0))
        fleet = self.fleet_stats()
        requests = counters["requests"]
        latency = fleet["open_loop_latency"]
        return {
            **counters,
            "busy_s": busy_s,
            "hit_rate": (
                counters["cache_hits"] / requests if requests else 0.0
            ),
            "throughput_rps": fleet["throughput_rps"],
            "mean_latency_s": latency["mean_latency_s"],
            "p50_latency_s": latency["p50_latency_s"],
            "p95_latency_s": latency["p95_latency_s"],
            "p99_latency_s": latency["p99_latency_s"],
        }

    def close(self, timeout: float = 60.0) -> None:
        """Drain, stop every worker, and collect their final stats."""
        with self._lock:
            if self._closed:
                return
        self.drain(timeout=timeout)
        with self._lock:
            self._closed = True
        for inbox in self._inboxes:
            inbox.put(("stop", None))
        self._collector.join(timeout=timeout)
        for process in self._processes:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        for inbox in self._inboxes:
            inbox.close()
        self._outbox.close()

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
