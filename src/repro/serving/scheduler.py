"""The batching scheduler: coalesce, deduplicate, batch the physics.

Given a micro-batch of :class:`~repro.serving.request.ServeRequest`\\ s,
the scheduler serves each one through the cheapest sufficient path:

1. **Cache** — a request whose ``(workload, config, context)`` triple is
   already cached resolves immediately.
2. **Dedup** — identical misses inside the batch collapse onto one
   evaluation; every duplicate shares the resulting report object.
3. **Batched physics** — the remaining unique jobs group by
   ``(platform, batch, context family)``, where a family is everything
   but the die seed.  All unseen dies of a group are drawn in one
   batched pass of the engine's corner physics per array geometry
   (:func:`repro.core.engine.batch_context_physics_for`) instead of N
   scalar draws + TED solves; the pass leaves every die in the engine's
   per-die memo, which keeps room for all of the pass's dies until
   step 4 has read them back
   (:func:`repro.core.engine.reserve_dies`).
4. **Column costing** — every unique job of the pass then joins the
   column of its ``(platform, workload)``, across all groups, and each
   column costs in one call of the platform's registered SoA evaluator
   (:func:`repro.core.engine.workload_evaluator`) over the jobs' configs
   and contexts, reading each die back from the memo; each point
   materializes bit-identical to a scalar ``accelerator.run``.  Jobs
   with no evaluator (decode, temporal GNNs, suites with such a member)
   and every job of a column whose call raises (a dead die) run scalar
   one by one, so each keeps its own report or error text.  Cache
   insertions follow the jobs' group order, so eviction order does not
   depend on how the columns formed.

Platforms are built through the API registry
(:func:`repro.api.registry.get_platform`), the same factories ``repro
run`` uses.  Everything runs on the calling thread, through one
long-lived accelerator per ``(platform, batch)``.  The cost models are
pure Python, so under the GIL a thread pool could never overlap
evaluations; it only paid thread start-up per flush and let cache
insertions race.  The scheduler is synchronous and runs one micro-batch
at a time; asynchronous submission lives in the fleet tier
(:mod:`repro.serving.fleet`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

# What a pass reaches beyond the names below, loaded with the scheduler:
# engine busy time then measures serving, not imports, and a fleet's
# forked workers inherit all of it.
import repro.core.ghost.accelerator  # noqa: F401
import repro.core.ghost.soa  # noqa: F401
import repro.core.tron.accelerator  # noqa: F401
import repro.core.tron.soa  # noqa: F401
import repro.graphs.datasets  # noqa: F401
import repro.nn.models  # noqa: F401
import repro.streaming.decode  # noqa: F401
import repro.streaming.temporal  # noqa: F401
import repro.workloads  # noqa: F401
from repro.api.registry import get_platform
from repro.core.base import (
    Accelerator,
    Workload,
    check_kind_contract,
    get_workload,
)
from repro.core.context import ExecutionContext
from repro.core.engine import (
    LRUMemo,
    batch_context_physics_for,
    reserve_dies,
    workload_evaluator,
)
from repro.core.reports import RunReport
from repro.errors import ConfigurationError, MappingError, YieldError
from repro.serving.cache import (
    CacheKey,
    ReportCache,
    config_fingerprint,
    normalize_context,
)
from repro.serving.request import ServeRequest, ServeResponse

#: Long-lived accelerators a scheduler keeps, one per ``(platform,
#: batch)``.  ``batch`` is request input, so the memo is bounded.
PLATFORM_ENTRIES = 64


def build_platform(platform: str, batch: int) -> Tuple[Accelerator, str]:
    """A registered platform's accelerator for ``batch`` and its
    configuration fingerprint (the cache and routing key component).

    Example:
        >>> build_platform("tron", 8)[0].config.batch
        8
        >>> build_platform("ghost", 8)
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: GHOST costs full-graph inferences; batched requests must target tron (got batch=8)
    """
    if platform == "ghost" and batch != 1:
        raise ConfigurationError(
            "GHOST costs full-graph inferences; batched requests must "
            "target tron (got batch={})".format(batch)
        )
    overrides = {"batch": batch} if platform == "tron" else None
    accelerator = get_platform(platform, overrides=overrides)
    return accelerator, config_fingerprint(accelerator.config)


@dataclass
class _Job:
    """One unique (deduplicated) evaluation inside a micro-batch."""

    key: CacheKey
    request: ServeRequest
    workload: Workload
    platform: str
    accelerator: Accelerator
    indices: List[int] = field(default_factory=list)
    report: Optional[RunReport] = None
    error: Optional[str] = None


@dataclass
class SchedulerStats:
    """Evaluation accounting of one :class:`BatchingScheduler`.

    Attributes:
        requests: requests scheduled.
        cache_hits: requests served from the report cache.
        deduped: requests coalesced onto an identical in-batch request.
        evaluated: unique jobs costed (in a column or a scalar run).
        errors: jobs that failed (dead die, unmappable workload).
        groups: per-(platform, batch, context-family) groups formed.
        physics_batches: batched corner-physics passes issued.
        batched_dies: dies whose physics came from a batched pass.
    """

    requests: int = 0
    cache_hits: int = 0
    deduped: int = 0
    evaluated: int = 0
    errors: int = 0
    groups: int = 0
    physics_batches: int = 0
    batched_dies: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-serializable form."""
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "evaluated": self.evaluated,
            "errors": self.errors,
            "groups": self.groups,
            "physics_batches": self.physics_batches,
            "batched_dies": self.batched_dies,
        }


class BatchingScheduler:
    """Coalesces request streams into grouped, deduplicated evaluations.

    Args:
        cache: the shared report cache (``None`` disables caching).

    One accelerator per ``(platform, batch)`` is built on first use and
    evaluates every later group of that pair, so its per-instance memos
    survive across flushes; the :data:`PLATFORM_ENTRIES` most recently
    used pairs are kept.  Those instances are not thread-safe:
    :meth:`execute` and :meth:`cache_key` serialize on one lock.
    """

    def __init__(self, cache: Optional[ReportCache] = None) -> None:
        self.cache = cache
        self.stats = SchedulerStats()
        #: (platform, batch) -> (accelerator, config fingerprint).
        self._platforms = LRUMemo(
            "serving.scheduler_platforms", PLATFORM_ENTRIES
        )
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Key construction (callers hold ``self._lock``)
    # ------------------------------------------------------------------

    def _platform(self, platform: str, batch: int) -> Tuple[Accelerator, str]:
        """The long-lived accelerator of a registered platform and its
        configuration fingerprint, built on first use."""
        key = (platform, batch)
        entry = self._platforms.get(key)
        if entry is None:
            entry = build_platform(platform, batch)
            self._platforms.put(key, entry)
        return entry

    def _resolve(self, request: ServeRequest):
        """(workload, platform, accelerator, cache key) of a request —
        the single key-construction rule of the scheduler."""
        workload = get_workload(request.workload)
        platform = request.resolve_platform(workload.kind)
        accelerator, digest = self._platform(platform, request.batch)
        key = (request.workload, digest, normalize_context(request.ctx))
        return workload, platform, accelerator, key

    def cache_key(self, request: ServeRequest) -> CacheKey:
        """The frozen cache key of a request (see :mod:`.cache`)."""
        with self._lock:
            return self._resolve(request)[3]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self, requests: Sequence[ServeRequest]
    ) -> List[ServeResponse]:
        """Serve one micro-batch, returning responses in request order.

        Concurrent callers (threads sharing one ``ServingEngine``) run
        one after the other.
        """
        with self._lock:
            return self._execute(list(requests))

    def _execute(self, requests: List[ServeRequest]) -> List[ServeResponse]:
        start = time.perf_counter()
        self.stats.requests += len(requests)
        responses: List[Optional[ServeResponse]] = [None] * len(requests)

        # Pass 1: cache lookups + in-batch dedup.  A request that cannot
        # even resolve (unknown workload, unroutable platform/batch)
        # fails alone; it must not sink the micro-batch.  Resolution is
        # pure in the request, so each distinct request object resolves
        # once per pass (``requests`` keeps every id alive); the cache
        # lookup stays per request, so LRU recency and hit counts do not
        # depend on how many objects the stream repeats.
        resolved: Dict[int, object] = {}
        jobs: Dict[CacheKey, _Job] = {}
        for i, request in enumerate(requests):
            entry = resolved.get(id(request))
            if entry is None:
                try:
                    entry = self._resolve(request)
                except (ConfigurationError, MappingError) as exc:
                    entry = str(exc)
                resolved[id(request)] = entry
            if isinstance(entry, str):
                self.stats.errors += 1
                responses[i] = ServeResponse(
                    request=request,
                    report=None,
                    error=entry,
                    latency_s=time.perf_counter() - start,
                )
                continue
            workload, platform, accelerator, key = entry
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                self.stats.cache_hits += 1
                responses[i] = ServeResponse(
                    request=request,
                    report=cached,
                    cached=True,
                    latency_s=time.perf_counter() - start,
                )
                continue
            job = jobs.get(key)
            if job is None:
                jobs[key] = job = _Job(
                    key=key,
                    request=request,
                    workload=workload,
                    platform=platform,
                    accelerator=accelerator,
                )
            else:
                self.stats.deduped += 1
            job.indices.append(i)

        # Pass 2: group unique jobs by (platform, batch, context family).
        groups: Dict[Tuple, List[_Job]] = {}
        for job in jobs.values():
            family = self._family(job.key[2])
            groups.setdefault(
                (job.platform, job.request.batch, family), []
            ).append(job)
        self.stats.groups += len(groups)

        # Pass 3: draw each group's unseen dies into the per-die memo,
        # which keeps room for all of them (however many) until pass 4
        # has read them back.
        ordered = [job for group in groups.values() for job in group]
        with reserve_dies(sum(
            len(group) * len(group[0].accelerator.array_specs())
            for group in groups.values()
        )):
            for (_, _, family), group_jobs in groups.items():
                self._draw_group_physics(family, group_jobs)

            # Pass 4: cost one column per (platform, workload), then
            # account and cache every job in group order.
            columns: Dict[Tuple[str, str], List[_Job]] = {}
            for job in ordered:
                columns.setdefault(
                    (job.accelerator.name, job.workload.name), []
                ).append(job)
            for column in columns.values():
                self._cost_column(column)
        finished = time.perf_counter()
        for job in ordered:
            if job.report is None:
                self.stats.errors += 1
                continue
            self.stats.evaluated += 1
            if self.cache is not None:
                self.cache.put(job.key, job.report)

        # Pass 5: fan reports back out to every request of each job.
        for job in jobs.values():
            for rank, i in enumerate(job.indices):
                responses[i] = ServeResponse(
                    request=requests[i],
                    report=job.report,
                    deduped=rank > 0,
                    error=job.error,
                    latency_s=finished - start,
                )
        missing = [i for i, r in enumerate(responses) if r is None]
        if missing:  # pragma: no cover - scheduler invariant
            raise RuntimeError(
                f"scheduler bug: request(s) {missing} got no response"
            )
        return responses

    @staticmethod
    def _family(
        ctx: Optional[ExecutionContext],
    ) -> Optional[ExecutionContext]:
        """The group key of a context: everything but the die seed.

        Nominal (``None``) and pinned contexts form their own groups and
        skip the batched physics pass; sampling contexts that differ
        only in seed land in one family and share one.
        """
        if ctx is None or ctx.pinned or not ctx.affects_arrays:
            return ctx
        return replace(ctx, seed=0)

    @staticmethod
    def _cost_column(column: List[_Job]) -> None:
        """Cost the jobs of one ``(platform, workload)`` column.

        One registered SoA evaluator call covers the whole column.
        Otherwise — no evaluator, or the call raised (a dead die) — each
        job runs scalar, so it gets exactly its own report or error
        text.
        """
        lead = column[0]
        evaluator = workload_evaluator(lead.accelerator.name, lead.workload)
        if evaluator is not None:
            try:
                check_kind_contract(lead.workload)
                lead.workload.materialize()
                stacked = evaluator(
                    [job.accelerator.config for job in column],
                    [job.key[2] for job in column],
                    lead.workload,
                )
            except (YieldError, MappingError, ConfigurationError):
                pass
            else:
                for i, job in enumerate(column):
                    job.report = job.accelerator._check_report(
                        stacked.materialize(i)
                    )
                return
        for job in column:
            try:
                job.report = job.accelerator.run(job.workload, ctx=job.key[2])
            except (YieldError, MappingError, ConfigurationError) as exc:
                job.error = str(exc)

    def _draw_group_physics(
        self, family: Optional[ExecutionContext], group_jobs: List[_Job]
    ) -> None:
        """Draw the distinct dies of a group into the per-die memo.

        One batched corner-physics pass per array geometry covers all
        the group's dies, where the column's evaluator (or a scalar run)
        reads them instead of repeating the draw and TED solve.
        """
        if family is None or family.pinned or not family.affects_arrays:
            return
        contexts = sorted(
            {job.key[2] for job in group_jobs}, key=lambda c: c.seed
        )
        for spec in group_jobs[0].accelerator.array_specs():
            batch_context_physics_for(spec, contexts)
            self.stats.physics_batches += 1
        self.stats.batched_dies += len(contexts)
