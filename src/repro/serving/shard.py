"""Shard routing and the worker wire format of the fleet tier.

The fleet front-end (:mod:`repro.serving.fleet`) spreads requests over
N worker processes.  Two rules live here:

**Routing.**  :class:`ShardRouter` maps a request to a shard with a
*stable* hash — ``hash()`` is salted per process, so routing uses the
same SHA-256 digest scheme as the report cache
(:func:`repro.core.engine.memo.fingerprint`).  Two granularities:

- ``"config"`` — the shard key is ``(platform, config fingerprint)``,
  the ISSUE's minimal scheme: every request for one accelerator
  configuration lands on one worker, so that worker's *physics memos*
  (keyed by array geometry + context) stay maximally hot.
- ``"type"`` (default) — the key additionally folds in the workload
  name and normalized context, i.e. exactly the report-cache key.  Any
  deterministic function of the request keeps each shard's
  `ReportCache` hot (a given request type always routes to the same
  worker); the finer key also spreads a skewed catalog over many more
  workers than there are distinct configurations.

**Wire format.**  Workers are separate processes fed entirely by
*documents*: :func:`request_to_wire` serializes a
:class:`~repro.serving.request.ServeRequest` into a plain dict (the
execution context through its exact
:meth:`~repro.core.context.ExecutionContext.to_dict` round-trip), and
:func:`wire_to_request` rebuilds it bit-identically on the worker side.
The same codec accepts flat ``repro.trace/1`` records and run-kind
``repro.spec/1`` documents, so a trace file can stream to workers
without ever constructing parent-side request objects.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.core.base import get_workload
from repro.core.context import ExecutionContext
from repro.core.engine.memo import fingerprint
from repro.core.engine.memo import LRUMemo
from repro.errors import ConfigurationError
from repro.serving.cache import normalize_context
from repro.serving.request import ServeRequest
from repro.serving.scheduler import (
    PLATFORM_ENTRIES,
    PlatformCatalog,
    build_platform,
    default_platform_catalog,
)

#: The supported shard-key granularities.
GRANULARITIES = ("type", "config")
#: Shard assignments a router memoizes.  Keys carry request fields (die
#: seeds), so the memo is bounded; an evicted key hashes to the same
#: shard again.
SHARD_ENTRIES = 1024


def request_to_wire(request: ServeRequest) -> Dict:
    """The plain-dict wire form of a request (exact round-trip).

    Example:
        >>> from repro.core.context import resolve_corner
        >>> request = ServeRequest(workload="BERT-base", batch=8,
        ...                        ctx=resolve_corner("typical", 3))
        >>> wire_to_request(request_to_wire(request)) == request
        True
    """
    return {
        "workload": request.workload,
        "platform": request.platform,
        "batch": request.batch,
        "context": request.ctx.to_dict() if request.ctx else None,
    }


def wire_to_request(record: Dict) -> ServeRequest:
    """Rebuild a :class:`ServeRequest` from any wire document.

    Accepts the fleet wire form (``context`` as a serialized
    :class:`ExecutionContext`), a flat ``repro.trace/1`` record
    (``corner``/``seed``), or an embedded run-kind ``repro.spec/1``
    document — everything a trace file or a fleet queue may carry.

    Example:
        >>> wire_to_request({"workload": "GCN-cora"}).platform
        'auto'
        >>> wire_to_request({"workload": "BERT-base", "platform": "tron",
        ...                  "batch": 8, "context": None}).batch
        8
    """
    if "context" in record:
        ctx = record["context"]
        return ServeRequest(
            workload=record["workload"],
            platform=record.get("platform", "auto"),
            ctx=ExecutionContext.from_dict(ctx) if ctx is not None else None,
            batch=int(record.get("batch", 1)),
        )
    from repro.serving.trace import record_to_request

    return record_to_request(record)


class ShardRouter:
    """Deterministic request → shard assignment for ``num_shards``.

    Args:
        num_shards: worker count to spread over.
        granularity: ``"type"`` (report-cache key; default) or
            ``"config"`` (``(platform, config fingerprint)`` only) —
            see the module docstring for the trade-off.
        catalog: platform name → accelerator factory (the scheduler's
            catalog), used to fingerprint configurations.

    Example:
        >>> router = ShardRouter(num_shards=4)
        >>> a = router.shard_of(ServeRequest(workload="MLP-mnist"))
        >>> b = router.shard_of(ServeRequest(workload="MLP-mnist"))
        >>> a == b and 0 <= a < 4        # stable, in range
        True
        >>> ShardRouter(num_shards=1, granularity="frequency")
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: unknown shard granularity 'frequency'; pick one of ('type', 'config')
    """

    def __init__(
        self,
        num_shards: int,
        granularity: str = "type",
        catalog: Optional[PlatformCatalog] = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError(
                f"need >= 1 shard, got {num_shards}"
            )
        if granularity not in GRANULARITIES:
            raise ConfigurationError(
                f"unknown shard granularity {granularity!r}; "
                f"pick one of {GRANULARITIES}"
            )
        self.num_shards = num_shards
        self.granularity = granularity
        self.catalog = (
            default_platform_catalog() if catalog is None else catalog
        )
        self.requests_per_shard: List[int] = [0] * num_shards
        #: (platform, batch) -> configuration fingerprint.
        self._fingerprints = LRUMemo(
            "serving.router_fingerprints", PLATFORM_ENTRIES
        )
        #: shard key -> shard index.
        self._shards = LRUMemo("serving.router_shards", SHARD_ENTRIES)
        self._lock = threading.Lock()

    def _config_fingerprint(self, platform: str, batch: int) -> str:
        """Memoized configuration fingerprint (the scheduler's scheme)."""
        key = (platform, batch)
        digest = self._fingerprints.get(key)
        if digest is None:
            digest = build_platform(self.catalog, platform, batch)[1]
            self._fingerprints.put(key, digest)
        return digest

    def shard_key(self, request: ServeRequest) -> Tuple:
        """The frozen routing key of a request (before hashing)."""
        workload = get_workload(request.workload)
        platform = request.resolve_platform(workload.kind)
        digest = self._config_fingerprint(platform, request.batch)
        if self.granularity == "config":
            return (platform, digest)
        return (
            platform,
            digest,
            request.workload,
            normalize_context(request.ctx),
        )

    def shard_of(self, request: ServeRequest, count: bool = False) -> int:
        """The shard index of a request (stable across processes).

        ``count=True`` additionally records the assignment in
        :attr:`requests_per_shard` — the router's load-spread
        observability.
        """
        key = self.shard_key(request)
        shard = self._shards.get(key)
        if shard is None:
            shard = int(fingerprint(key), 16) % self.num_shards
            self._shards.put(key, shard)
        if count:
            self.count_assignment(shard)
        return shard

    def count_assignment(self, shard: int) -> None:
        """Record one routed request in :attr:`requests_per_shard`."""
        with self._lock:
            self.requests_per_shard[shard] += 1
