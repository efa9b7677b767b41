"""Shard routing and the worker wire format of the fleet tier.

The fleet front-end (:mod:`repro.serving.fleet`) spreads requests over
N worker processes.  Two rules live here:

**Routing.**  :class:`ShardRouter` maps a request to a shard with a
*stable* hash — ``hash()`` is salted per process, so routing uses the
same SHA-256 digest scheme as the report cache
(:func:`repro.core.engine.memo.fingerprint`).  The shard key is exactly
the report-cache key — platform, config fingerprint, workload name and
normalized context, built by the scheduler's own rules (the API
registry's ``auto`` routing and
:func:`~repro.serving.scheduler.build_platform`) — so a given request
type always routes to the same worker and keeps that shard's
`ReportCache` hot, and a skewed request mix spreads over many more
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

from typing import Dict, Tuple

from repro.core.base import get_workload
from repro.core.context import ExecutionContext
from repro.core.engine.memo import fingerprint
from repro.core.engine.memo import LRUMemo
from repro.errors import ConfigurationError
from repro.serving.cache import normalize_context
from repro.serving.request import ServeRequest
from repro.serving.scheduler import PLATFORM_ENTRIES, build_platform

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

    Example:
        >>> router = ShardRouter(num_shards=4)
        >>> a = router.shard_of(ServeRequest(workload="MLP-mnist"))
        >>> b = router.shard_of(ServeRequest(workload="MLP-mnist"))
        >>> a == b and 0 <= a < 4        # stable, in range
        True
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError(
                f"need >= 1 shard, got {num_shards}"
            )
        self.num_shards = num_shards
        #: (platform, batch) -> configuration fingerprint.
        self._fingerprints = LRUMemo(
            "serving.router_fingerprints", PLATFORM_ENTRIES
        )
        #: shard key -> shard index.
        self._shards = LRUMemo("serving.router_shards", SHARD_ENTRIES)

    def _config_fingerprint(self, platform: str, batch: int) -> str:
        """Memoized configuration fingerprint (the scheduler's scheme)."""
        key = (platform, batch)
        digest = self._fingerprints.get(key)
        if digest is None:
            digest = build_platform(platform, batch)[1]
            self._fingerprints.put(key, digest)
        return digest

    def shard_key(self, request: ServeRequest) -> Tuple:
        """The frozen routing key of a request (before hashing)."""
        workload = get_workload(request.workload)
        platform = request.resolve_platform(workload.kind)
        digest = self._config_fingerprint(platform, request.batch)
        return (
            platform,
            digest,
            request.workload,
            normalize_context(request.ctx),
        )

    def shard_of(self, request: ServeRequest) -> int:
        """The shard index of a request (stable across processes)."""
        key = self.shard_key(request)
        shard = self._shards.get(key)
        if shard is None:
            shard = int(fingerprint(key), 16) % self.num_shards
            self._shards.put(key, shard)
        return shard
