"""The movement-cost memo: LRU-cached off-chip traffic primitives.

Serving replays and Monte-Carlo signature groups price the *same*
transfers over and over — the same weight stream for every request of a
workload, the same feature sweep for every sample of a corner.  Each
HBM(-PIM) primitive is pure arithmetic over a frozen key, so the engine
memo layer caches the resulting :class:`~repro.core.engine.memory.Traffic`
keyed on ``(memory system, geometry fingerprint, derate, pattern,
bytes)`` with the same bounded-LRU discipline (and the same hit / miss /
eviction accounting) as the device-physics memos.

The memo is consulted only on the costing path: a tracing model bypasses
it entirely, because recording the DRAM command stream is a side effect
a cache hit would silently skip.

The memo registers as ``engine.movement`` (:mod:`repro.core.engine.memo`),
so its counters surface under the ``movement`` key of
:func:`repro.core.engine.physics_cache_stats` — visible in
``repro sweep --json`` and ``repro serve --stats`` next to the
breakdown / context memo counters.

Example:
    >>> from repro.core.engine import memo
    >>> from repro.core.engine.hbm.model import HBMMemoryModel
    >>> from repro.electronics.memory import MemorySystem
    >>> memo.clear("engine.movement")
    >>> model = HBMMemoryModel(MemorySystem())
    >>> before = memo.stats("engine.movement")["engine.movement"]["hits"]
    >>> model.burst_offchip(1 << 20) == model.burst_offchip(1 << 20)
    True
    >>> memo.stats("engine.movement")["engine.movement"]["hits"] - before
    1
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.engine.memo import LRUMemo

#: Bound chosen like the breakdown memo's: a corner grid x a handful of
#: distinct transfer sizes is tiny; die sweeps churn instead of growing.
_MOVEMENT_MEMO = LRUMemo("engine.movement", 4096)


def cached_movement(key: Any, compute: Callable[[], Any]) -> Any:
    """The memoized traffic for ``key``, computing (and inserting) on miss."""
    value = _MOVEMENT_MEMO.get(key)
    if value is None:
        value = compute()
        _MOVEMENT_MEMO.put(key, value)
    return value
