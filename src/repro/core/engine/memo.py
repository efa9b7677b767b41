"""Bounded, stats-instrumented in-process memos and their one registry.

Every memo of expensive pure functions — device and context physics,
movement costs, synthesized graphs, context clones, GHOST stage costs,
serving reports and routes — is an :class:`LRUMemo`: lookups refresh
recency, inserts evict the least-recently-used entry past the bound,
and every hit / miss / eviction is counted.  Each memo registers by
name, so :func:`stats` and :func:`clear` reach every cache in the
process.  The registry holds memos weakly (a dropped accelerator takes
its memos with it); memos that share a name are reported summed.

Example:
    >>> memo = LRUMemo("doc.example", max_entries=2)
    >>> memo.get("a") is None
    True
    >>> memo.put("a", 1); memo.put("b", 2); memo.put("c", 3)
    >>> memo.get("a") is None   # evicted as LRU
    True
    >>> stats("doc.")["doc.example"]["evictions"]
    1
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError


@dataclass
class MemoStats:
    """Lookup accounting of one :class:`LRUMemo`.

    Attributes:
        hits / misses: lookup outcomes since construction or ``reset``.
        insertions: successful ``put`` calls.
        evictions: entries dropped to enforce the bound.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __add__(self, other: "MemoStats") -> "MemoStats":
        return MemoStats(*map(sum, zip(astuple(self), astuple(other))))

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable form."""
        return {**asdict(self), "hit_rate": self.hit_rate}


#: Sentinel for "no entry" (``None`` can be a memoized value).
_MISSING = object()
#: name -> the live memos registered under it (weakly held).
_REGISTRY: Dict[str, "weakref.WeakSet[LRUMemo]"] = {}
_REGISTRY_LOCK = threading.Lock()


class LRUMemo:
    """A named, bounded LRU mapping with hit/miss/eviction accounting.

    Thread-safe: concurrent callers (threads sharing one serving
    engine, say) share the module-level memos.
    """

    def __init__(self, name: str, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"memo {name!r} needs >= 1 entry, got {max_entries}"
            )
        self.name = name
        self.max_entries = max_entries
        self.stats = MemoStats()
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        with _REGISTRY_LOCK:
            _REGISTRY.setdefault(name, weakref.WeakSet()).add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        """Membership probe; does not count as a lookup or touch LRU."""
        return key in self._entries

    def get(self, key: Any, default: Optional[Any] = None) -> Optional[Any]:
        """The memoized value for ``key`` (counted, recency-refreshing)."""
        # Keys can be costly to hash (nested configs), so a hit hashes
        # the key twice and a miss once.
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU past the bound."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stats.insertions += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    @contextmanager
    def reserve(self, entries: int) -> Iterator[None]:
        """Grow the bound by ``entries`` inside the block, so a working
        set that large stays resident (concurrent reservations add up);
        on exit the bound shrinks back, evicting the LRU excess.

        Example:
            >>> memo = LRUMemo("doc.example", max_entries=1)
            >>> with memo.reserve(1):
            ...     memo.put("a", 1); memo.put("b", 2); print(len(memo))
            2
            >>> len(memo), memo.get("b")
            (1, 2)
        """
        with self._lock:
            self.max_entries += entries
        try:
            yield
        finally:
            with self._lock:
                self.max_entries -= entries
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (lookup accounting is kept)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the lookup accounting."""
        with self._lock:
            self.stats = MemoStats()


def fingerprint(key: object) -> str:
    """A short stable digest of any repr-deterministic key.

    The exact scheme of :func:`repro.serving.cache.config_fingerprint`
    (which delegates here): SHA-256 over ``repr`` and keep 16 hex
    chars.  Frozen dataclasses, tuples and scalars all qualify.

    Example:
        >>> fingerprint(("spec", 1)) == fingerprint(("spec", 1))
        True
        >>> fingerprint(("spec", 1)) == fingerprint(("spec", 2))
        False
    """
    import hashlib

    digest = hashlib.sha256(repr(key).encode("utf-8"))
    return digest.hexdigest()[:16]


def _registered(prefix: str) -> Dict[str, List[LRUMemo]]:
    """name -> live memos, for every name starting with ``prefix``."""
    with _REGISTRY_LOCK:
        found = {
            name: list(members)
            for name, members in sorted(_REGISTRY.items())
            if name.startswith(prefix)
        }
    return {name: members for name, members in found.items() if members}


def stats(prefix: str = "") -> Dict[str, Dict[str, float]]:
    """``{name: MemoStats.to_dict()}`` of every live memo under ``prefix``
    (sorted by name; memos that share a name are summed)."""
    return {
        name: sum((memo.stats for memo in members), MemoStats()).to_dict()
        for name, members in _registered(prefix).items()
    }


def clear(prefix: str = "") -> None:
    """Drop the entries of every live memo under ``prefix`` (accounting
    is kept, as in :meth:`LRUMemo.clear`)."""
    for members in _registered(prefix).values():
        for memo in members:
            memo.clear()
