"""The bounded, stats-instrumented report cache of the serving layer.

Cost reports are pure functions of the ``(workload, accelerator
configuration, execution context)`` triple — the same request always
produces the same :class:`~repro.core.reports.RunReport` — so the
serving layer memoizes them.  The cache key freezes all three
components:

- the **workload name** (registry names are canonical);
- a **configuration fingerprint** (:func:`config_fingerprint`) digesting
  the accelerator's full configuration dataclass, so two platforms that
  differ in any knob — batch, array geometry, converter energies —
  never share an entry;
- the **execution context**, normalized so that ``None`` and any
  nominal context share one entry (they are bit-identical by
  construction; see :func:`normalize_context`).

The cache is an :class:`~repro.core.engine.memo.LRUMemo` registered as
``serving.report_cache``: eviction is LRU under a hard entry bound, and
every lookup is counted, so hit rates are first-class observables
(``repro serve --stats``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.context import ExecutionContext
from repro.core.engine.memo import LRUMemo, fingerprint

#: A frozen cache key: (workload name, config fingerprint, context).
CacheKey = Tuple[str, str, Optional[ExecutionContext]]


def config_fingerprint(config: object) -> str:
    """A short stable digest of an accelerator configuration.

    Configuration dataclasses nest only other dataclasses and scalars,
    so their ``repr`` is a complete, deterministic serialization of
    every knob — hashing it distinguishes any two configurations that
    could produce different reports.  The scheme is
    :func:`repro.core.engine.memo.fingerprint`.

    Example:
        >>> from repro.core.tron import TRONConfig
        >>> a = config_fingerprint(TRONConfig())
        >>> a == config_fingerprint(TRONConfig())
        True
        >>> a == config_fingerprint(TRONConfig(batch=8))
        False
    """
    return fingerprint(config)


def normalize_context(
    ctx: Optional[ExecutionContext],
) -> Optional[ExecutionContext]:
    """The canonical cache-key form of an execution context.

    ``None`` and every nominal context cost bit-identically, so they
    normalize to ``None`` and share one cache entry; any other context
    is its own key (contexts are frozen and hashable).

    Example:
        >>> from repro.core.context import NOMINAL, resolve_corner
        >>> normalize_context(NOMINAL) is None
        True
        >>> normalize_context(resolve_corner("typical", 3)).seed
        3
    """
    if ctx is None or ctx.is_nominal:
        return None
    return ctx


class ReportCache(LRUMemo):
    """A bounded LRU cache of :class:`~repro.core.reports.RunReport`
    keyed by request triple (:data:`CacheKey`).

    Thread-safe: the serving front-end flushes micro-batches from a
    worker thread while ``submit`` calls keep arriving.

    Example:
        >>> cache = ReportCache(max_entries=2)
        >>> cache.get(("w", "cfg", None)) is None   # cold
        True
        >>> from repro.core import TRON, get_workload
        >>> report = TRON().run(get_workload("MLP-mnist"))
        >>> cache.put(("w", "cfg", None), report)
        >>> cache.get(("w", "cfg", None)) is report
        True
        >>> cache.stats.hits, cache.stats.misses
        (1, 1)
    """

    def __init__(self, max_entries: int = 1024) -> None:
        super().__init__("serving.report_cache", max_entries)
