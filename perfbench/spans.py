"""Outside-in layer tracing: spans recorded around calls into ``repro``.

The benchmark times layers without changing the program.  It replaces
public functions and methods with wrappers that record a span — name,
start, end and parent — into an in-memory list.  Callers bind most of
these functions with ``from ... import``, so :func:`wrap_function`
rebinds every ``repro`` module attribute that holds the original, and
:func:`wrap_method` replaces the attribute on the class.

Parent stacks are per thread (the serving scheduler evaluates groups on
pool threads).  Spans stay in memory; :func:`summarize` turns them into
per-layer call counts, busy time (the union of a layer's outermost
spans) and self time (duration minus the time child spans cover).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()

        return wrapper


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute holding ``original`` at
    ``replacement``."""
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def wrap_function(recorder: Recorder, module: str, attr: str, name: str) -> None:
    """Replace every ``repro`` binding of ``module.attr`` with a traced
    wrapper."""
    original = getattr(sys.modules[module], attr)
    _rebind(original, recorder.traced(name, original))


def wrap_method(recorder: Recorder, cls: type, attr: str, name: str) -> None:
    """Replace ``cls.attr`` (own or inherited) with a traced wrapper."""
    setattr(cls, attr, recorder.traced(name, getattr(cls, attr)))


def wrap_returned(recorder: Recorder, module: str, attr: str, name: str) -> None:
    """Trace the callables a factory function returns (one wrapper per
    returned object, so registries keep seeing stable identities)."""
    factory = getattr(sys.modules[module], attr)
    wrapped: Dict[int, Tuple[Callable, Callable]] = {}

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        result = factory(*args, **kwargs)
        if result is None:
            return None
        hit = wrapped.get(id(result))
        if hit is None or hit[0] is not result:
            hit = wrapped[id(result)] = (result, recorder.traced(name, result))
        return hit[1]

    _rebind(factory, traced_factory)


def summarize(spans) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``, ``busy_ms`` and ``self_ms`` of ``spans``.

    ``calls`` and ``busy_ms`` count only a layer's outermost spans (a
    layer calling itself is one call, busy once); ``self_ms`` is every
    span's duration minus the time its direct children cover.
    """
    names = [s[0] for s in spans]
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    out: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        layer = out.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
        layer["self_ms"] += (end - start - child_time[index]) * 1e3
        ancestor = parent
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            layer["calls"] += 1
            layer["busy_ms"] += (end - start) * 1e3
    return out


def merge(total: Dict[str, Dict[str, float]], part: Dict[str, Dict[str, float]]) -> None:
    """Add one summary into another in place."""
    for name, fields in part.items():
        into = total.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
        for key, value in fields.items():
            into[key] += value


def install_library_layers(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark names.

    Imports each layer first, so later ``from ... import`` statements
    inside function bodies see the wrappers too.
    """
    import repro.analysis.robustness  # noqa: F401
    import repro.analysis.sweep  # noqa: F401
    import repro.api  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.core.engine.corners  # noqa: F401
    import repro.core.engine.soa  # noqa: F401
    import repro.core.ghost.soa  # noqa: F401
    import repro.core.tron.soa  # noqa: F401
    import repro.graphs.datasets  # noqa: F401
    import repro.nn.counting  # noqa: F401
    import repro.photonics.microring  # noqa: F401
    import repro.photonics.mrbank  # noqa: F401
    import repro.serving.fleet  # noqa: F401
    import repro.serving.scheduler  # noqa: F401
    import repro.workloads  # noqa: F401
    from repro.api.results import RunResult
    from repro.api.session import Session
    from repro.core.engine.hbm.model import HBMMemoryModel
    from repro.core.ghost.accelerator import GHOST
    from repro.core.tron.accelerator import TRON
    from repro.serving.fleet import ServingFleet

    for module, attr, name in (
        ("repro.graphs.datasets", "synthesize_dataset", "graphs.synthesize"),
        ("repro.nn.counting", "transformer_op_count", "nn.op_count"),
        ("repro.nn.counting", "gnn_op_count", "nn.op_count"),
        ("repro.core.engine.corners", "context_physics", "engine.context_physics"),
        ("repro.core.engine.corners", "batch_context_physics", "engine.context_physics"),
        ("repro.core.engine.corners", "batch_context_physics_for", "engine.context_physics"),
        ("repro.photonics.mrbank", "cycle_energy_breakdown_kernel", "photonics"),
        ("repro.photonics.mrbank", "tile_cycles", "photonics"),
        ("repro.photonics.microring", "design_working_point", "photonics"),
        ("repro.analysis.sweep", "run_sweep_with_stats", "analysis.sweep"),
        ("repro.analysis.sweep", "pareto_frontier", "analysis.pareto"),
        ("repro.analysis.robustness", "run_monte_carlo", "analysis.monte_carlo"),
    ):
        wrap_function(recorder, module, attr, name)
    wrap_returned(recorder, "repro.core.engine.soa", "soa_evaluator", "engine.soa")
    wrap_method(recorder, TRON, "run", "tron.run")
    wrap_method(recorder, GHOST, "run", "ghost.run")
    wrap_method(recorder, TRON, "decode_series", "streaming.decode")
    for attr in (
        "stream_offchip", "burst_offchip", "store_offchip", "random_offchip",
        "stream_offchip_batch", "burst_offchip_batch", "store_offchip_batch",
        "random_offchip_batch", "pim_reduce_cost",
    ):
        wrap_method(recorder, HBMMemoryModel, attr, "engine.hbm")
    for attr in ("run", "sweep", "monte_carlo", "serve", "claims"):
        wrap_method(recorder, Session, attr, "api.session")
    wrap_method(recorder, RunResult, "envelope", "api.envelope")
    wrap_method(recorder, ServingFleet, "submit", "serving.submit")
