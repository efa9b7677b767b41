"""Tests for the named LRU memo registry (``repro.core.engine.memo``)."""

import gc
import hashlib
import importlib
import pathlib
import re
import weakref

import pytest

from repro.core import GHOST, TRON, get_workload
from repro.core.context import resolve_corner
import repro.core.engine as engine
from repro.core.context import ExecutionContext
from repro.core.engine import (
    clear_physics_cache,
    context_physics,
    memo,
    physics_cache_stats,
)
from repro.core.engine.matmul import ArraySpec
from repro.core.engine.memo import LRUMemo, fingerprint
from repro.nn.gnn import GNNKind
from repro.photonics.variation import ProcessVariationModel
from repro.serving import ServeRequest, ServingEngine, ShardRouter
from repro.workloads import _GRAPH_MEMO, make_gnn_workload

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Every memo name constructed in ``src/``.
SRC_MEMOS = {
    "accelerator.context_clones",
    "engine.breakdown",
    "engine.context_physics",
    "engine.design_fsr",
    "engine.movement",
    "ghost.stage",
    "serving.report_cache",
    "serving.report_payloads",
    "serving.router_fingerprints",
    "serving.router_shards",
    "serving.scheduler_platforms",
    "workloads.graph",
}
#: Built only inside a fleet worker process.
WORKER_ONLY = {"serving.report_payloads"}


def _live_memos():
    return [m for members in memo._registered("").values() for m in members]


@pytest.fixture
def exercised():
    """TRON, GHOST, an engine and a router, each with warm memos."""
    tron, ghost = TRON(), GHOST()
    engine = ServingEngine()
    router = ShardRouter(num_shards=2)
    ctx = resolve_corner("typical", 1)
    tron.run(get_workload("MLP-mnist"), ctx=ctx)
    ghost.run(get_workload("GCN-cora"), ctx=ctx)
    request = ServeRequest(workload="MLP-mnist", ctx=ctx)
    engine.serve([request])
    router.shard_of(request)
    return tron, ghost, engine, router


def test_every_src_memo_is_named():
    names = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        calls = re.findall(r"\bLRUMemo\(\s*([^\s,)]*)", text)
        for argument in calls:
            assert re.fullmatch(r'"[\w.]+"', argument), (path, argument)
            names.add(argument.strip('"'))
    names.add("serving.report_cache")  # ReportCache passes it to super()
    assert names - {"doc.example"} == SRC_MEMOS


def test_every_memo_registers(exercised):
    assert SRC_MEMOS - WORKER_ONLY <= set(memo.stats())


def test_one_clear_empties_every_memo(exercised):
    assert any(len(m) for m in _live_memos())
    memo.clear()
    assert all(len(m) == 0 for m in _live_memos())


def test_clear_keeps_accounting(exercised):
    _, ghost, engine, _ = exercised
    kept = [ghost.stage_memo, engine.cache, _GRAPH_MEMO]
    before = [m.stats.to_dict() for m in kept]
    memo.clear()
    assert [m.stats.to_dict() for m in kept] == before


def test_shared_names_are_summed():
    a, b = LRUMemo("test.shared", 4), LRUMemo("test.shared", 4)
    a.put("k", 1)
    a.get("k")
    b.get("k")
    b.put("k", 2)
    b.put("j", 3)
    stats = memo.stats("test.shared")["test.shared"]
    assert (stats["hits"], stats["misses"], stats["insertions"]) == (1, 1, 3)
    assert stats["hit_rate"] == 0.5


def test_prefix_selects_names():
    kept, other = LRUMemo("test.prefix.kept", 2), LRUMemo("test.other", 2)
    kept.put("k", 1)
    other.put("k", 1)
    assert set(memo.stats("test.prefix.")) == {"test.prefix.kept"}
    memo.clear("test.prefix.")
    assert len(kept) == 0 and len(other) == 1


def test_dropped_ghost_leaves_the_registry():
    gc.collect()
    ghost = GHOST()
    ghost.run(get_workload("GCN-cora"))
    own = ghost.stage_memo.stats.insertions
    assert own > 0
    before = memo.stats("ghost.stage")["ghost.stage"]["insertions"]
    ref = weakref.ref(ghost.stage_memo)
    del ghost
    gc.collect()
    assert ref() is None
    after = memo.stats("ghost.stage").get("ghost.stage", {"insertions": 0})
    assert after["insertions"] == before - own


def test_dropped_name_disappears():
    LRUMemo("test.dropped", 2)
    gc.collect()
    assert "test.dropped" not in memo.stats()


def test_reservations_add_up_and_trim_on_exit():
    cache = LRUMemo("test.reserve", 2)
    with cache.reserve(3):
        with cache.reserve(1):
            for key in range(6):
                cache.put(key, key)
            assert len(cache) == 6
        assert len(cache) == 5 and 0 not in cache
    assert cache.max_entries == 2
    assert len(cache) == 2 and 4 in cache and 5 in cache
    assert cache.stats.evictions == 4


def test_clear_physics_cache_keeps_the_graph_memo():
    make_gnn_workload(GNNKind.GCN, "cora").materialize()
    TRON().run(get_workload("MLP-mnist"), ctx=resolve_corner("typical", 2))
    graphs = len(_GRAPH_MEMO)
    assert graphs > 0
    clear_physics_cache()
    assert len(_GRAPH_MEMO) == graphs
    assert all(
        len(m) == 0 for m in _live_memos() if m.name.startswith("engine.")
    )


def test_physics_cache_stats_keys_pinned():
    assert list(physics_cache_stats()) == [
        "breakdown",
        "context_physics",
        "design_fsr",
        "movement",
    ]


class TestFingerprint:
    def test_deterministic_and_discriminating(self):
        assert fingerprint(("a", 1)) == fingerprint(("a", 1))
        assert fingerprint(("a", 1)) != fingerprint(("a", 2))
        assert len(fingerprint("x")) == 16

    def test_serving_scheme_is_the_same(self):
        from repro.core.tron import TRONConfig
        from repro.serving.cache import config_fingerprint

        config = TRONConfig(batch=4)
        assert config_fingerprint(config) == fingerprint(config)

    def test_scheme_is_sha256_of_repr(self):
        for key in (("spec", 1), "x", 3.5, (None, (1, 2))):
            expected = hashlib.sha256(repr(key).encode("utf-8"))
            assert fingerprint(key) == expected.hexdigest()[:16]
            assert re.fullmatch(r"[0-9a-f]{16}", fingerprint(key))

    def test_equal_configs_share_a_fingerprint(self):
        from repro.core.tron import TRONConfig

        assert fingerprint(TRONConfig(batch=4)) == fingerprint(
            TRONConfig(batch=4)
        )
        assert fingerprint(TRONConfig(batch=4)) != fingerprint(
            TRONConfig(batch=8)
        )


def test_no_persistent_physics_cache():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.engine.diskcache")
    for name in (
        "configure_disk_cache",
        "active_disk_cache",
        "disk_cache_stats",
        "PhysicsDiskCache",
    ):
        assert not hasattr(engine, name)
        assert name not in engine.__all__


class TestInProcessPhysics:
    """Physics lives only in the ``engine.*`` memos: clearing them
    recomputes the same bits, and a warm memo serves the stored value."""

    def test_sweep_after_clearing_memos_is_bit_identical(self):
        from repro.analysis.sweep import run_sweep, tron_sweep_space

        space = tron_sweep_space(
            head_units=(4,), array_sizes=(32, 64), clocks_ghz=(5.0,)
        )

        def costs():
            return [
                (p.report.latency_ns, p.report.energy_pj)
                for p in run_sweep(space)
            ]

        clear_physics_cache()
        cold = costs()
        assert costs() == cold  # warm memos
        clear_physics_cache()
        assert costs() == cold  # recomputed from scratch

    def test_context_physics_recomputes_identically(self):
        ctx = ExecutionContext(variation=ProcessVariationModel(), seed=11)
        spec = ArraySpec(rows=32, cols=32)
        clear_physics_cache()
        first = context_physics(spec, ctx)
        clear_physics_cache()
        assert context_physics(spec, ctx) == first  # frozen dataclass

    def test_warm_context_physics_is_a_memo_hit(self):
        ctx = ExecutionContext(variation=ProcessVariationModel(), seed=12)
        spec = ArraySpec(rows=32, cols=32)
        clear_physics_cache()
        first = context_physics(spec, ctx)
        hits = physics_cache_stats()["context_physics"]["hits"]
        assert context_physics(spec, ctx) is first
        assert physics_cache_stats()["context_physics"]["hits"] == hits + 1
