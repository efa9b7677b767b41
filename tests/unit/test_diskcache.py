"""Tests for the persistent on-disk physics cache."""

import json

import pytest

from repro.core.engine import clear_physics_cache
from repro.core.engine.diskcache import (
    CACHE_ENABLE_ENV,
    PHYSICS_SCHEMA_VERSION,
    PhysicsDiskCache,
    configure_disk_cache,
    disk_cache_stats,
    fingerprint,
)
from repro.errors import ConfigurationError


@pytest.fixture
def cache(tmp_path):
    return PhysicsDiskCache(tmp_path / "physics")


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


class TestPhysicsDiskCache:
    def test_miss_then_hit_roundtrips_floats_exactly(self, cache):
        key = ("spec-repr", 0.5, 256)
        payload = {"laser_pj": 0.1 + 0.2, "tuning_pj": 1e-17, "adc_pj": 3.25}
        assert cache.get("breakdown", key) is None
        cache.put("breakdown", key, payload)
        restored = cache.get("breakdown", key)
        assert restored == payload  # exact float equality via JSON repr
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1

    def test_kinds_are_namespaced(self, cache):
        cache.put("breakdown", "k", {"v": 1.0})
        assert cache.get("context-physics", "k") is None

    def test_clear_removes_entries(self, cache):
        cache.put("breakdown", "a", {"v": 1.0})
        cache.put("breakdown", "b", {"v": 2.0})
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get("breakdown", "a") is None

    def test_corrupted_entry_reads_as_miss(self, cache):
        key = ("spec", 1)
        cache.put("breakdown", key, {"v": 1.0})
        entry = next(cache.path.glob("*.json"))
        entry.write_text("{not json")
        assert cache.get("breakdown", key) is None
        assert cache.stats.errors == 1

    def test_key_mismatch_reads_as_miss(self, cache):
        """A fingerprint collision (simulated) must never serve wrong
        physics: the stored full key repr is verified."""
        key = ("spec", 1)
        cache.put("breakdown", key, {"v": 1.0})
        entry = next(cache.path.glob("*.json"))
        record = json.loads(entry.read_text())
        record["key"] = repr(("other-spec", 9))
        entry.write_text(json.dumps(record))
        assert cache.get("breakdown", key) is None

    def test_stale_schema_reads_as_miss(self, cache):
        key = ("spec", 1)
        cache.put("breakdown", key, {"v": 1.0})
        entry = next(cache.path.glob("*.json"))
        record = json.loads(entry.read_text())
        record["schema"] = PHYSICS_SCHEMA_VERSION - 1
        entry.write_text(json.dumps(record))
        assert cache.get("breakdown", key) is None


class TestConfiguration:
    def test_env_kill_switch(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        assert configure_disk_cache(tmp_path) is None
        assert disk_cache_stats()["hits"] == 0

    def test_explicit_disable(self, tmp_path):
        assert configure_disk_cache(tmp_path, enabled=False) is None

    def test_configure_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "physics"
        cache = configure_disk_cache(target)
        assert cache is not None and target.is_dir()
        configure_disk_cache(enabled=False)


class TestEndToEnd:
    def test_sweep_warm_start_is_bit_identical(self, tmp_path):
        """A second process (simulated by clearing the in-process
        memos) serves physics from disk and produces identical
        reports."""
        from repro.analysis.sweep import run_sweep, tron_sweep_space
        from repro.core.engine import active_disk_cache

        space = tron_sweep_space(
            head_units=(4,), array_sizes=(32, 64), clocks_ghz=(5.0,)
        )
        configure_disk_cache(tmp_path / "physics")
        try:
            clear_physics_cache()
            cold = run_sweep(space)
            assert active_disk_cache().stats.writes > 0
            clear_physics_cache()
            warm = run_sweep(space)
            assert active_disk_cache().stats.hits > 0
            for a, b in zip(cold, warm):
                assert a.report.latency_ns == b.report.latency_ns
                assert a.report.energy_pj == b.report.energy_pj
        finally:
            configure_disk_cache(enabled=False)
            clear_physics_cache()

    def test_context_physics_persists(self, tmp_path):
        import dataclasses

        from repro.core.context import ExecutionContext
        from repro.core.engine import context_physics
        from repro.core.engine.matmul import ArraySpec
        from repro.photonics.variation import ProcessVariationModel

        ctx = ExecutionContext(
            variation=ProcessVariationModel(), seed=11
        )
        spec = ArraySpec(rows=32, cols=32)
        configure_disk_cache(tmp_path / "physics")
        try:
            clear_physics_cache()
            first = context_physics(spec, ctx)
            clear_physics_cache()
            second = context_physics(spec, ctx)
            assert first == second  # frozen dataclass exact equality
        finally:
            configure_disk_cache(enabled=False)
            clear_physics_cache()

    def test_cache_cli_command(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.core.engine import diskcache

        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "cli"))
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "0 entries" in out
        # Populate via a sweep, then inspect and clear.
        assert main(["sweep", "tron"]) == 0
        capsys.readouterr()
        assert main(["cache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.cache/1"
        assert payload["entries"] > 0
        assert main(["cache", "--clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_sweep_json_embeds_physics_cache_stats(self, capsys):
        from repro.cli import main

        assert main(["sweep", "tron", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "physics_cache" in payload
        assert set(payload["physics_cache"]) >= {"breakdown", "context_physics", "disk"}
