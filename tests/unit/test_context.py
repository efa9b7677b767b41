"""Tests for the ExecutionContext threading through the run path."""

import dataclasses
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import (
    ExecutionContext,
    GHOST,
    PinnedArrayPhysics,
    ThermalCorner,
    TRON,
    get_workload,
    standard_corners,
)
from repro.core.base import MAX_CONTEXT_CLONES
from repro.core.engine import (
    ArrayExecutor,
    ArraySpec,
    batch_context_physics,
    batch_context_physics_for,
    clear_physics_cache,
    context_physics,
)
from repro.core.engine import corners
from repro.core.engine.corners import _PHYSICS_CACHE, _evaluate_batch
from repro.errors import ConfigurationError, YieldError
from repro.photonics.microring import MicroringDesign
from repro.photonics.thermal import ThermalGrid
from repro.photonics.variation import ProcessVariationModel

VARIED = ExecutionContext(variation=ProcessVariationModel(), seed=3)


class TestExecutionContext:
    def test_hashable_and_frozen(self):
        ctx = ExecutionContext()
        assert hash(ctx) == hash(ExecutionContext())
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.seed = 1

    def test_noise_excluded_from_equality(self):
        from repro.photonics.noise import AnalogNoiseModel

        assert ExecutionContext(noise=AnalogNoiseModel()) == ExecutionContext()

    def test_nominal_flags(self):
        assert ExecutionContext().is_nominal
        assert not VARIED.is_nominal
        assert VARIED.affects_arrays
        assert not VARIED.affects_memory
        hot = ExecutionContext(
            thermal=ThermalCorner(name="hot", ambient_delta_k=25.0)
        )
        assert hot.affects_arrays and not hot.affects_memory
        derated = ExecutionContext(
            thermal=ThermalCorner(name="derated", hbm_derate=0.8)
        )
        assert derated.affects_memory and not derated.affects_arrays

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionContext(seed=-1)
        with pytest.raises(ConfigurationError):
            ExecutionContext(tuner_range_nm=0.0)
        with pytest.raises(ConfigurationError):
            ThermalCorner(drift_nm_per_k=0.0)
        with pytest.raises(ConfigurationError):
            ThermalCorner(hbm_derate=1.5)
        with pytest.raises(ConfigurationError):
            PinnedArrayPhysics(-1, 4, 0.0)

    def test_for_sample_is_deterministic_and_distinct(self):
        assert VARIED.for_sample(0) == VARIED.for_sample(0)
        assert VARIED.for_sample(0) != VARIED.for_sample(1)
        assert VARIED.for_sample(0) != VARIED
        with pytest.raises(ConfigurationError):
            VARIED.for_sample(-1)

    def test_pinned_lookup(self):
        pinned = VARIED.with_pinned({(64, 64): PinnedArrayPhysics(60, 64, 5.0)})
        assert pinned.pinned_for(64, 64).usable_rows == 60
        assert pinned.pinned_for(32, 32) is None
        assert pinned.variation is None  # pinned replaces sampling

    def test_standard_corners_cover_grid(self):
        corners = standard_corners()
        assert set(corners) == {"nominal", "typical", "slow-hot", "fast-cold"}
        assert corners["nominal"].is_nominal
        assert corners["typical"].variation is not None
        assert corners["slow-hot"].thermal.hbm_derate < 1.0


class TestNominalIdentity:
    """The acceptance bar: no context == nominal context == pre-refactor."""

    # Exact values captured on the pre-refactor nominal path.
    GOLDEN = {
        "BERT-base": (774835.2, 10281700887.552002),
        "GCN-cora": (9281.9390625, 173330078.57756248),
        "MLP-mnist": (4655.278125, 25282826.438125),
        "LLM-serving-mix": (1914952.8078124998, 21106301247.251812),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_bit_identical_to_pre_refactor(self, name):
        latency, energy = self.GOLDEN[name]
        accelerator = GHOST() if name == "GCN-cora" else TRON()
        report = accelerator.run(get_workload(name))
        assert report.latency_ns == latency
        assert report.energy_pj == energy
        nominal = accelerator.run(get_workload(name), ctx=ExecutionContext())
        assert nominal.latency_ns == latency
        assert nominal.energy_pj == energy


class TestContextEffects:
    def test_variation_adds_tuning_energy(self):
        workload = get_workload("MLP-mnist")
        nominal = TRON().run(workload)
        varied = TRON().run(workload, ctx=VARIED)
        assert varied.energy.tuning_pj > nominal.energy.tuning_pj
        assert varied.latency_ns == nominal.latency_ns  # full yield

    def test_different_seeds_are_different_dies(self):
        workload = get_workload("MLP-mnist")
        a = TRON().run(workload, ctx=VARIED)
        b = TRON().run(workload, ctx=dataclasses.replace(VARIED, seed=4))
        assert a.energy_pj != b.energy_pj

    def test_corner_cache_isolation(self):
        """Corner A's physics never pollutes corner B or nominal."""
        workload = get_workload("MLP-mnist")
        fresh_nominal = TRON().run(workload)
        tron = TRON()
        varied = tron.run(workload, ctx=VARIED)
        nominal_after = tron.run(workload)
        assert nominal_after.energy_pj == fresh_nominal.energy_pj
        varied_again = tron.run(workload, ctx=VARIED)
        assert varied_again.energy_pj == varied.energy_pj

    def test_ted_beats_naive_control(self):
        spec = ArraySpec(rows=32, cols=32)
        ted = context_physics(spec, VARIED)
        naive = context_physics(
            spec, dataclasses.replace(VARIED, use_ted=False)
        )
        assert 0.0 < ted.correction_power_mw < naive.correction_power_mw

    def test_thermal_corner_alone_costs_power(self):
        hot = ExecutionContext(
            thermal=ThermalCorner(name="hot", ambient_delta_k=25.0)
        )
        physics = context_physics(ArraySpec(rows=16, cols=16), hot)
        assert physics.correction_power_mw > 0.0
        assert physics.ring_yield == 1.0

    def test_hbm_derate_stretches_latency(self):
        workload = get_workload("BERT-base")
        nominal = TRON().run(workload)
        derated = TRON().run(
            workload,
            ctx=ExecutionContext(
                thermal=ThermalCorner(name="derated", hbm_derate=0.5)
            ),
        )
        assert derated.latency_ns > nominal.latency_ns
        assert derated.latency.memory_ns > nominal.latency.memory_ns

    def test_ghost_context_threads_through(self):
        workload = get_workload("GCN-cora")
        nominal = GHOST().run(workload)
        varied = GHOST().run(workload, ctx=VARIED)
        assert varied.energy.tuning_pj > nominal.energy.tuning_pj

    def test_baselines_ignore_contexts(self):
        from repro.baselines.platforms import RooflinePlatform

        platform = RooflinePlatform(
            platform_name="cpu",
            peak_gops=1000.0,
            memory_bandwidth_gbps=100.0,
            tdp_w=100.0,
        )
        workload = get_workload("MLP-mnist")
        assert (
            platform.run(workload, ctx=VARIED).energy_pj
            == platform.run(workload).energy_pj
        )


class TestYieldGating:
    def test_gated_executor_needs_more_cycles(self):
        spec = ArraySpec(rows=64, cols=64)
        nominal = ArrayExecutor(spec=spec)
        pinned = ExecutionContext().with_pinned(
            {(64, 64): PinnedArrayPhysics(40, 64, 0.0)}
        )
        gated = ArrayExecutor(spec=spec, ctx=pinned)
        assert gated.usable_rows == 40
        assert gated.macs_per_cycle < nominal.macs_per_cycle
        assert gated.cycles_for(128, 128) > nominal.cycles_for(128, 128)

    def test_dead_die_raises_yield_error(self):
        dead = ExecutionContext().with_pinned(
            {(64, 64): PinnedArrayPhysics(0, 64, 0.0)}
        )
        executor = ArrayExecutor(spec=ArraySpec(rows=64, cols=64), ctx=dead)
        with pytest.raises(YieldError):
            executor.cycles_for(64, 64)

    def test_dead_die_fails_whole_run(self):
        ctx = dataclasses.replace(VARIED, tuner_range_nm=1e-6)
        with pytest.raises(YieldError):
            TRON().run(get_workload("MLP-mnist"), ctx=ctx)

    def test_tight_tuner_range_gates_rows(self):
        ctx = dataclasses.replace(VARIED, seed=5, tuner_range_nm=6.0)
        physics = context_physics(ArraySpec(rows=64, cols=64), ctx)
        assert physics.usable_rows < 64
        assert physics.ring_yield < 1.0
        assert physics.functional

    def test_per_die_loop_bounds_all_caches(self):
        """Sweeping many dies on one instance must not grow the clone
        cache or the engine's physics caches without bound."""
        from repro.core.engine.corners import _PHYSICS_CACHE
        from repro.core.engine.matmul import _BREAKDOWN_CACHE

        workload = get_workload("MLP-mnist")
        tron = TRON()
        evictions_before = _PHYSICS_CACHE.stats.evictions
        dies = _PHYSICS_CACHE.max_entries + 20
        assert dies > MAX_CONTEXT_CLONES
        for i in range(dies):
            tron.run(workload, ctx=dataclasses.replace(VARIED, seed=20 + i))
        assert len(tron._context_clones) <= MAX_CONTEXT_CLONES
        assert len(_BREAKDOWN_CACHE) <= _BREAKDOWN_CACHE.max_entries
        assert len(_PHYSICS_CACHE) <= _PHYSICS_CACHE.max_entries
        # The LRU discipline is observable: the overflow evicted entries.
        assert _PHYSICS_CACHE.stats.evictions > evictions_before

    def test_die_rotation_builds_each_clone_once(self):
        """Two passes of a 12-die rotation (3 corners x 4 seeds, the
        serving traffic) reuse every context clone: hits refresh the
        LRU, so no hot clone is evicted and rebuilt."""
        corners_ = standard_corners()
        dies = [
            dataclasses.replace(corners_[name], seed=seed)
            for name in ("typical", "slow-hot", "fast-cold")
            for seed in range(4)
        ]
        for accelerator, workload in (
            (TRON(), get_workload("MLP-mnist")),
            (GHOST(), get_workload("GCN-cora")),
        ):
            first = [accelerator.bind(ctx) for ctx in dies]
            for ctx in dies:
                accelerator.run(workload, ctx=ctx)
            second = [accelerator.bind(ctx) for ctx in dies]
            assert all(a is b for a, b in zip(first, second))
            assert accelerator._context_clones.stats.insertions == len(dies)

    def test_clone_cache_evicts_least_recent(self):
        tron = TRON()
        dies = [
            dataclasses.replace(VARIED, seed=1000 + i)
            for i in range(MAX_CONTEXT_CLONES + 1)
        ]
        oldest = tron.bind(dies[0])
        for ctx in dies[1:MAX_CONTEXT_CLONES]:
            tron.bind(ctx)
        assert tron.bind(dies[0]) is oldest  # refreshed, now most recent
        tron.bind(dies[-1])
        assert len(tron._context_clones) == MAX_CONTEXT_CLONES
        assert tron.bind(dies[0]) is oldest
        assert dies[1] not in tron._context_clones

    def test_correction_power_scales_breakdown(self):
        spec = ArraySpec(rows=16, cols=16)
        base = ArrayExecutor(spec=spec).energy_breakdown_pj()
        pinned = ExecutionContext().with_pinned(
            {(16, 16): PinnedArrayPhysics(16, 16, 100.0)}
        )
        boosted = ArrayExecutor(spec=spec, ctx=pinned).energy_breakdown_pj()
        extra = boosted["tuning_pj"] - base["tuning_pj"]
        assert extra == pytest.approx(100.0 * (1.0 / spec.clock_ghz))
        assert boosted["laser_pj"] == base["laser_pj"]

class TestBatchedPhysicsScratch:
    @staticmethod
    def power(spec, seed, samples):
        # The unmemoized evaluator: memo hits would never touch scratch.
        ctx = dataclasses.replace(VARIED, seed=seed)
        dies = [ctx.for_sample(i) for i in range(samples)]
        return _evaluate_batch(spec, dies).correction_power_mw

    def test_reuse_across_shapes_and_threads(self):
        """Scratch buffers are per thread and resized per call: mixed
        shapes on concurrent threads match the same calls run alone."""
        jobs = [
            (ArraySpec(rows=rows, cols=cols), seed, samples)
            for seed in range(4)
            for rows, cols, samples in ((32, 32, 64), (16, 48, 8), (48, 16, 32))
        ]
        expected = [self.power(*job).copy() for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(self.power, *job) for job in jobs * 3]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected * 3):
            np.testing.assert_array_equal(got, want)


class TestPerDieMemo:
    """Both batched entry points serve each die from the per-die memo."""

    SPEC = ArraySpec(rows=32, cols=32)

    @staticmethod
    def dies(seeds=range(8), base=VARIED):
        return [dataclasses.replace(base, seed=seed) for seed in seeds]

    @staticmethod
    def arrays(physics):
        return {
            field.name: getattr(physics, field.name)
            for field in dataclasses.fields(physics)
        }

    @pytest.fixture
    def drawn(self, monkeypatch):
        """Count the dies every ``_evaluate_batch`` pass draws."""
        clear_physics_cache()
        counts = []
        evaluate = corners._evaluate_batch

        def counting(spec, contexts):
            contexts = list(contexts)
            counts.append(len(contexts))
            return evaluate(spec, contexts)

        monkeypatch.setattr(corners, "_evaluate_batch", counting)
        return counts

    def test_repeat_counts_one_hit_per_die(self, drawn):
        first = batch_context_physics_for(self.SPEC, self.dies())
        hits = _PHYSICS_CACHE.stats.hits
        again = batch_context_physics_for(self.SPEC, tuple(self.dies()))
        assert _PHYSICS_CACHE.stats.hits == hits + 8
        assert drawn == [8]
        for name, array in self.arrays(first).items():
            assert array.tobytes() == getattr(again, name).tobytes(), name

    def test_results_are_private_copies(self):
        first = batch_context_physics_for(self.SPEC, self.dies())
        want = first.correction_power_mw.copy()
        first.correction_power_mw[:] = -1.0
        again = batch_context_physics_for(self.SPEC, self.dies())
        np.testing.assert_array_equal(again.correction_power_mw, want)

    def test_clear_physics_cache_empties_memo(self, drawn):
        batch_context_physics_for(self.SPEC, self.dies())
        assert len(_PHYSICS_CACHE) >= 8
        clear_physics_cache()
        assert len(_PHYSICS_CACHE) == 0
        misses = _PHYSICS_CACHE.stats.misses
        batch_context_physics_for(self.SPEC, self.dies())
        assert _PHYSICS_CACHE.stats.misses == misses + 8
        assert drawn == [8, 8]

    def test_bound_evicts_least_recent_die(self, drawn):
        bound = _PHYSICS_CACHE.max_entries
        evictions = _PHYSICS_CACHE.stats.evictions
        batch_context_physics_for(self.SPEC, self.dies(range(bound + 1)))
        assert len(_PHYSICS_CACHE) == bound
        assert _PHYSICS_CACHE.stats.evictions == evictions + 1
        batch_context_physics_for(self.SPEC, self.dies([1]))
        batch_context_physics_for(self.SPEC, self.dies([0]))
        assert drawn == [bound + 1, 1]

    @pytest.mark.parametrize(
        "spec, seeds, base, unseen",
        [
            (
                ArraySpec(rows=32, cols=32, design=MicroringDesign(radius_um=7.0)),
                range(8),
                VARIED,
                8,
            ),
            (ArraySpec(rows=32, cols=16), range(8), VARIED, 8),
            (SPEC, range(1, 9), VARIED, 1),
            (SPEC, range(7, -1, -1), VARIED, 0),
            (SPEC, range(7), VARIED, 0),
            (
                SPEC,
                range(8),
                dataclasses.replace(VARIED, thermal=ThermalCorner("hot", 30.0)),
                8,
            ),
            (SPEC, range(8), dataclasses.replace(VARIED, use_ted=False), 8),
        ],
        ids=["design", "geometry", "seeds", "order", "subset", "corner", "ted"],
    )
    def test_only_unseen_dies_are_drawn(self, drawn, spec, seeds, base, unseen):
        batch_context_physics_for(self.SPEC, self.dies())
        other = batch_context_physics_for(spec, self.dies(seeds, base))
        assert sum(drawn) == 8 + unseen
        fresh = _evaluate_batch(spec, self.dies(seeds, base))
        for name, array in self.arrays(other).items():
            assert array.tobytes() == getattr(fresh, name).tobytes(), name

    def test_results_survive_scratch_reuse(self):
        physics = batch_context_physics_for(self.SPEC, self.dies())
        snapshot = {k: v.copy() for k, v in self.arrays(physics).items()}
        # Same shape (reuses the scratch views) and larger (regrows them).
        batch_context_physics_for(self.SPEC, self.dies(range(50, 58)))
        _evaluate_batch(ArraySpec(rows=64, cols=64), self.dies(range(64)))
        fresh = _evaluate_batch(self.SPEC, self.dies())
        for name, array in self.arrays(physics).items():
            np.testing.assert_array_equal(array, snapshot[name])
            np.testing.assert_array_equal(array, getattr(fresh, name))

    @pytest.mark.parametrize("scalar_first", [False, True])
    def test_entries_equal_scalar_bit_for_bit(self, scalar_first):
        clear_physics_cache()
        spec = ArraySpec(rows=64, cols=64)
        dies = self.dies(range(20, 52), base=dataclasses.replace(
            VARIED, tuner_range_nm=6.0
        ))
        if scalar_first:
            scalar = [context_physics(spec, ctx) for ctx in dies]
        batch = batch_context_physics_for(spec, dies)
        if not scalar_first:
            scalar = [context_physics(spec, ctx) for ctx in dies]
        assert [batch.sample(i) for i in range(len(dies))] == scalar
        # The tight tuner gates some dies, so the check covers yield too.
        assert len({p.usable_rows for p in scalar}) > 1


class TestPerDiePhysics:
    """A die's physics does not depend on the batch that draws it.

    Every die draws from its own seeded generator and the TED solve is
    an element-wise stencil, so per-die assembly and a whole-list pass
    agree bit for bit at every array size, whatever BLAS kernel NumPy's
    OpenBLAS would pick for the CPU.
    """

    SPEC = ArraySpec(rows=64, cols=64)

    @staticmethod
    def dies(seeds, base=VARIED):
        return [dataclasses.replace(base, seed=seed) for seed in seeds]

    drawn = TestPerDieMemo.drawn

    def test_overlapping_lists_draw_unseen_dies_only(self, drawn):
        lists = [self.dies([0, 1]), self.dies([1, 2]), self.dies(range(4))]
        results = [batch_context_physics_for(self.SPEC, dies) for dies in lists]
        assert sum(drawn) == 4  # a whole-list memo alone draws 8
        for dies, physics in zip(lists, results):
            fresh = _evaluate_batch(self.SPEC, dies)
            for field in dataclasses.fields(physics):
                got = getattr(physics, field.name)
                want = getattr(fresh, field.name)
                assert got.dtype == want.dtype, field.name
                assert got.tobytes() == want.tobytes(), field.name

    def test_memo_hits_are_still_validated(self, drawn):
        batch_context_physics_for(self.SPEC, self.dies([0, 1]))
        hot = dataclasses.replace(VARIED, thermal=ThermalCorner("hot", 30.0))
        batch_context_physics_for(self.SPEC, self.dies([0], base=hot))
        pinned = VARIED.with_pinned(
            {(64, 64): PinnedArrayPhysics(64, 64, 1.0)}
        )
        for dies in (
            self.dies([0, 1]) + [pinned],
            self.dies([1, 0]) + [None],
            self.dies([0]) + self.dies([0], base=hot),
        ):
            with pytest.raises(ConfigurationError):
                batch_context_physics_for(self.SPEC, dies)
        assert sum(drawn) == 3

    def test_monte_carlo_reuses_per_die_memo(self, drawn):
        first = batch_context_physics(self.SPEC, VARIED, 16)
        assert len(_PHYSICS_CACHE) == 16
        again = batch_context_physics(self.SPEC, VARIED, 16)
        listed = batch_context_physics_for(
            self.SPEC, [VARIED.for_sample(i) for i in range(16)]
        )
        assert context_physics(self.SPEC, VARIED.for_sample(3)) == first.sample(3)
        assert drawn == [16]
        for field in dataclasses.fields(first):
            want = getattr(first, field.name).tobytes()
            assert getattr(again, field.name).tobytes() == want, field.name
            assert getattr(listed, field.name).tobytes() == want, field.name

    @pytest.mark.parametrize("cols", [1, 2, 3, 64, 128])
    def test_stencil_matches_float64_inverse(self, cols):
        """The float32 stencil solve agrees with ``K^-1 T`` in float64
        to float32 precision (negative powers clipped in both)."""
        folded = np.random.default_rng(cols).normal(
            0.0, 0.5, size=(4, 9, cols)
        ).astype(np.float32)
        ctx = dataclasses.replace(VARIED, tuner_range_nm=100.0)
        targets = np.abs(folded.astype(np.float64)) / ctx.thermal.drift_nm_per_k
        inverse = np.linalg.inv(ThermalGrid(num_heaters=cols).coupling_matrix())
        want = np.clip(targets @ inverse.T, 0.0, None).sum(axis=(1, 2))
        got = corners._physics_from_folded(folded, ctx, 100.0)[2]
        np.testing.assert_allclose(got, want, rtol=1e-5)

    @pytest.mark.parametrize("size", [8, 32, 64, 128])
    def test_rows_do_not_depend_on_batch_size(self, size):
        spec = ArraySpec(rows=size, cols=size)
        dies = self.dies(range(8))
        whole = _evaluate_batch(spec, dies)
        for i, ctx in enumerate(dies):
            alone = _evaluate_batch(spec, [ctx])
            for field in dataclasses.fields(whole):
                got = getattr(alone, field.name)
                want = getattr(whole, field.name)[i : i + 1]
                assert got.tobytes() == want.tobytes(), (field.name, i)

    @pytest.mark.skipif(
        "DYNAMIC_ARCH" not in str(np.show_config(mode="dicts")),
        reason="NumPy's OpenBLAS cannot switch core types at run time",
    )
    def test_bytes_do_not_depend_on_blas_core_type(self):
        """The same dies under two OpenBLAS kernels give the same bytes."""
        script = (
            "import dataclasses, hashlib\n"
            "from repro.core import ExecutionContext\n"
            "from repro.core.engine import ArraySpec\n"
            "from repro.core.engine.corners import _evaluate_batch\n"
            "from repro.photonics.variation import ProcessVariationModel\n"
            "ctx = ExecutionContext(variation=ProcessVariationModel(), seed=3)\n"
            "digest = hashlib.sha256()\n"
            "for size in (8, 32, 64, 128):\n"
            "    physics = _evaluate_batch(ArraySpec(rows=size, cols=size),\n"
            "                              [ctx.for_sample(i) for i in range(4)])\n"
            "    for field in dataclasses.fields(physics):\n"
            "        digest.update(getattr(physics, field.name).tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        digests = {
            core: subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=core),
                timeout=120,
            ).stdout
            for core in ("Haswell", "Prescott")
        }
        assert digests["Haswell"] == digests["Prescott"] != ""
