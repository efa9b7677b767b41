"""Tests for the batched serving subsystem (cache, scheduler, engine)."""

import json
import time

import pytest

from repro.core import TRON, get_workload
from repro.core.context import resolve_corner
from repro.core.engine import clear_physics_cache
from repro.core.reports import EnergyReport, LatencyReport, RunReport
from repro.core.tron import TRONConfig
from repro.errors import ConfigurationError, MappingError, YieldError
from repro.nn.counting import OpCount
from repro.serving import (
    BatchingScheduler,
    ReportCache,
    ServeRequest,
    ServingEngine,
    config_fingerprint,
    generate_trace,
    load_trace,
    normalize_context,
    record_to_request,
    save_trace,
)
import repro.serving.scheduler as scheduler_module
from repro.serving.scheduler import PLATFORM_ENTRIES


def _report(tag="w", latency=10.0):
    return RunReport(
        platform="p",
        workload=tag,
        ops=OpCount(macs=100),
        latency=LatencyReport(compute_ns=latency),
        energy=EnergyReport(digital_pj=5.0),
    )


class TestReportCache:
    def test_hit_and_miss_accounting(self):
        cache = ReportCache(max_entries=4)
        key = ("w", "cfg", None)
        assert cache.get(key) is None
        cache.put(key, _report())
        assert cache.get(key) is not None
        assert cache.get(("other", "cfg", None)) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_eviction_under_the_bound(self):
        cache = ReportCache(max_entries=2)
        for i in range(5):
            cache.put((f"w{i}", "cfg", None), _report())
        assert len(cache) == 2
        assert cache.stats.evictions == 3
        # The two most recent entries survive.
        assert ("w4", "cfg", None) in cache
        assert ("w3", "cfg", None) in cache
        assert ("w0", "cfg", None) not in cache

    def test_lru_order_refreshes_on_hit(self):
        cache = ReportCache(max_entries=2)
        cache.put(("a", "cfg", None), _report())
        cache.put(("b", "cfg", None), _report())
        assert cache.get(("a", "cfg", None)) is not None  # refresh a
        cache.put(("c", "cfg", None), _report())  # evicts b, not a
        assert ("a", "cfg", None) in cache
        assert ("b", "cfg", None) not in cache

    def test_rejects_degenerate_bound(self):
        with pytest.raises(ConfigurationError):
            ReportCache(max_entries=0)

    def test_fingerprint_separates_configs(self):
        from repro.core.tron import TRONConfig

        assert config_fingerprint(TRONConfig()) != config_fingerprint(
            TRONConfig(batch=8)
        )

    def test_nominal_contexts_share_an_entry(self):
        from repro.core.context import NOMINAL

        assert normalize_context(None) is None
        assert normalize_context(NOMINAL) is None
        ctx = resolve_corner("typical", 1)
        assert normalize_context(ctx) is ctx


class TestSchedulerCacheKey:
    def test_same_request_same_key(self):
        scheduler = BatchingScheduler()
        a = scheduler.cache_key(ServeRequest(workload="MLP-mnist"))
        b = scheduler.cache_key(ServeRequest(workload="MLP-mnist"))
        assert a == b

    def test_context_sensitivity(self):
        """Same workload under different corners must miss."""
        scheduler = BatchingScheduler()
        nominal = scheduler.cache_key(ServeRequest(workload="MLP-mnist"))
        typical = scheduler.cache_key(
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", 0))
        )
        other_die = scheduler.cache_key(
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", 1))
        )
        assert nominal != typical
        assert typical != other_die

    def test_batch_changes_the_key(self):
        scheduler = BatchingScheduler()
        assert scheduler.cache_key(
            ServeRequest(workload="BERT-base", batch=1)
        ) != scheduler.cache_key(ServeRequest(workload="BERT-base", batch=8))

    def test_unknown_platform_rejected(self):
        with pytest.raises(
            ConfigurationError, match="platform must be one of .* 'warp'"
        ):
            ServeRequest(workload="MLP-mnist", platform="warp")


class TestBatchingScheduler:
    def test_dedup_inside_a_batch(self):
        scheduler = BatchingScheduler(cache=ReportCache())
        requests = [ServeRequest(workload="MLP-mnist")] * 4
        responses = scheduler.execute(requests)
        assert len(responses) == 4
        assert scheduler.stats.evaluated == 1
        assert scheduler.stats.deduped == 3
        # Duplicates share the evaluated report object.
        assert all(r.report is responses[0].report for r in responses)
        assert [r.deduped for r in responses] == [False, True, True, True]

    def test_cache_hits_across_batches(self):
        cache = ReportCache()
        scheduler = BatchingScheduler(cache=cache)
        request = ServeRequest(workload="MLP-mnist")
        first = scheduler.execute([request])[0]
        second = scheduler.execute([request])[0]
        assert not first.cached and second.cached
        assert second.report is first.report
        assert scheduler.stats.evaluated == 1

    def test_pass_resolves_each_request_object_once(self, monkeypatch):
        """A pass of N copies of K request objects resolves K times, and
        counts exactly what a stream of N distinct-but-equal objects
        (one resolve per request) counts: same flags, same scheduler
        stats, same report-cache hits, misses and evictions."""
        import copy

        kinds = [
            ServeRequest(workload="MLP-mnist"),
            ServeRequest(workload="BERT-base"),
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", 1)),
            ServeRequest(workload="GCN-cora"),
            ServeRequest(workload="no-such-workload"),
        ]
        picks = [0, 1, 0, 2, 3, 4, 1, 0, 4, 2, 3, 3]
        calls = []
        resolve = BatchingScheduler._resolve

        def counting(self, request):
            calls.append(request)
            return resolve(self, request)

        monkeypatch.setattr(BatchingScheduler, "_resolve", counting)

        def replay(fresh_objects):
            # A two-entry cache evicts across the passes.
            scheduler = BatchingScheduler(cache=ReportCache(max_entries=2))
            flags = []
            for _ in range(3):
                batch = [
                    copy.copy(kinds[k]) if fresh_objects else kinds[k]
                    for k in picks
                ]
                del calls[:]
                responses = scheduler.execute(batch)
                resolves = len(calls)
                flags.append([
                    (r.cached, r.deduped, r.error, r.report is None)
                    for r in responses
                ])
            return scheduler, flags, resolves

        shared, shared_flags, shared_resolves = replay(fresh_objects=False)
        fresh, fresh_flags, fresh_resolves = replay(fresh_objects=True)
        assert shared_resolves == len(kinds)
        assert fresh_resolves == len(picks)
        assert shared_flags == fresh_flags
        assert shared.stats == fresh.stats
        assert shared.cache.stats == fresh.cache.stats
        assert shared.stats.errors == 3 * picks.count(4)
        assert shared.cache.stats.evictions > 0
        assert any(cached for flags in shared_flags for cached, *_ in flags)

    def test_context_sensitive_misses(self):
        """The same workload at a different corner re-evaluates."""
        scheduler = BatchingScheduler(cache=ReportCache())
        nominal = scheduler.execute([ServeRequest(workload="MLP-mnist")])[0]
        cornered = scheduler.execute(
            [
                ServeRequest(
                    workload="MLP-mnist", ctx=resolve_corner("typical", 0)
                )
            ]
        )[0]
        assert not cornered.cached
        assert cornered.report.energy_pj > nominal.report.energy_pj

    def test_batched_physics_matches_scalar_runs(self):
        """The grouped/pinned path reproduces direct per-request runs."""
        requests = [
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", s))
            for s in (0, 1, 2, 3)
        ]
        batched = BatchingScheduler().execute(requests)
        assert BatchingScheduler(cache=None).stats.requests == 0
        for response, request in zip(batched, requests):
            clear_physics_cache()
            direct = TRON().run(
                get_workload("MLP-mnist"), ctx=request.ctx
            )
            assert response.report.latency_ns == direct.latency_ns
            assert response.report.energy_pj == pytest.approx(
                direct.energy_pj, rel=1e-12
            )

    def test_mixed_platform_routing(self):
        responses = BatchingScheduler().execute(
            [
                ServeRequest(workload="BERT-base"),
                ServeRequest(workload="GCN-cora"),
            ]
        )
        assert responses[0].report.platform == "TRON"
        assert responses[1].report.platform == "GHOST"

    def test_ghost_batched_request_errors_cleanly(self):
        responses = BatchingScheduler().execute(
            [ServeRequest(workload="GCN-cora", platform="ghost", batch=8)]
        )
        assert not responses[0].ok
        assert "full-graph" in responses[0].error

    def test_platform_memo_bounded_within_one_flush(self):
        """More distinct batch sizes than the bound in one micro-batch:
        the accelerator memo evicts, yet every job keeps the accelerator
        it resolved and matches a direct run."""
        batches = range(1, PLATFORM_ENTRIES + 17)
        requests = [
            ServeRequest(workload="MLP-mnist", platform="tron", batch=batch)
            for batch in batches
        ]
        scheduler = BatchingScheduler()
        responses = scheduler.execute(requests)
        assert len(scheduler._platforms) <= PLATFORM_ENTRIES
        assert scheduler.stats.evaluated == len(requests)
        workload = get_workload("MLP-mnist")
        for batch, response in zip(batches, responses):
            direct = TRON(TRONConfig(batch=batch)).run(workload)
            assert response.report.to_dict() == direct.to_dict()

    def test_group_count(self):
        """(platform, batch, family) partitioning, seeds share a group."""
        scheduler = BatchingScheduler()
        scheduler.execute(
            [
                ServeRequest(workload="MLP-mnist"),  # tron nominal
                ServeRequest(workload="GCN-cora"),  # ghost nominal
                ServeRequest(
                    workload="MLP-mnist", ctx=resolve_corner("typical", 1)
                ),
                ServeRequest(
                    workload="MLP-mnist", ctx=resolve_corner("typical", 2)
                ),
            ]
        )
        assert scheduler.stats.groups == 3
        assert scheduler.stats.batched_dies == 2


def _zipf_stream(size, seed=1):
    """``size`` requests drawn from a 256-type Zipf-skewed population."""
    import numpy as np

    population = generate_trace(20000, seed=0, catalog_size=256)
    types = {}
    kinds = [
        types.setdefault(tuple(sorted(record.items())), len(types))
        for record in population
    ]
    requests = [record_to_request(dict(key)) for key in types]
    picks = np.random.default_rng(seed).integers(len(kinds), size=size)
    return [requests[kinds[i]] for i in picks]


class TestOneThreadScheduler:
    """Each micro-batch evaluates on the calling thread, in group order,
    through one long-lived accelerator per (platform, batch)."""

    def _multi_group_batch(self):
        return [
            ServeRequest(workload="MLP-mnist"),
            ServeRequest(workload="GCN-cora"),
            ServeRequest(workload="BERT-base", batch=4),
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", 1)),
        ]

    def test_execute_starts_no_threads(self, monkeypatch):
        import threading

        def refuse(self):
            raise AssertionError("scheduler started a thread")

        scheduler = BatchingScheduler(cache=ReportCache())
        monkeypatch.setattr(threading.Thread, "start", refuse)
        responses = scheduler.execute(self._multi_group_batch())
        assert all(r.ok for r in responses)
        assert scheduler.stats.groups == 4

    def test_one_accelerator_per_platform_and_batch(self, monkeypatch):
        build = scheduler_module.build_platform
        built = []

        def counting(platform, batch):
            built.append((platform, batch))
            return build(platform, batch)

        monkeypatch.setattr(scheduler_module, "build_platform", counting)
        scheduler = BatchingScheduler(cache=None)
        requests = self._multi_group_batch()
        for _ in range(3):
            scheduler.execute(requests)
        scheduler.cache_key(requests[0])
        assert sorted(built) == [("ghost", 1), ("tron", 1), ("tron", 4)]
        assert scheduler.stats.evaluated == 3 * len(requests)

    def test_ghost_batched_request_fails_alone(self):
        bad = ServeRequest(workload="GCN-cora", platform="ghost", batch=8)
        batch = self._multi_group_batch() + [bad]
        responses = BatchingScheduler().execute(batch)
        assert [r.ok for r in responses] == [True] * 4 + [False]
        assert responses[-1].error == (
            "GHOST costs full-graph inferences; batched requests must "
            "target tron (got batch=8)"
        )

    def test_identical_replays_give_identical_flags(self):
        """Fresh engines replaying one stream agree on every response's
        ``(cached, deduped)`` flags: cache insertion (hence LRU eviction)
        order follows group order, not thread timing."""
        stream = _zipf_stream(1024)

        def replay():
            engine = ServingEngine(cache_entries=64)
            flags = []
            for start in range(0, len(stream), 256):
                flags += [
                    (r.cached, r.deduped)
                    for r in engine.serve(stream[start:start + 256])
                ]
            return flags

        first = replay()
        for _ in range(2):
            assert replay() == first

    def test_racing_serve_calls_never_overlap(self, monkeypatch):
        """``serve`` calls racing from many threads on one engine
        serialize: no two evaluations overlap on the shared
        accelerator, no stats update is lost, and every report matches
        a fresh engine's.  The probe wraps both ways a job is costed:
        the accelerator's scalar ``run`` and the registered TRON MLP
        column evaluator."""
        import sys
        import threading
        import time

        import repro.core.engine.soa as soa
        from repro.core.base import WorkloadKind

        requests = [
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", s))
            for s in range(4)
        ]
        expected = [
            r.report.to_dict() for r in ServingEngine().serve(requests)
        ]
        guard = threading.Lock()
        active, peak = [0], [0]

        def probed(inner):
            def call(*args, **kwargs):
                with guard:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                try:
                    time.sleep(1e-4)  # invite another thread in
                    return inner(*args, **kwargs)
                finally:
                    with guard:
                        active[0] -= 1

            return call

        build = scheduler_module.build_platform

        def probing_build(platform, batch):
            accelerator, digest = build(platform, batch)
            accelerator.run = probed(accelerator.run)
            return accelerator, digest

        monkeypatch.setattr(scheduler_module, "build_platform", probing_build)
        key = ("TRON", WorkloadKind.MLP)
        monkeypatch.setitem(
            soa._EVALUATORS, key, probed(soa.soa_evaluator(*key))
        )

        rounds, threads = 10, 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # A one-entry cache keeps nearly every request a miss.
            engine = ServingEngine(cache_entries=1)
            served = [[] for _ in range(threads)]

            def client(slot):
                for _ in range(rounds):
                    served[slot] += engine.serve(requests)

            pool = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)

        total = threads * rounds * len(requests)
        assert peak[0] == 1
        assert engine.scheduler.stats.requests == total
        assert engine.stats.requests == total
        for responses in served:
            for i, response in enumerate(responses):
                assert response.report.to_dict() == expected[i % 4]


class TestColumnPass:
    """Pass 4 costs each (platform, workload) column in one registered
    SoA evaluator call; every job still gets exactly its scalar report
    or error text."""

    @staticmethod
    def _record_evaluator_calls(monkeypatch):
        """Wrap every registered evaluator; returns the list of
        ``(platform, kind, points)`` calls made."""
        import repro.core.engine.soa as soa
        from repro.core.base import WorkloadKind

        soa.soa_evaluator("TRON", WorkloadKind.MLP)  # load the defaults
        calls = []

        def recording(key, inner):
            def call(configs, contexts, workload):
                calls.append(key + (len(configs),))
                return inner(configs, contexts, workload)

            return call

        for key, evaluator in list(soa._EVALUATORS.items()):
            monkeypatch.setitem(
                soa._EVALUATORS, key, recording(key, evaluator)
            )
        return calls

    def test_zipf_stream_matches_scalar_runs(self, monkeypatch):
        """A 256-type Zipf stream against a 64-entry cache: every costed
        job equals the scalar ``run`` under its own context."""
        costed = []
        cost_column = BatchingScheduler._cost_column

        def recording(column):
            cost_column(column)
            costed.append(list(column))

        monkeypatch.setattr(
            BatchingScheduler, "_cost_column", staticmethod(recording)
        )
        calls = self._record_evaluator_calls(monkeypatch)
        stream = _zipf_stream(1024)
        engine = ServingEngine(cache_entries=64)
        responses = []
        for start in range(0, len(stream), 256):
            responses += engine.serve(stream[start:start + 256])
        monkeypatch.undo()

        jobs = [job for column in costed for job in column]
        stats = engine.scheduler.stats
        assert len(jobs) == stats.evaluated + stats.errors
        assert any(len(column) > 1 for column in costed)
        assert sum(points for *_, points in calls) > len(jobs) // 2
        for job in jobs:
            try:
                want = job.accelerator.run(job.workload, ctx=job.key[2])
            except (YieldError, MappingError, ConfigurationError) as exc:
                assert job.report is None and job.error == str(exc)
                continue
            assert job.report == want
            assert job.report.to_dict() == want.to_dict()
        assert all(r.ok or r.error for r in responses)

    def test_dead_die_fails_alone_in_its_column(self):
        """A dead die sinks its column's evaluator call; every job then
        runs scalar, so the dead one keeps its exact error text and its
        column-mates their own reports."""
        from repro.core.context import ExecutionContext
        from repro.photonics.variation import ProcessVariationModel

        workload = get_workload("MLP-mnist")
        contexts = [None] + [
            ExecutionContext(
                variation=ProcessVariationModel(), seed=s, tuner_range_nm=6.0
            )
            for s in range(8)
        ]
        responses = BatchingScheduler().execute(
            [ServeRequest(workload="MLP-mnist", ctx=ctx) for ctx in contexts]
        )
        dead = 0
        for ctx, response in zip(contexts, responses):
            try:
                want = TRON().run(workload, ctx=ctx)
            except YieldError as exc:
                dead += 1
                assert response.report is None
                assert response.error == str(exc)
                continue
            assert response.ok and response.report == want
        assert dead == 1

    def test_pass_beyond_the_die_memo_draws_each_die_once(self):
        """A pass with more dies than the per-die memo's bound reads
        every die back from the memo instead of redrawing it, and the
        memo returns to its bound afterwards."""
        from repro.core.engine import corners, physics_cache_stats

        clear_physics_cache()
        bound = corners._PHYSICS_CACHE.max_entries
        dies = bound + 44
        before = physics_cache_stats()["context_physics"]
        responses = BatchingScheduler().execute(
            [
                ServeRequest(
                    workload="MLP-mnist",
                    ctx=resolve_corner("typical", seed=seed),
                )
                for seed in range(dies)
            ]
        )
        after = physics_cache_stats()["context_physics"]
        assert all(response.ok for response in responses)
        assert after["insertions"] - before["insertions"] == dies
        assert after["misses"] - before["misses"] == dies
        assert after["hits"] - before["hits"] == dies
        assert len(corners._PHYSICS_CACHE) == bound
        assert corners._PHYSICS_CACHE.max_entries == bound
        for seed in (0, dies - 1):
            ctx = resolve_corner("typical", seed=seed)
            assert responses[seed].report == TRON().run(
                get_workload("MLP-mnist"), ctx=ctx
            )

    def test_decode_runs_scalar_beside_a_column(self, monkeypatch):
        """No evaluator covers DECODE: its job runs scalar and matches a
        direct run, while the MLP column of the same pass still costs
        in one evaluator call."""
        from repro.core.base import WorkloadKind

        calls = self._record_evaluator_calls(monkeypatch)
        responses = BatchingScheduler().execute(
            [
                ServeRequest(workload="decode-gpt2-small"),
                ServeRequest(workload="MLP-mnist"),
                ServeRequest(workload="MLP-mnist", batch=2),
            ]
        )
        assert calls == [("TRON", WorkloadKind.MLP, 2)]
        direct = [
            TRON().run(get_workload("decode-gpt2-small")),
            TRON().run(get_workload("MLP-mnist")),
            TRON(TRONConfig(batch=2)).run(get_workload("MLP-mnist")),
        ]
        for response, want in zip(responses, direct):
            assert response.report == want

    def test_cache_order_follows_first_seen_jobs(self):
        """Cache insertion follows the jobs' first-seen (group) order,
        not the order the columns were costed in."""
        typical = [resolve_corner("typical", s) for s in (1, 2)]
        requests = [
            ServeRequest(workload="MLP-mnist"),
            ServeRequest(workload="BERT-base"),
            ServeRequest(workload="MLP-mnist"),  # duplicate
            ServeRequest(workload="MLP-mnist", ctx=typical[0]),
            ServeRequest(workload="BERT-base", ctx=typical[1]),
            ServeRequest(workload="GCN-cora"),
        ]
        cache = ReportCache()
        scheduler = BatchingScheduler(cache=cache)
        keys = []
        for request in requests:
            key = scheduler.cache_key(request)
            if key not in keys:
                keys.append(key)
        scheduler.execute(requests)
        assert list(cache._entries) == keys


class TestServingEngine:
    def test_sync_serve_orders_responses(self):
        engine = ServingEngine()
        requests = [
            ServeRequest(workload="MLP-mnist"),
            ServeRequest(workload="MLP-recsys"),
        ]
        responses = engine.serve(requests)
        assert [r.request.workload for r in responses] == [
            "MLP-mnist",
            "MLP-recsys",
        ]
        assert all(r.latency_s >= 0.0 for r in responses)

    def test_stats_hit_rate_on_replay(self):
        engine = ServingEngine()
        requests = [ServeRequest(workload="MLP-mnist")]
        engine.serve(requests)
        engine.serve(requests)
        assert engine.stats.hit_rate == pytest.approx(0.5)
        assert engine.cache.stats.hits == 1

    def test_replay_is_bit_identical(self):
        engine = ServingEngine()
        requests = [
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", s))
            for s in (0, 1, 2)
        ]
        cold = engine.serve(requests)
        warm = engine.serve(requests)
        assert all(w.cached for w in warm)
        for c, w in zip(cold, warm):
            assert w.report.to_dict() == c.report.to_dict()

    def test_response_to_dict(self):
        engine = ServingEngine()
        response = engine.serve([ServeRequest(workload="GCN-cora")])[0]
        payload = response.to_dict()
        assert payload["workload"] == "GCN-cora"
        assert payload["platform"] == "auto"  # as requested
        assert payload["report"]["platform"] == "GHOST"  # where it ran
        assert payload["error"] is None
        assert json.dumps(payload)  # fully JSON-serializable

    def test_latency_accounting_stays_bounded(self):
        from repro.serving.engine import LATENCY_WINDOW

        engine = ServingEngine()
        requests = [ServeRequest(workload="MLP-mnist")] * 10
        engine.serve(requests)
        assert engine.stats.mean_latency_s >= 0.0
        assert engine.stats.to_dict()["p95_latency_s"] >= 0.0
        assert engine.stats.recent_latencies_s.maxlen == LATENCY_WINDOW

    def test_response_latency_within_the_serve_call(self):
        engine = ServingEngine()
        engine.serve([ServeRequest(workload="MLP-mnist")])  # warm the cache
        requests = [
            ServeRequest(workload="MLP-mnist"),
            ServeRequest(workload="MLP-recsys"),
            ServeRequest(workload="MLP-recsys"),
        ]
        start = time.perf_counter()
        responses = engine.serve(requests)
        wall_s = time.perf_counter() - start
        assert [(r.cached, r.deduped) for r in responses] == [
            (True, False),
            (False, False),
            (False, True),
        ]
        assert all(0.0 <= r.latency_s <= wall_s for r in responses)


class TestTrace:
    def test_round_trip(self, tmp_path):
        records = generate_trace(num_requests=20, seed=3, catalog_size=8)
        path = tmp_path / "trace.json"
        save_trace(records, path)
        requests = load_trace(path)
        assert len(requests) == 20
        assert all(isinstance(r, ServeRequest) for r in requests)
        assert requests == [record_to_request(r) for r in records]

    def test_generation_is_deterministic(self):
        assert generate_trace(num_requests=30, seed=5) == generate_trace(
            num_requests=30, seed=5
        )

    def test_repeat_skew(self):
        """Zipf sampling must produce real repeats (the serving win)."""
        records = generate_trace(num_requests=200, seed=0, catalog_size=20)
        distinct = {tuple(sorted(r.items())) for r in records}
        assert len(distinct) <= 20 < len(records)

    def test_nominal_records_carry_no_die_seed(self):
        records = generate_trace(num_requests=50, seed=2)
        for record in records:
            if record["corner"] == "nominal":
                assert record["seed"] == 0

    def test_gnn_records_stay_unbatched(self):
        from repro.serving.trace import GNN_WORKLOADS

        records = generate_trace(num_requests=100, seed=4, llm_fraction=0.0)
        assert all(r["workload"] in GNN_WORKLOADS for r in records)
        assert all(r["batch"] == 1 for r in records)

    def test_loader_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro.trace/1",
                    "requests": [{"workload": "BERT-base", "wat": 1}],
                }
            )
        )
        with pytest.raises(ConfigurationError, match="unknown field"):
            load_trace(path)

    def test_loader_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"schema": "nope/1", "requests": []}))
        with pytest.raises(ConfigurationError, match="schema"):
            load_trace(path)

    def test_generator_validates_arguments(self):
        with pytest.raises(ConfigurationError):
            generate_trace(num_requests=0)
        with pytest.raises(ConfigurationError):
            generate_trace(llm_fraction=1.5)


class TestConcurrentSubmission:
    """Many threads racing ``serve()`` on one engine: no lost or
    duplicated responses, consistent cache accounting, and dedup that
    hands every duplicate the same report."""

    THREADS = 8
    PER_THREAD = 25
    #: Requests per ``serve`` call, so the threads' passes interleave.
    CHUNK = 5

    def _requests(self):
        # Four distinct request types, cycled so every thread submits
        # duplicates of each.
        types = [
            ServeRequest(workload="MLP-mnist",
                         ctx=resolve_corner("typical", seed))
            for seed in range(4)
        ]
        return [types[i % len(types)] for i in range(self.PER_THREAD)]

    def _serve_from_threads(self, engine, requests):
        """Each thread serves ``requests`` in ``CHUNK``-sized calls;
        returns every thread's responses."""
        import threading

        results = [None] * self.THREADS

        def serve_all(slot):
            results[slot] = [
                response
                for start in range(0, len(requests), self.CHUNK)
                for response in engine.serve(
                    requests[start:start + self.CHUNK]
                )
            ]

        pool = [
            threading.Thread(target=serve_all, args=(slot,))
            for slot in range(self.THREADS)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
        return results

    def test_no_lost_or_duplicate_responses(self):
        engine = ServingEngine()
        results = self._serve_from_threads(engine, self._requests())

        total = self.THREADS * self.PER_THREAD
        assert all(result is not None for result in results)
        assert all(len(result) == self.PER_THREAD for result in results)
        assert all(response.ok for result in results for response in result)
        # Exactly one response per request, fleet-wide.
        assert engine.stats.requests == total
        # Cache accounting stays consistent under the race: every
        # request did exactly one keyed lookup...
        cache = engine.cache.stats
        assert cache.hits + cache.misses == total
        # ...and each of the four types was evaluated exactly once
        # (dedup + cache, no double evaluation, no lost insert).
        assert engine.scheduler.stats.evaluated == 4
        assert cache.insertions == 4

    def test_duplicates_share_bit_identical_reports(self):
        requests = self._requests()
        collected = self._serve_from_threads(ServingEngine(), requests)

        # Group every response by its request; reports within a group
        # must be bit-identical no matter which thread asked.
        by_type = {}
        for responses in collected:
            for request, response in zip(requests, responses):
                by_type.setdefault(request, []).append(
                    response.report.to_dict()
                )
        assert len(by_type) == 4
        for reports in by_type.values():
            assert all(report == reports[0] for report in reports)
