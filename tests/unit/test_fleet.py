"""Tests for the sharded multi-process fleet tier (routing, admission,
wire codec, and the ServingFleet front-end)."""

import threading
import time

import pytest

from repro.core.context import resolve_corner
from repro.core.engine.memo import fingerprint
from repro.errors import ConfigurationError
from repro.serving import (
    SHED_QUEUE,
    SHED_QUOTA,
    AdmissionController,
    ArrivalProcess,
    ServeRequest,
    ServingEngine,
    ServingFleet,
    ShardRouter,
    TokenBucket,
    generate_trace,
    record_to_request,
    request_to_wire,
    wire_to_request,
)
from repro.serving.fleet import merge_counters
from repro.serving.scheduler import PLATFORM_ENTRIES
from repro.serving.shard import SHARD_ENTRIES


def small_trace(num_requests=24, catalog_size=6, seed=0):
    records = generate_trace(
        num_requests=num_requests, seed=seed, catalog_size=catalog_size
    )
    return [record_to_request(record) for record in records]


class TestShardRouter:
    def test_assignment_stable_and_in_range(self):
        router = ShardRouter(num_shards=4)
        for request in small_trace():
            shard = router.shard_of(request)
            assert 0 <= shard < 4
            assert router.shard_of(request) == shard

    def test_type_granularity_splits_corners(self):
        # Distinct contexts are distinct request types; over enough of
        # them the router must use more than one shard.
        router = ShardRouter(num_shards=4)
        shards = {
            router.shard_of(
                ServeRequest(
                    workload="MLP-mnist", ctx=resolve_corner("typical", seed)
                )
            )
            for seed in range(16)
        }
        assert len(shards) > 1

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError, match="shard"):
            ShardRouter(num_shards=0)

    def test_route_memos_bounded_and_assignments_stable(self):
        # Distinct die seeds and batch sizes are distinct keys; past the
        # bounds the memos evict, and an evicted key routes back to the
        # shard its SHA-256 digest picks.
        requests = [
            ServeRequest(
                workload="BERT-base", ctx=resolve_corner("slow-hot", seed)
            )
            for seed in range(SHARD_ENTRIES + 64)
        ] + [
            ServeRequest(workload="BERT-base", platform="tron", batch=batch)
            for batch in range(2, PLATFORM_ENTRIES + 18)
        ]
        router = ShardRouter(num_shards=4)
        first = [router.shard_of(request) for request in requests]
        assert len(router._shards) <= SHARD_ENTRIES
        assert len(router._fingerprints) <= PLATFORM_ENTRIES
        assert first == [
            int(fingerprint(router.shard_key(request)), 16) % 4
            for request in requests
        ]
        assert [router.shard_of(request) for request in requests] == first


class TestWireCodec:
    def test_round_trip_with_context(self):
        request = ServeRequest(
            workload="BERT-base",
            platform="tron",
            ctx=resolve_corner("slow-hot", 5),
            batch=8,
        )
        assert wire_to_request(request_to_wire(request)) == request

    def test_round_trip_without_context(self):
        request = ServeRequest(workload="GCN-cora")
        assert wire_to_request(request_to_wire(request)) == request

    def test_extra_type_id_tolerated(self):
        # The fleet tags wire records with a decode-memo key; the codec
        # must ignore it.
        record = request_to_wire(ServeRequest(workload="MLP-mnist"))
        record["type_id"] = 17
        assert wire_to_request(record).workload == "MLP-mnist"

    def test_trace_records_accepted(self):
        request = wire_to_request(
            {"workload": "GCN-cora", "corner": "typical", "seed": 2}
        )
        assert request.ctx.seed == 2


class TestAdmission:
    def test_token_bucket_refill(self):
        bucket = TokenBucket(rate_rps=2.0, burst=1.0)
        assert bucket.try_take(now_s=0.0)
        assert not bucket.try_take(now_s=0.0)
        assert bucket.try_take(now_s=0.5)  # half a second -> one token

    def test_token_bucket_refills_by_elapsed_time_on_a_large_clock(self):
        # Production clocks are large perf_counter readings: only the
        # time since the last take refills, never the clock's value.
        start = 86_400.0
        bucket = TokenBucket(rate_rps=2.0, burst=1.0)
        assert bucket.try_take(now_s=start)
        assert not bucket.try_take(now_s=start)
        assert not bucket.try_take(now_s=start + 0.25)  # half a token
        assert bucket.try_take(now_s=start + 0.5)

    def test_queue_bound_sheds(self):
        controller = AdmissionController(max_queue=2)
        assert controller.admit(in_flight=1) is None
        assert controller.admit(in_flight=2) == SHED_QUEUE
        assert controller.stats.shed_queue == 1
        assert controller.stats.shed_rate == pytest.approx(0.5)

    def test_tenant_quota_is_per_tenant(self):
        controller = AdmissionController(
            max_queue=100, tenant_rate_rps=1.0, tenant_burst=1.0
        )
        assert controller.admit(0, tenant="a", now_s=0.0) is None
        assert controller.admit(0, tenant="a", now_s=0.0) == SHED_QUOTA
        # Tenant b has its own bucket.
        assert controller.admit(0, tenant="b", now_s=0.0) is None
        assert controller.stats.to_dict()["shed_quota"] == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue=0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_rps=0.0, burst=1.0)


class TestMergeCounters:
    def test_nested_sums_and_bool_or(self):
        merged = merge_counters(
            [
                {"requests": 2, "nested": {"hits": 1}, "flag": False},
                {"requests": 3, "nested": {"hits": 4}, "flag": True},
            ]
        )
        assert merged == {
            "requests": 5,
            "nested": {"hits": 5},
            "flag": True,
        }

    def test_hit_rate_recomputed_not_summed(self):
        merged = merge_counters(
            [
                {"hits": 3, "misses": 1, "hit_rate": 0.75},
                {"hits": 1, "misses": 3, "hit_rate": 0.25},
            ]
        )
        assert merged["hit_rate"] == pytest.approx(0.5)


class TestServingFleet:
    def test_temporal_gnn_served_like_session_run(self):
        """Serving routes ``auto`` by the API registry's rule: a temporal
        GNN costs on GHOST, in process and through the fleet, exactly as
        ``Session().run`` costs it."""
        from repro.api import Session

        want = Session().run("GCN-ba-temporal").report.to_dict()
        assert want["platform"] == "GHOST"
        request = ServeRequest(workload="GCN-ba-temporal")
        served = ServingEngine().serve([request])[0]
        assert served.error is None
        assert served.report.to_dict() == want
        with ServingFleet(workers=1) as fleet:
            routed = fleet.serve([request])[0]
        assert routed.error is None
        assert routed.report == want

    def test_one_worker_matches_in_process_engine(self):
        requests = small_trace()
        reference = ServingEngine().serve(requests)
        with ServingFleet(workers=1) as fleet:
            responses = fleet.serve(requests)
        for ref, response in zip(reference, responses):
            assert response.report == ref.to_dict()["report"]
            assert response.cached == ref.cached

    def test_one_worker_responses_match_engine_field_by_field(self):
        """The columnar reply loses nothing: pass by pass, a one-worker
        fleet answers exactly as the in-process engine does — report
        document, flags, error text — through repeats, evictions past a
        two-entry cache and a dead die that errors in the worker; and
        each latency is the worker's own stamp within its pass."""
        from repro.core.context import ExecutionContext
        from repro.photonics.variation import ProcessVariationModel

        dies = [
            ServeRequest(
                workload="MLP-mnist",
                ctx=ExecutionContext(
                    variation=ProcessVariationModel(),
                    seed=seed,
                    tuner_range_nm=6.0,
                ),
            )
            for seed in range(8)  # one of these dies is dead
        ]
        kinds = small_trace(num_requests=40, catalog_size=6) + dies
        passes = [kinds, kinds[::-1], kinds[:10] * 3]
        engine = ServingEngine(cache_entries=2)
        fleet = ServingFleet(workers=1, cache_entries=2, max_queue=128)
        served = []
        try:
            for batch in passes:
                futures = [fleet.submit(request) for request in batch]
                assert fleet.drain(timeout=120)
                got = [future.result(timeout=60) for future in futures]
                served.extend(got)
                want = engine.serve(batch)
                assert [r.workload for r in got] == [
                    r.request.workload for r in want
                ]
                assert [r.report for r in got] == [
                    r.to_dict()["report"] for r in want
                ]
                assert [(r.cached, r.deduped, r.error) for r in got] == [
                    (r.cached, r.deduped, r.error) for r in want
                ]
                assert not any(r.shed for r in got)
                # Evaluated jobs share the pass's one finishing stamp;
                # cache hits are stamped earlier in the same pass.
                evaluated = {r.latency_s for r in got if not r.cached}
                assert len(evaluated) == 1
                assert all(
                    0.0 <= r.latency_s <= max(evaluated) for r in got
                )
                assert all(
                    r.latency_s <= r.open_latency_s for r in got
                )
        finally:
            fleet.close()
        assert fleet.worker_stats[0]["stats"]["flushes"] == len(passes)
        assert engine.cache.stats.to_dict() == fleet.worker_stats[0]["cache"]
        assert engine.cache.stats.evictions > 0
        assert any(r.cached for r in served)
        assert any(r.deduped for r in served)
        assert any(r.error and not r.cached for r in served)

    def test_drain_returns_after_every_response_is_delivered(self):
        """``serve`` reads each entry's response right after ``drain``;
        a drain that returned once the reply was popped, before the
        collector had delivered it, handed back ``None`` for the tail
        of a large batch.  A tiny GIL switch interval lets the waiting
        thread run as soon as it is notified."""
        import sys

        requests = small_trace() * 100
        interval = sys.getswitchinterval()
        with ServingFleet(workers=1, max_queue=len(requests)) as fleet:
            sys.setswitchinterval(1e-6)
            try:
                responses = [fleet.serve(requests) for _ in range(4)]
            finally:
                sys.setswitchinterval(interval)
        for served in responses:
            assert [r is not None and r.ok for r in served] == [True] * len(
                requests
            )

    def test_submit_to_closed_fleet_takes_no_admission_decision(self):
        fleet = ServingFleet(workers=1)
        future = fleet.submit(ServeRequest(workload="MLP-mnist"))
        fleet.close()
        assert future.result(timeout=60).ok
        before = fleet.admission.stats.to_dict()
        with pytest.raises(ConfigurationError, match="closed"):
            fleet.submit(ServeRequest(workload="MLP-mnist"))
        assert fleet.admission.stats.to_dict() == before
        assert before["submitted"] == before["admitted"] == 1

    def test_spawned_worker_matches_in_process_engine(self):
        # The worker's arguments must survive pickling into a fresh
        # interpreter, not just a fork of the parent.
        requests = small_trace()
        reference = ServingEngine().serve(requests)
        with ServingFleet(workers=1, start_method="spawn") as fleet:
            responses = fleet.serve(requests)
        assert [r.report for r in responses] == [
            ref.to_dict()["report"] for ref in reference
        ]
        assert [(r.cached, r.deduped) for r in responses] == [
            (ref.cached, ref.deduped) for ref in reference
        ]

    def test_drained_burst_is_one_worker_pass(self):
        # A burst within the admission bound reaches the worker as one
        # queue item and runs as one scheduler pass: dedup sees every
        # repeat, exactly as one in-process serve() call.
        requests = small_trace(num_requests=300)
        reference = ServingEngine().serve(requests)
        fleet = ServingFleet(workers=1, max_queue=len(requests))
        try:
            futures = [fleet.submit(request) for request in requests]
            assert fleet.drain(timeout=60)
            responses = [future.result(timeout=60) for future in futures]
        finally:
            fleet.close()
        assert fleet.worker_stats[0]["stats"]["flushes"] == 1
        assert [r.report for r in responses] == [
            ref.to_dict()["report"] for ref in reference
        ]
        assert [(r.cached, r.deduped) for r in responses] == [
            (ref.cached, ref.deduped) for ref in reference
        ]
        assert any(r.deduped for r in responses)

    def test_aggregate_stats_match_counted_responses(self):
        # Throughput spans first submit to last completion, not the
        # fleet's start; the summed worker counters match the responses.
        requests = small_trace(num_requests=300)
        fleet = ServingFleet(workers=1, max_queue=len(requests))
        try:
            time.sleep(0.2)  # idle before the first submit
            first_submit = fleet._now()
            futures = [fleet.submit(request) for request in requests]
            assert fleet.drain(timeout=60)
            drained = fleet._now()
            responses = [future.result(timeout=60) for future in futures]
        finally:
            fleet.close()
        wall = fleet.fleet_stats()["wall_s"]
        assert 0.0 < wall <= drained - first_submit
        aggregate = fleet.aggregate_stats()
        assert aggregate["throughput_rps"] == len(requests) / wall
        assert aggregate["requests"] == len(requests)
        assert aggregate["deduped"] == sum(r.deduped for r in responses) > 0
        assert aggregate["cache_hits"] == sum(r.cached for r in responses)

    def test_route_memo_hits_repeated_and_equal_requests(self, monkeypatch):
        import repro.serving.fleet as fleet_module

        class CountingRequest(ServeRequest):
            hashes = 0

            def __hash__(self):
                CountingRequest.hashes += 1
                return super().__hash__()

        encoded = []

        def counting_to_wire(request):
            encoded.append(request)
            return request_to_wire(request)

        monkeypatch.setattr(fleet_module, "request_to_wire", counting_to_wire)
        request = CountingRequest(workload="MLP-mnist")
        with ServingFleet(workers=1) as fleet:
            route = fleet._route(request)
            hashes = CountingRequest.hashes
            # The same object hits the identity memo without hashing...
            assert fleet._route(request) is route
            assert CountingRequest.hashes == hashes
            # ...and an equal object hits the type memo.
            assert fleet._route(CountingRequest(workload="MLP-mnist")) is route
        assert len(encoded) == 1

    def test_submits_at_admission_bound_resolve_without_drain(self):
        request = ServeRequest(workload="MLP-mnist")
        with ServingFleet(workers=1, max_queue=4) as fleet:
            futures = [fleet.submit(request) for _ in range(4)]
            responses = [future.result(timeout=60) for future in futures]
        assert all(response.ok for response in responses)

    def test_multi_worker_replay_hits_shard_caches(self):
        requests = small_trace()
        with ServingFleet(workers=2) as fleet:
            cold = fleet.serve(requests)
            warm = fleet.serve(requests)
        assert all(response.ok for response in cold)
        assert all(response.cached for response in warm)
        assert [w.report for w in warm] == [c.report for c in cold]

    def test_submit_futures_and_error_isolation(self):
        good = ServeRequest(workload="MLP-mnist")
        bad = ServeRequest(workload="no-such-workload")
        with ServingFleet(workers=1) as fleet:
            futures = [fleet.submit(good), fleet.submit(bad),
                       fleet.submit(good)]
            assert fleet.drain()
            responses = [future.result(timeout=30) for future in futures]
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok
        assert responses[1].error is not None
        assert not responses[1].shed  # an error, not an admission shed

    def test_concurrent_submit_no_lost_or_duplicate_responses(self):
        # Satellite: many threads racing submit() must each get exactly
        # one response for each of their requests, with shard caches
        # staying consistent.
        requests = small_trace(num_requests=8, catalog_size=4)
        threads, per_thread = 8, len(requests)
        futures_by_slot = [None] * threads

        with ServingFleet(workers=2) as fleet:
            fleet.serve(requests)  # warm, so races hit the cache path

            def submit_all(slot):
                futures_by_slot[slot] = [
                    fleet.submit(request) for request in requests
                ]

            pool = [
                threading.Thread(target=submit_all, args=(slot,))
                for slot in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert fleet.drain(timeout=120)
            results = [
                [future.result(timeout=60) for future in futures]
                for futures in futures_by_slot
            ]
            stats = fleet.fleet_stats()

        assert all(result is not None for result in results)
        for result in results:
            assert len(result) == per_thread
            assert all(response.ok for response in result)
            # Dedup/cache correctness: every response for a request
            # equals the single-threaded warm reply for that request.
            for response, request in zip(result, requests):
                assert response.workload == request.workload
        # No lost or duplicated completions fleet-wide.
        assert stats["completed"] == (threads + 1) * per_thread

    def test_open_loop_past_saturation_sheds_and_completes(self):
        requests = small_trace()
        with ServingFleet(workers=1, max_queue=2) as fleet:
            fleet.serve(requests)  # warm
            result = fleet.run_open_loop(
                requests,
                ArrivalProcess("uniform", 1e6),  # far past saturation
                drain_timeout=60.0,
            )
        assert result.submitted == len(requests)
        assert (
            result.completed + result.shed + result.errors
            == result.submitted
        )
        assert result.shed > 0  # bounded queues shed, never hang
        block = result.to_dict()
        assert block["p99_latency_s"] >= block["p50_latency_s"]

    def test_closed_loop_backpressure_never_sheds(self):
        requests = small_trace()
        with ServingFleet(workers=1, max_queue=2) as fleet:
            responses = fleet.serve(requests)
            stats = fleet.fleet_stats()
        assert all(response.ok for response in responses)
        assert stats["admission"]["shed_queue"] == 0

    def test_tenant_quota_sheds_with_reason(self):
        request = ServeRequest(workload="MLP-mnist")
        with ServingFleet(workers=1, tenant_rate_rps=1e-6,
                          tenant_burst=1.0) as fleet:
            futures = [fleet.submit(request, tenant="greedy")
                       for _ in range(3)]
            fleet.drain()
            responses = [future.result(timeout=30) for future in futures]
        assert not responses[0].shed
        assert responses[1].shed and responses[1].error == SHED_QUOTA
        assert responses[2].shed

    def test_report_payload_memo_bounded(self):
        # The admission bound caps a worker pass, so the payload memo
        # holds the report cache plus one pass.
        cache_entries, max_queue = 2, 4
        bound = cache_entries + max_queue
        requests = [
            ServeRequest(workload="MLP-mnist", batch=batch)
            for batch in range(1, 5 * bound)
        ]
        reference = [
            r.to_dict()["report"] for r in ServingEngine().serve(requests)
        ]
        fleet = ServingFleet(
            workers=1, cache_entries=cache_entries, max_queue=max_queue
        )
        try:
            first = fleet.serve(requests)
            second = fleet.serve(requests[::-1])
        finally:
            fleet.close()
        assert [r.report for r in first] == reference
        assert [r.report for r in second] == reference[::-1]
        assert fleet.worker_stats[0]["report_payloads"] == bound

    def test_stats_blocks_have_envelope_shape(self):
        requests = small_trace()
        fleet = ServingFleet(workers=2)
        try:
            fleet.serve(requests)
        finally:
            fleet.close()
        stats = fleet.fleet_stats()
        assert stats["workers"] == 2
        assert stats["completed"] == len(requests)
        assert len(stats["shard_requests"]) == 2
        assert sum(stats["shard_requests"]) == len(requests)
        assert len(stats["worker_stats"]) == 2
        aggregate = fleet.aggregate_stats()
        assert aggregate["requests"] == len(requests)
        for key in ("throughput_rps", "p50_latency_s", "p95_latency_s",
                    "p99_latency_s", "hit_rate"):
            assert key in aggregate
