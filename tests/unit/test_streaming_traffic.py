"""Multi-tenant traffic: round-trips, shaped arrivals, fleet replay."""

import json

import numpy as np
import pytest

from repro.api import Session
from repro.api.schemas import validate_payload
from repro.errors import ConfigurationError
from repro.serving import ServingEngine
from repro.serving.arrivals import ArrivalProcess
from repro.serving.fleet import ServingFleet
from repro.serving.trace import (
    load_trace,
    load_trace_payload,
    record_tenant,
    record_to_request,
    save_trace,
)
from repro.streaming import (
    ShapedArrivalProcess,
    TenantProfile,
    TrafficModel,
    diurnal_rate_curve,
    parse_shaped_arrivals,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def model():
    return TrafficModel.uniform_tenants(3, seed=11, catalog_size=6)


# ----------------------------------------------------------------------
# Trace round-trips
# ----------------------------------------------------------------------


def test_generate_is_deterministic_and_json_clean(model):
    first = model.generate(num_requests=50)
    second = model.generate(num_requests=50)
    assert first == second
    assert json.loads(json.dumps(first)) == first
    assert all(sorted(r) == ["spec", "tenant"] for r in first)


def test_trace_file_round_trip_validates_schema(model, tmp_path):
    path = tmp_path / "tenants.json"
    records = model.generate(num_requests=40)
    save_trace(records, path, arrivals="diurnal:poisson:400")
    payload = load_trace_payload(path)
    assert validate_payload(payload) == "repro.trace/1"
    assert payload["arrivals"] == "diurnal:poisson:400"
    requests = load_trace(path)
    assert len(requests) == 40
    assert [record_tenant(r) for r in payload["requests"]] == [
        r["tenant"] for r in records
    ]


def test_trace_regeneration_is_byte_identical(model, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_trace(model.generate(30), a, arrivals="diurnal:poisson:500")
    save_trace(model.generate(30), b, arrivals="diurnal:poisson:500")
    assert a.read_bytes() == b.read_bytes()


def test_tenant_record_rejects_malformed_forms():
    with pytest.raises(ConfigurationError):
        record_to_request({"tenant": "x", "spec": {"workload": "BERT-base"}})
    with pytest.raises(ConfigurationError):
        record_to_request(
            {"tenant": "x", "spec": {"schema": "repro.spec/1"}, "extra": 1}
        )
    with pytest.raises(ConfigurationError):
        record_to_request({"tenant": "x", "spec": "BERT-base"})


def test_tenant_weights_shape_the_mix(model):
    records = model.generate(num_requests=4000)
    counts = {t.name: 0 for t in model.tenants}
    for record in records:
        counts[record["tenant"]] += 1
    expected = model.weights() * len(records)
    for profile, want in zip(model.tenants, expected):
        got = counts[profile.name]
        # Multinomial tolerance: 5 sigma around the expected share.
        sigma = np.sqrt(want * (1 - want / len(records)))
        assert abs(got - want) < 5 * sigma, (profile.name, got, want)
    # Zipf tenant shares decay with tenant index.
    ordered = [counts[t.name] for t in model.tenants]
    assert ordered == sorted(ordered, reverse=True)


def test_per_tenant_requests_stay_inside_catalog(model):
    catalogs = model.catalogs()
    for record in model.generate(num_requests=200):
        assert record["spec"] in catalogs[record["tenant"]]


def test_traffic_model_validation():
    with pytest.raises(ConfigurationError):
        TrafficModel(tenants=())
    with pytest.raises(ConfigurationError):
        TrafficModel(
            tenants=(TenantProfile("a"), TenantProfile("a"))
        )
    with pytest.raises(ConfigurationError):
        TenantProfile("bad", weight=0.0)
    with pytest.raises(ConfigurationError):
        TrafficModel.uniform_tenants(0)


# ----------------------------------------------------------------------
# Shaped arrivals
# ----------------------------------------------------------------------


def test_diurnal_curve_mean_preserving():
    times = np.linspace(0.0, 60.0, 4001)
    curve = diurnal_rate_curve(times, 60.0, 0.8)
    assert curve.min() == pytest.approx(0.2, abs=1e-3)
    assert curve.max() == pytest.approx(1.8, abs=1e-3)
    assert curve.mean() == pytest.approx(1.0, abs=1e-3)


def test_shaped_times_are_monotone_and_deterministic():
    process = ShapedArrivalProcess("poisson", 200.0, shape="diurnal")
    times = process.times(500, seed=4)
    assert np.array_equal(times, process.times(500, seed=4))
    assert (np.diff(times) >= 0.0).all()
    assert times[0] >= 0.0


def test_diurnal_warp_concentrates_arrivals_at_peak():
    process = ShapedArrivalProcess(
        "uniform", 100.0, shape="diurnal", period_s=10.0, amplitude=0.8
    )
    times = process.times(1000, seed=0)
    phase = (times % 10.0) / 10.0
    # The sinusoid peaks in the first half-period (sin > 0); a mean-
    # preserving warp must put more arrivals there than in the trough.
    peak_half = int((phase < 0.5).sum())
    assert peak_half > 600


def test_flat_shape_is_transparent():
    base = ArrivalProcess("bursty", 100.0, burstiness=16.0)
    shaped = ShapedArrivalProcess(
        "bursty", 100.0, burstiness=16.0, shape="flat"
    )
    assert np.array_equal(base.times(64, seed=9), shaped.times(64, seed=9))
    assert shaped.describe() == base.describe()


def test_parse_shaped_arrivals_round_trip():
    process = parse_shaped_arrivals("diurnal:bursty:2000:16")
    assert isinstance(process, ShapedArrivalProcess)
    assert process.kind == "bursty"
    assert process.burstiness == 16.0
    assert process.describe() == "diurnal:bursty:2000:16"
    plain = parse_shaped_arrivals("poisson:500")
    assert not isinstance(plain, ShapedArrivalProcess)
    with pytest.raises(ConfigurationError):
        parse_shaped_arrivals("diurnal:nope:5")
    with pytest.raises(ConfigurationError):
        ShapedArrivalProcess("poisson", 10.0, shape="weekly")


# ----------------------------------------------------------------------
# Replay through serving
# ----------------------------------------------------------------------


def test_one_worker_fleet_replay_is_bit_identical(model):
    records = model.generate(num_requests=40)
    requests = [record_to_request(r) for r in records]
    tenants = [record_tenant(r) for r in records]
    reference = ServingEngine().serve(requests)
    with ServingFleet(workers=1) as fleet:
        responses = fleet.serve(requests, tenants=tenants)
    assert len(reference) == len(responses)
    for ref, response in zip(reference, responses):
        assert ref.to_dict()["report"] == response.report


def test_session_serves_tenant_trace_with_quota(model, tmp_path):
    path = tmp_path / "trace.json"
    session = Session()
    session.generate_trace(
        output=str(path), requests=30, tenants=3, catalog=5, seed=11,
        shape="diurnal",
    )
    closed = session.serve(trace=str(path), workers=1, tenant_rate=1e9)
    assert closed.served == 30
    opened = session.serve(trace=str(path), workers=1, arrivals="trace")
    run = opened.fleet["open_loop"][0]
    assert run["arrivals"] == "diurnal:poisson:500"
    assert opened.fleet["arrivals"] == "diurnal:poisson:500"


def test_serve_arrivals_trace_needs_a_hint(model, tmp_path):
    path = tmp_path / "flat.json"
    session = Session()
    session.generate_trace(output=str(path), requests=10)
    with pytest.raises(ConfigurationError):
        session.serve(trace=str(path), workers=1, arrivals="trace")
    with pytest.raises(ConfigurationError):
        session.serve(requests=[], workers=1, arrivals="trace")


def test_trace_result_reports_tenants(model):
    result = Session().generate_trace(requests=25, tenants=2, catalog=4)
    assert result.tenants == ["tenant-0", "tenant-1"]
    assert "2 tenants" in result.format()
    assert result.distinct <= 8
