"""The stacked decode series: bit-identity against the scalar step loop,
batching, workload dispatch."""

import numpy as np
import pytest

from repro.api import Session
from repro.core.base import get_workload
from repro.core.context import resolve_corner
from repro.core.reports import EnergyReport, LatencyReport
from repro.core.tron import TRON, TRONConfig, run_generation
from repro.core.tron.generation import (
    decode_step_reports,
    prefill_report,
    static_power_mw,
)
from repro.errors import ConfigurationError, MappingError
from repro.nn.counting import OpCount
from repro.nn.models import MODEL_ZOO, bert_base, gpt2_small
from repro.streaming import (
    DecodeWorkload,
    decode_series,
    decode_series_batch,
    episode_decode_ops,
)
from repro.streaming.decode import ENERGY_FIELDS, _context_column


@pytest.fixture(scope="module")
def tron():
    return TRON()


def _scalar_columns(tron, model, prompt_tokens, generated_tokens):
    """The scalar step loop as per-token columns — the reference."""
    steps = decode_step_reports(tron, model, prompt_tokens, generated_tokens)
    energy = {
        name: np.asarray([getattr(s.energy, name) for s in steps])
        for name in ENERGY_FIELDS
    }
    return (
        np.asarray([s.context for s in steps], dtype=np.int64),
        np.asarray([s.latency.compute_ns for s in steps]),
        np.asarray([s.latency.memory_ns for s in steps]),
        energy,
    )


def _folded_steps(tron, model, prompt_tokens, generated_tokens):
    """Episode decode totals folded from the scalar step loop, static
    energy charged on the total latency."""
    latency, energy, ops = LatencyReport(), EnergyReport(), OpCount()
    for step in decode_step_reports(
        tron, model, prompt_tokens, generated_tokens
    ):
        latency = latency + step.latency
        energy = energy + step.energy
        ops = ops + step.ops
    static_pj = static_power_mw(tron) * latency.total_ns
    return latency, energy + EnergyReport(static_pj=static_pj), ops


def test_stacked_series_bit_identical_to_scalar_loop(tron):
    stacked = decode_series(
        tron, gpt2_small(), prompt_tokens=96, generated_tokens=32
    )
    context, compute_ns, memory_ns, energy = _scalar_columns(
        tron, gpt2_small(), 96, 32
    )
    assert np.array_equal(stacked.context, context)
    assert np.array_equal(stacked.compute_ns, compute_ns)
    assert np.array_equal(stacked.memory_ns, memory_ns)
    for name, column in stacked.energy_pj.items():
        assert np.array_equal(column, energy[name]), name


def test_series_totals_match_run_generation_exactly(tron):
    report = run_generation(
        tron, gpt2_small(), prompt_tokens=64, generated_tokens=16
    )
    latency, energy, ops = _folded_steps(tron, gpt2_small(), 64, 16)
    assert report.decode_latency == latency
    assert report.decode_energy == energy
    assert report.decode_ops == ops
    prefill = prefill_report(tron, gpt2_small(), 64)
    assert report.prefill.latency == prefill.latency
    assert report.prefill.energy == prefill.energy
    assert report.tokens_per_second == 1e9 / (latency.total_ns / 16)


def test_bit_identity_holds_under_batch_and_corner():
    tron = TRON(TRONConfig(batch=8))
    ctx = resolve_corner("slow-hot", 3)
    bound = tron.bind(ctx)
    stacked = decode_series(
        bound, gpt2_small(), prompt_tokens=32, generated_tokens=8
    )
    _, compute_ns, memory_ns, energy = _scalar_columns(
        bound, gpt2_small(), 32, 8
    )
    per_token_pj = np.zeros_like(compute_ns)
    for name in ENERGY_FIELDS:
        per_token_pj = per_token_pj + energy[name]
    assert np.array_equal(stacked.per_token_ns, compute_ns + memory_ns)
    assert np.array_equal(stacked.per_token_pj, per_token_pj)


def test_batch_pass_matches_per_episode_series(tron):
    episodes = [(16, 4), (64, 8), (16, 12)]
    batch = decode_series_batch(tron, gpt2_small(), episodes)
    for series, (prompt, generated) in zip(batch, episodes):
        solo = decode_series(
            tron, gpt2_small(), prompt_tokens=prompt,
            generated_tokens=generated,
        )
        assert np.array_equal(series.per_token_ns, solo.per_token_ns)
        assert np.array_equal(series.context, solo.context)
        assert series.to_generation_report() == solo.to_generation_report()


def test_series_columns_are_sane(tron):
    series = decode_series(
        tron, gpt2_small(), prompt_tokens=32, generated_tokens=16
    )
    assert series.context.tolist() == list(range(33, 49))
    assert (series.per_token_ns > 0).all()
    assert (series.tokens_per_second > 0).all()
    # Longer context can never be cheaper within an episode.
    assert (np.diff(series.cumulative_ns) > 0).all()
    assert series.per_token_ns[-1] >= series.per_token_ns[0]
    assert "decode" in series.summary()


def test_episode_decode_ops_matches_stepwise_sum():
    from repro.core.tron.generation import decode_step_ops

    model = gpt2_small()
    context = _context_column(24, 7)
    total = None
    for ctx_len in context.tolist():
        step = decode_step_ops(model, ctx_len)
        total = step if total is None else total + step
    closed = episode_decode_ops(model, int(context.sum()), 7)
    assert closed == total


def test_decode_workload_registry_and_dispatch(tron):
    workload = get_workload("decode-gpt2-small")
    assert workload.kind.value == "decode"
    report = tron.run(workload)
    assert report.workload == "decode-gpt2-small"
    series = tron.decode_series(workload)
    collapsed = series.to_generation_report()
    assert report.latency.total_ns == (
        collapsed.prefill.latency + collapsed.decode_latency
    ).total_ns
    # The registered op_count covers prefill + decode phases.
    assert workload.op_count().macs == (
        collapsed.prefill.ops + collapsed.decode_ops
    ).macs


def test_decode_workload_rejects_encoders_and_bad_shapes():
    with pytest.raises(ConfigurationError):
        DecodeWorkload(model=bert_base())
    with pytest.raises(ConfigurationError):
        DecodeWorkload(model=gpt2_small(), generated_tokens=0)
    with pytest.raises(ConfigurationError):
        decode_series_batch(TRON(), gpt2_small(), [])


def test_ghost_rejects_decode_workloads():
    from repro.core.ghost import GHOST

    with pytest.raises(MappingError):
        GHOST().run(get_workload("decode-gpt2-small"))


def test_session_run_emits_decode_block():
    result = Session().run("decode-gpt2-small")
    assert result.decode is not None
    block = result.decode
    assert block["generated_tokens"] == 64
    assert len(block["per_token_ns"]) == 64
    assert block["first_token_ns"] <= block["last_token_ns"]
    envelope = result.envelope()
    assert envelope["decode"]["tokens_per_second"] > 0
    # Non-decode envelopes stay free of the block.
    assert "decode" not in Session().run("MLP-mnist").envelope()


def test_decode_workload_model_zoo_consistency():
    workload = get_workload("decode-gpt2-small-long")
    assert workload.prompt_tokens == 512
    assert workload.generated_tokens == 256
    assert workload.model == MODEL_ZOO["GPT-2"]
