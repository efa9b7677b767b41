"""Bit-exactness of the array-resident (SoA) evaluation path.

The structure-of-arrays engine's contract is that it is *invisible* in
the numbers: every stacked column, every materialized report and every
frontier must be bit-identical to what the scalar oracle produces —
``Accelerator.run`` point by point for sweeps, one scalar run per
yield-signature unknown for Monte-Carlo.  These tests drive randomized configurations,
corners and seeds through both paths and compare exactly (``==`` on the
report dicts, never ``allclose``), including the degenerate shapes the
engine must survive: 1-point tensors, non-contiguous column views, and
populations where every die is yield-gated.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

import repro.workloads  # noqa: F401  (registers the default workloads)
import repro.analysis.robustness as robustness
from repro.analysis.robustness import _run_naive, run_monte_carlo
from repro.analysis.sweep import (
    _run_serial,
    ghost_sweep_space,
    pareto_frontier,
    run_sweep,
    run_sweep_with_stats,
    tron_sweep_space,
    with_corners,
)
from repro.core import ExecutionContext, GHOST, GHOSTConfig, TRON, TRONConfig
from repro.core.base import get_workload
from repro.core.context import resolve_corner, standard_corners
from repro.core.engine import (
    clear_physics_cache,
    soa_evaluator,
    workload_evaluator,
)
from repro.core.reports import StackedRunReports
from repro.errors import MappingError
from repro.photonics.variation import ProcessVariationModel
from repro.workloads import WorkloadSuite


MEMORY_BACKENDS = ("analytic", "hbm", "hbm-pim")

#: The scalar ``run`` error of GHOST on ``LLM-serving-mix``.
GHOST_BERT_ERROR = "GHOST cannot execute 'transformer' workload 'BERT-base'"


def _random_tron_configs(rng, n):
    return [
        TRONConfig(
            num_head_units=rng.choice((1, 2, 4, 8, 12)),
            array_rows=rng.choice((16, 32, 64, 128)),
            array_cols=rng.choice((16, 32, 64, 128)),
            clock_ghz=rng.choice((1.25, 2.5, 5.0)),
            batch=rng.choice((1, 2, 8)),
            memory_backend=rng.choice(MEMORY_BACKENDS),
        )
        for _ in range(n)
    ]


def _random_ghost_configs(rng, n):
    return [
        GHOSTConfig(
            lanes=rng.choice((2, 4, 16, 64)),
            edge_units=rng.choice((4, 8, 32, 128)),
            use_balancing=rng.choice((True, False)),
            use_partitioning=rng.choice((True, False)),
            memory_backend=rng.choice(MEMORY_BACKENDS),
        )
        for _ in range(n)
    ]


def _random_contexts(rng, n):
    corners = standard_corners()
    pool = [None] + [corners[name] for name in sorted(corners)]
    return [rng.choice(pool) for _ in range(n)]


def _assert_stack_matches_scalar(stacked, configs, contexts, make, workload):
    for i, (config, ctx) in enumerate(zip(configs, contexts)):
        want = make(config).run(workload, ctx=ctx).to_dict()
        assert stacked.materialize(i).to_dict() == want, f"point {i}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tron_random_configs_bit_identical(seed):
    rng = random.Random(seed)
    configs = _random_tron_configs(rng, 10)
    contexts = _random_contexts(rng, 10)
    workload = get_workload(rng.choice(("BERT-base", "ViT-base", "MLP-mnist")))
    evaluator = soa_evaluator("TRON", workload.kind)
    stacked = evaluator(configs, contexts, workload)
    _assert_stack_matches_scalar(stacked, configs, contexts, TRON, workload)


@pytest.mark.parametrize("seed", [3, 4])
def test_ghost_random_configs_bit_identical(seed):
    rng = random.Random(seed)
    configs = _random_ghost_configs(rng, 8)
    contexts = _random_contexts(rng, 8)
    workload = get_workload(
        rng.choice(("GCN-cora", "GAT-pubmed", "GRAPHSAGE-cora", "MLP-recsys"))
    )
    evaluator = soa_evaluator("GHOST", workload.kind)
    stacked = evaluator(configs, contexts, workload)
    _assert_stack_matches_scalar(stacked, configs, contexts, GHOST, workload)


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_suite_random_configs_bit_identical(seed):
    """The SUITE evaluator chains its members' columns exactly as
    ``Accelerator._merge_reports`` chains their scalar reports."""
    rng = random.Random(seed)
    configs = _random_tron_configs(rng, 8)
    contexts = _random_contexts(rng, 8)
    workload = get_workload("LLM-serving-mix")
    stacked = soa_evaluator("TRON", workload.kind)(configs, contexts, workload)
    assert stacked.workload == "LLM-serving-mix"
    for i, (config, ctx) in enumerate(zip(configs, contexts)):
        assert stacked.materialize(i) == TRON(config).run(workload, ctx=ctx)
    _assert_stack_matches_scalar(stacked, configs, contexts, TRON, workload)


def test_ghost_suite_bit_identical_and_unmappable_member_raises():
    rng = random.Random(9)
    configs = _random_ghost_configs(rng, 6)
    contexts = _random_contexts(rng, 6)
    suite = WorkloadSuite(
        suite_name="graph-mix",
        members=(get_workload("GCN-cora"), get_workload("MLP-recsys")),
    )
    evaluator = workload_evaluator("GHOST", suite)
    stacked = evaluator(configs, contexts, suite)
    _assert_stack_matches_scalar(stacked, configs, contexts, GHOST, suite)
    # GHOST cannot run a transformer member: the lookup declines the
    # suite, so callers take the scalar path and its own error text.
    mixed = get_workload("LLM-serving-mix")
    assert workload_evaluator("GHOST", mixed) is None
    with pytest.raises(MappingError) as scalar:
        GHOST(configs[0]).run(mixed)
    assert str(scalar.value) == GHOST_BERT_ERROR
    with pytest.raises(MappingError, match="no array-resident evaluator"):
        evaluator(configs, contexts, mixed)


def test_one_point_tensor_bit_identical():
    workload = get_workload("BERT-base")
    config = TRONConfig(num_head_units=3, array_rows=48, array_cols=96)
    ctx = resolve_corner("slow-hot", seed=11)
    evaluator = soa_evaluator("TRON", workload.kind)
    stacked = evaluator([config], [ctx], workload)
    assert len(stacked) == 1
    assert stacked.latency_ns.shape == (1,)
    want = TRON(config).run(workload, ctx=ctx).to_dict()
    assert stacked.materialize(0).to_dict() == want


def test_non_contiguous_column_views_materialize_identically():
    """Strided (non-contiguous) column views keep the exact numbers."""
    rng = random.Random(5)
    configs = _random_tron_configs(rng, 8)
    workload = get_workload("DistilBERT")
    evaluator = soa_evaluator("TRON", workload.kind)
    stacked = evaluator(configs, [None] * len(configs), workload)

    view = StackedRunReports(
        platform=stacked.platform,
        workload=stacked.workload,
        ops=stacked.ops[::2],
        latency={k: v[::2] for k, v in stacked.latency.items()},
        energy={k: v[::2] for k, v in stacked.energy.items()},
        bits_per_value=stacked.bits_per_value[::2],
        groups=stacked.groups,
    )
    assert any(
        not column.flags["C_CONTIGUOUS"] for column in view.latency.values()
    )
    direct = evaluator(configs[::2], [None] * len(configs[::2]), workload)
    assert np.array_equal(view.latency_ns, direct.latency_ns)
    assert np.array_equal(view.energy_pj, direct.energy_pj)
    for i in range(len(view)):
        assert view.materialize(i).to_dict() == direct.materialize(i).to_dict()


def _assert_same_points(soa_points, serial_points):
    assert len(soa_points) == len(serial_points)
    for soa_point, serial_point in zip(soa_points, serial_points):
        assert soa_point.label == serial_point.label
        assert soa_point.knobs == serial_point.knobs
        assert soa_point.report.to_dict() == serial_point.report.to_dict()


@pytest.mark.parametrize("corners_axis", [False, True])
def test_sweep_soa_matches_serial_oracle(corners_axis):
    for space in (
        tron_sweep_space(
            head_units=(2, 8), array_sizes=(32, 96), clocks_ghz=(2.5, 5.0)
        ),
        ghost_sweep_space(lanes=(4, 32), edge_units=(8, 64)),
    ):
        if corners_axis:
            corner_map = {
                name: resolve_corner(name, seed=3)
                for name in standard_corners()
            }
            space = with_corners(space, corner_map)
        clear_physics_cache()
        soa_points = run_sweep(space)
        clear_physics_cache()
        serial_points = _run_serial(space, space.evaluations())
        _assert_same_points(soa_points, serial_points)
        soa_frontier = pareto_frontier(soa_points)
        serial_frontier = pareto_frontier(serial_points)
        _assert_same_points(soa_frontier, serial_frontier)


def _assert_same_mc(a, b):
    assert np.array_equal(a.operational, b.operational)
    assert np.array_equal(a.fully_functional, b.fully_functional)
    assert np.array_equal(a.latency_ns, b.latency_ns, equal_nan=True)
    assert np.array_equal(a.energy_pj, b.energy_pj, equal_nan=True)
    assert np.array_equal(
        a.tuning_power_mw, b.tuning_power_mw, equal_nan=True
    )


@pytest.mark.parametrize(
    "platform, workload_name",
    [(TRON, "BERT-base"), (GHOST, "GCN-cora"), (TRON, "LLM-serving-mix")],
)
def test_mc_evaluator_bit_identical_to_scalar_fallback(
    monkeypatch, platform, workload_name
):
    # tuner_range_nm=5.0 lands the sampled dies on many distinct yield
    # signatures; the stacked evaluator call and the scalar loop over
    # the same pinned contexts must agree bit for bit on all of them.
    context = ExecutionContext(
        variation=ProcessVariationModel(), seed=7, tuner_range_nm=5.0
    )

    def run():
        return run_monte_carlo(
            platform, lambda: get_workload(workload_name), context,
            samples=48,
        )

    stacked = run()
    monkeypatch.setattr(robustness, "workload_evaluator", lambda *_: None)
    fallback = run()
    assert stacked.evaluation["groups"] > 1
    assert stacked.evaluation["fallback_points"] == 0
    assert fallback.evaluation["fallback_points"] == 48
    assert fallback.evaluation["groups"] == stacked.evaluation["groups"]
    _assert_same_mc(stacked, fallback)


@pytest.mark.parametrize(
    "platform, workload_name",
    [
        (TRON, "decode-gpt2-small"),
        (GHOST, "GCN-ba-temporal"),
    ],
)
def test_mc_kinds_without_evaluator_match_naive(platform, workload_name):
    """DECODE and TEMPORAL_GNN workloads have no registered evaluator:
    every die runs the scalar fallback and still matches the naive
    N-scalar-runs baseline."""
    context = ExecutionContext(
        variation=ProcessVariationModel(), seed=7, tuner_range_nm=8.5
    )
    samples = 16
    vectorized = run_monte_carlo(
        platform, lambda: get_workload(workload_name), context,
        samples=samples,
    )
    naive = _run_naive(
        platform, lambda: get_workload(workload_name), context, samples
    )
    assert vectorized.evaluation["fallback_points"] == samples
    assert vectorized.evaluation["groups"] > 1
    assert np.array_equal(vectorized.operational, naive.operational)
    assert np.array_equal(
        vectorized.fully_functional, naive.fully_functional
    )
    assert np.allclose(
        vectorized.latency_ns, naive.latency_ns, rtol=1e-9, equal_nan=True
    )
    assert np.allclose(
        vectorized.energy_pj, naive.energy_pj, rtol=1e-9, equal_nan=True
    )


def _decode_suite():
    return WorkloadSuite(
        suite_name="decode-mix",
        members=(get_workload("MLP-mnist"), get_workload("decode-gpt2-small")),
    )


def _temporal_suite():
    return WorkloadSuite(
        suite_name="temporal-mix",
        members=(get_workload("GCN-cora"), get_workload("GCN-ba-temporal")),
    )


@pytest.mark.parametrize(
    "platform, make_suite, space",
    [
        (
            TRON,
            _decode_suite,
            lambda: tron_sweep_space(
                head_units=(4, 8), array_sizes=(32,), clocks_ghz=(2.5,)
            ),
        ),
        (
            GHOST,
            _temporal_suite,
            lambda: ghost_sweep_space(lanes=(8, 16), edge_units=(16,)),
        ),
    ],
)
def test_suite_with_member_without_evaluator_runs_scalar(
    platform, make_suite, space
):
    """A suite holding a DECODE (TRON) or TEMPORAL_GNN (GHOST) member
    has no evaluator: sweeps and Monte-Carlo cost it scalar, exactly as
    ``run`` does."""
    assert workload_evaluator(platform.__name__, make_suite()) is None
    suite_space = replace(space(), build_workload=make_suite)
    points, stats = run_sweep_with_stats(suite_space)
    assert stats.fallback_points == len(points) == 2
    _assert_same_points(
        points, _run_serial(suite_space, suite_space.evaluations())
    )

    context = ExecutionContext(
        variation=ProcessVariationModel(), seed=7, tuner_range_nm=8.5
    )
    samples = 8
    vectorized = run_monte_carlo(platform, make_suite, context, samples)
    naive = _run_naive(platform, make_suite, context, samples)
    assert vectorized.evaluation["fallback_points"] == samples
    assert np.array_equal(vectorized.operational, naive.operational)
    assert np.allclose(
        vectorized.latency_ns, naive.latency_ns, rtol=1e-9, equal_nan=True
    )
    assert np.allclose(
        vectorized.energy_pj, naive.energy_pj, rtol=1e-9, equal_nan=True
    )


def test_unmappable_suite_member_keeps_scalar_error_text():
    """GHOST sweeps and Monte-Carlo of a suite with a transformer member
    raise GHOST's own scalar error, not an evaluator lookup error."""
    mixed_space = replace(
        ghost_sweep_space(lanes=(8,), edge_units=(16,)),
        build_workload=lambda: get_workload("LLM-serving-mix"),
    )
    with pytest.raises(MappingError) as swept:
        run_sweep(mixed_space)
    assert str(swept.value) == GHOST_BERT_ERROR
    context = ExecutionContext(variation=ProcessVariationModel(), seed=7)
    with pytest.raises(MappingError) as sampled:
        run_monte_carlo(
            GHOST, lambda: get_workload("LLM-serving-mix"), context, 4
        )
    assert str(sampled.value) == GHOST_BERT_ERROR


def test_mc_all_yield_gated_population():
    # A tuner range this tight kills every sampled die: the stacked
    # path must report the same all-NaN distributions and zero yield as
    # the naive scalar loop, without evaluating any group.
    context = ExecutionContext(
        variation=ProcessVariationModel(), seed=7, tuner_range_nm=0.25
    )
    soa = run_monte_carlo(
        TRON, lambda: get_workload("MLP-mnist"), context,
        samples=16,
    )
    naive = _run_naive(
        TRON, lambda: get_workload("MLP-mnist"), context, 16
    )
    assert not soa.operational.any()
    assert soa.yield_fraction == 0.0
    assert np.isnan(soa.latency_ns).all() and np.isnan(soa.energy_pj).all()
    assert soa.evaluation["groups"] == 0
    assert soa.evaluation["fallback_points"] == 0
    assert np.array_equal(soa.operational, naive.operational)
    assert np.array_equal(soa.latency_ns, naive.latency_ns, equal_nan=True)
    assert np.array_equal(soa.energy_pj, naive.energy_pj, equal_nan=True)


@pytest.mark.parametrize("workload_name", ["BERT-base", "MLP-mnist"])
def test_tron_pim_offload_columns_bit_identical(workload_name):
    """A stack mixing hbm-pim with non-offload points must reproduce the
    scalar offload restructuring (softmax-stage drop, spill + reduce
    extras) exactly — the np.where dual-pipeline selection is invisible
    in the numbers."""
    rng = random.Random(17)
    configs = [
        replace(config, memory_backend=backend)
        for config in _random_tron_configs(rng, 4)
        for backend in ("hbm-pim", "analytic", "hbm")
    ]
    contexts = _random_contexts(rng, len(configs))
    workload = get_workload(workload_name)
    evaluator = soa_evaluator("TRON", workload.kind)
    stacked = evaluator(configs, contexts, workload)
    _assert_stack_matches_scalar(stacked, configs, contexts, TRON, workload)


@pytest.mark.parametrize("workload_name", ["GCN-cora", "GAT-pubmed"])
def test_ghost_pim_offload_columns_bit_identical(workload_name):
    """GHOST's pim arm (aggregation offloaded to near-bank reduce, agg
    stage zeroed, two-stage pipeline) through the column path."""
    rng = random.Random(23)
    configs = [
        replace(config, memory_backend=backend)
        for config in _random_ghost_configs(rng, 3)
        for backend in ("hbm-pim", "hbm", "analytic")
    ]
    contexts = _random_contexts(rng, len(configs))
    workload = get_workload(workload_name)
    evaluator = soa_evaluator("GHOST", workload.kind)
    stacked = evaluator(configs, contexts, workload)
    _assert_stack_matches_scalar(stacked, configs, contexts, GHOST, workload)


def test_pinned_context_parity_with_scalar():
    # Pinned per-geometry physics (the serving engine's fast path) must
    # flow through the stacked evaluator exactly like the scalar one.
    from repro.core.context import PinnedArrayPhysics

    base = resolve_corner("typical", seed=2)
    config = TRONConfig(num_head_units=2, array_rows=64, array_cols=64)
    ctx = base.with_pinned(
        {(64, 64): PinnedArrayPhysics(62, 63, 2.5)}
    )
    workload = get_workload("MLP-mnist")
    evaluator = soa_evaluator("TRON", workload.kind)
    stacked = evaluator([config, config], [ctx, base], workload)
    _assert_stack_matches_scalar(
        stacked, [config, config], [ctx, base], TRON, workload
    )
