"""Differential test harness: trace-driven HBM backend vs the analytic model.

Three layers of cross-validation:

1. **Frozen analytic seed values** — the analytic :class:`MemoryModel`
   numbers are pinned exactly (any drift is a default-path regression,
   not a tolerance question).
2. **Primitive differential agreement** — HBM/analytic cost ratios of
   every traffic primitive, across memory systems, transfer sizes and
   the standard corner grid, inside documented tolerance windows.
3. **Workload differential agreement** — full TRON (BERT-base) and
   GHOST (GCN-cora) runs under each backend, plus bit-identity of the
   default analytic path against golden envelopes and of the DRAM
   command trace against a golden fixture
   (``tools/regen_golden_traces.py`` regenerates both).

Documented tolerance windows (measured at >= 64 KiB transfers):

========================  ==================  =========================
ratio (HBM / analytic)    window              why the edges are there
========================  ==================  =========================
burst / stream energy     exact (1.0)         calibrated: a full-row
                                              sequential stream lands
                                              on the interface pJ/bit
burst latency             [1.00, 1.25]        tRCD startup + refresh
                                              overhead (tRFC/tREFI)
stream latency            [0.85, 1.25]        buffer-bound transfers
                                              hide DRAM timing; the
                                              thermal derate applies at
                                              device level (not post-
                                              ``max`` like analytic)
random energy             [1.00, 1.05]        per-burst ACT energy vs
                                              the flat 4x penalty
random latency            [0.95, 2.20]        tFAW-paced issue: wide
                                              interfaces (GHOST's 256
                                              Gb/s channels) are
                                              window-limited, not
                                              bandwidth-limited
========================  ==================  =========================
"""

import json
import pathlib

import pytest

from repro.api import Session
from repro.core.context import ExecutionContext, resolve_corner
from repro.core.engine import (
    CommandTrace,
    HBMGeometry,
    HBMMemoryModel,
    MemoryModel,
    build_memory_backend,
    list_memory_backends,
    memo,
)
from repro.core.engine.hbm import (
    OffloadScenario,
    attention_offload,
    crossover_point,
    gather_offload,
)
from repro.core.ghost.config import GHOSTConfig
from repro.core.tron.config import TRONConfig
from repro.errors import ConfigurationError

GOLDEN = pathlib.Path(__file__).parent.parent / "golden"

#: (label, MemorySystem) pairs the differential grid spans — the two
#: platforms' stock memory hierarchies (TRON: 128 Gb/s x 8ch; GHOST:
#: 256 Gb/s x 16ch).
SYSTEMS = [
    ("tron", TRONConfig().memory),
    ("ghost", GHOSTConfig().memory),
]

#: Transfer sizes of the differential grid (the tolerance windows are
#: documented for >= 64 KiB; below that, fixed ACT/tRCD overheads on a
#: tiny transfer legitimately dominate).
SIZES = [64 * 1024, 1 << 20, 16 << 20]

#: Corner axis of the grid (None = context-free).
CORNERS = [None, "typical", "slow-hot", "fast-cold"]


def _context(corner):
    return None if corner is None else resolve_corner(corner, 0)


def _pair(system, corner):
    ctx = _context(corner)
    return (
        MemoryModel(system, context=ctx),
        HBMMemoryModel(system, context=ctx),
    )


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------


class TestBackendRegistry:
    def test_stock_backends_registered(self):
        assert list_memory_backends() == ("analytic", "hbm", "hbm-pim")

    def test_analytic_is_the_plain_model(self):
        """Bit-identity of the default path starts here: the analytic
        builder returns the exact pre-existing class, not a subclass."""
        model = build_memory_backend("analytic", TRONConfig().memory)
        assert type(model) is MemoryModel

    def test_hbm_builders(self):
        system = TRONConfig().memory
        hbm = build_memory_backend("hbm", system)
        pim = build_memory_backend("hbm-pim", system)
        assert isinstance(hbm, HBMMemoryModel) and not hbm.pim_active
        assert isinstance(pim, HBMMemoryModel) and pim.pim_active

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ConfigurationError, match="analytic, hbm"):
            build_memory_backend("sram", TRONConfig().memory)

    def test_geometry_passes_through(self):
        geometry = HBMGeometry(row_bytes=2048)
        model = build_memory_backend(
            "hbm", TRONConfig().memory, geometry=geometry
        )
        assert model.geometry == geometry

    def test_config_validates_backend_name(self):
        with pytest.raises(ConfigurationError, match="registered backends"):
            TRONConfig(memory_backend="sram")
        with pytest.raises(ConfigurationError, match="registered backends"):
            GHOSTConfig(memory_backend="dram")


# ----------------------------------------------------------------------
# Layer 1: the analytic model is frozen at its seed values
# ----------------------------------------------------------------------


class TestAnalyticSeedValues:
    """Exact pins — the analytic backend must not move at all."""

    @pytest.mark.parametrize(
        "size, stream, burst, random4, bounce",
        [
            (
                65536,
                (2457600.0, 512.0),
                (2097152.0, 512.0),
                (8388608.0, 2048.0),
                (327680.0, 153.6),
            ),
            (
                1 << 20,
                (39321600.0, 8192.0),
                (33554432.0, 8192.0),
                (134217728.0, 32768.0),
                (5242880.0, 2457.6),
            ),
        ],
    )
    def test_tron_system_values(self, size, stream, burst, random4, bounce):
        model = MemoryModel(TRONConfig().memory)
        assert model.stream_offchip(size) == stream
        assert model.burst_offchip(size) == burst
        assert model.random_offchip(size, 4.0) == random4
        assert model.bounce_onchip(size) == pytest.approx(bounce)

    @pytest.mark.parametrize(
        "size, stream, burst, random4",
        [
            (65536, (2195456.0, 307.2), (1835008.0, 128.0), (7340032.0, 512.0)),
            (
                1 << 20,
                (35127296.0, 4915.2),
                (29360128.0, 2048.0),
                (117440512.0, 8192.0),
            ),
        ],
    )
    def test_ghost_system_values(self, size, stream, burst, random4):
        model = MemoryModel(GHOSTConfig().memory)
        assert model.stream_offchip(size) == pytest.approx(stream)
        assert model.burst_offchip(size) == burst
        assert model.random_offchip(size, 4.0) == random4

    def test_registry_analytic_matches_direct_construction(self):
        system = GHOSTConfig().memory
        ctx = resolve_corner("slow-hot", 3)
        via_registry = build_memory_backend("analytic", system, context=ctx)
        direct = MemoryModel(system, context=ctx)
        for size in SIZES:
            assert via_registry.stream_offchip(size) == direct.stream_offchip(
                size
            )
            assert via_registry.random_offchip(
                size, 4.0
            ) == direct.random_offchip(size, 4.0)


# ----------------------------------------------------------------------
# Layer 2: primitive differential agreement
# ----------------------------------------------------------------------


@pytest.mark.parametrize("corner", CORNERS)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("label, system", SYSTEMS)
class TestPrimitiveDifferential:
    def test_sequential_energy_exact(self, label, system, size, corner):
        """Row-aligned sequential streams land exactly on the interface
        energy figure (io + activate fractions sum to 1 per row)."""
        analytic, hbm = _pair(system, corner)
        assert hbm.burst_offchip(size).energy_pj == pytest.approx(
            analytic.burst_offchip(size).energy_pj, rel=1e-12
        )
        assert hbm.stream_offchip(size).energy_pj == pytest.approx(
            analytic.stream_offchip(size).energy_pj, rel=1e-12
        )

    def test_burst_latency_window(self, label, system, size, corner):
        analytic, hbm = _pair(system, corner)
        ratio = (
            hbm.burst_offchip(size).latency_ns
            / analytic.burst_offchip(size).latency_ns
        )
        assert 1.00 <= ratio <= 1.25

    def test_stream_latency_window(self, label, system, size, corner):
        analytic, hbm = _pair(system, corner)
        ratio = (
            hbm.stream_offchip(size).latency_ns
            / analytic.stream_offchip(size).latency_ns
        )
        assert 0.85 <= ratio <= 1.25

    def test_random_energy_window(self, label, system, size, corner):
        analytic, hbm = _pair(system, corner)
        ratio = (
            hbm.random_offchip(size, 4.0).energy_pj
            / analytic.random_offchip(size, 4.0).energy_pj
        )
        assert 1.00 <= ratio <= 1.05

    def test_random_latency_window(self, label, system, size, corner):
        """Wide windows by design: GHOST's 256 Gb/s channels make the
        four-activate window (tFAW/4 = 7.5 ns/access) the bottleneck
        where the analytic 4x penalty assumes bandwidth-limited issue."""
        analytic, hbm = _pair(system, corner)
        ratio = (
            hbm.random_offchip(size, 4.0).latency_ns
            / analytic.random_offchip(size, 4.0).latency_ns
        )
        assert 0.95 <= ratio <= 2.20

    def test_bounce_identical(self, label, system, size, corner):
        """On-chip traffic never touches DRAM; both backends share it."""
        analytic, hbm = _pair(system, corner)
        assert hbm.bounce_onchip(size) == analytic.bounce_onchip(size)


class TestDifferentialStructure:
    """Cross-cutting relations the grid above cannot see."""

    @pytest.mark.parametrize("label, system", SYSTEMS)
    def test_random_costs_more_than_burst(self, label, system):
        hbm = HBMMemoryModel(system)
        for size in SIZES:
            rnd = hbm.random_offchip(size, 4.0)
            seq = hbm.burst_offchip(size)
            assert rnd.energy_pj > seq.energy_pj
            assert rnd.latency_ns > seq.latency_ns

    def test_derate_stretches_hbm_latency(self):
        system = TRONConfig().memory
        nominal = HBMMemoryModel(system)
        hot = HBMMemoryModel(system, context=resolve_corner("slow-hot", 0))
        size = 1 << 20
        assert (
            hot.burst_offchip(size).latency_ns
            > nominal.burst_offchip(size).latency_ns
        )
        assert hot.burst_offchip(size).energy_pj == pytest.approx(
            nominal.burst_offchip(size).energy_pj
        )

    def test_store_matches_read_timing(self):
        hbm = HBMMemoryModel(TRONConfig().memory)
        size = 1 << 20
        assert hbm.store_offchip(size) == hbm.burst_offchip(size)

    def test_tighter_timing_is_slower(self):
        system = TRONConfig().memory
        relaxed = HBMMemoryModel(system, geometry=HBMGeometry())
        tight = HBMMemoryModel(
            system, geometry=HBMGeometry(tfaw_ns=120.0, trcd_ns=28.0)
        )
        size = 1 << 20
        assert (
            tight.random_offchip(size, 4.0).latency_ns
            > relaxed.random_offchip(size, 4.0).latency_ns
        )


# ----------------------------------------------------------------------
# Layer 3: workload differential agreement + golden bit-identity
# ----------------------------------------------------------------------

#: (workload, platform) pairs the end-to-end differential pins — one
#: TRON transformer and one GHOST GNN, per the acceptance bar.
WORKLOADS = [("BERT-base", "tron"), ("GCN-cora", "ghost")]


@pytest.mark.parametrize("corner", ["nominal", "typical", "slow-hot"])
@pytest.mark.parametrize("workload, platform", WORKLOADS)
class TestWorkloadDifferential:
    def test_hbm_backend_tracks_analytic(self, workload, platform, corner):
        """Memory is a minority of both workloads' ledgers, so the
        end-to-end ratio windows are tight: the HBM backend must
        reproduce the analytic totals to within a few percent energy
        and ~12% latency (the burst-latency overhead, diluted)."""
        session = Session()
        analytic = session.run(workload, platform=platform, corner=corner)
        hbm = session.run(
            workload, platform=platform, corner=corner, memory_backend="hbm"
        )
        energy_ratio = hbm.report.energy_pj / analytic.report.energy_pj
        latency_ratio = hbm.report.latency_ns / analytic.report.latency_ns
        assert 1.00 <= energy_ratio <= 1.02
        assert 1.00 <= latency_ratio <= 1.12

    def test_pim_backend_changes_the_run(self, workload, platform, corner):
        """PIM offload restructures the pipeline — the report must move
        (this guards against the offload path silently not engaging)."""
        session = Session()
        analytic = session.run(workload, platform=platform, corner=corner)
        pim = session.run(
            workload,
            platform=platform,
            corner=corner,
            memory_backend="hbm-pim",
        )
        assert pim.report.energy_pj != analytic.report.energy_pj
        assert pim.report.latency_ns != analytic.report.latency_ns
        # Sanity bounds: offload is not free and not absurd.
        assert 1.0 < pim.report.energy_pj / analytic.report.energy_pj < 1.5
        assert 0.5 < pim.report.latency_ns / analytic.report.latency_ns < 4.0


class TestGoldenEnvelopes:
    """The default analytic path is byte-identical to the seed."""

    @pytest.mark.parametrize(
        "workload, fixture",
        [
            ("BERT-base", "run_bert_base_analytic.json"),
            ("GCN-cora", "run_gcn_cora_analytic.json"),
        ],
    )
    def test_default_envelope_bit_identical(self, workload, fixture):
        golden = json.loads((GOLDEN / "envelopes" / fixture).read_text())
        envelope = Session().run(workload).envelope()
        assert envelope == golden

    def test_default_envelope_has_no_memory_block(self):
        assert "memory" not in Session().run("MLP-mnist").envelope()


class TestGoldenTrace:
    """The DRAM command trace is bit-stable under a fixed seed.

    The pinned workload (mirrored by ``tools/regen_golden_traces.py`` —
    keep the two in sync) is a stream + store + scattered read on the
    stock TRON memory system at seed 7.
    """

    @staticmethod
    def _pinned_trace() -> CommandTrace:
        model = HBMMemoryModel(
            TRONConfig().memory,
            context=ExecutionContext(seed=7),
            geometry=HBMGeometry(op_trace=True),
        )
        model.stream_offchip(4096)
        model.store_offchip(1024)
        model.random_offchip(512, 4.0)
        return model.trace

    def test_matches_golden_fixture(self):
        golden = (GOLDEN / "hbm_small.dramtrace").read_text()
        assert self._pinned_trace().format() == golden

    def test_trace_deterministic_across_models(self):
        assert (
            self._pinned_trace().format() == self._pinned_trace().format()
        )

    def test_seed_moves_scattered_addresses(self):
        base = self._pinned_trace()
        other_model = HBMMemoryModel(
            TRONConfig().memory,
            context=ExecutionContext(seed=8),
            geometry=HBMGeometry(op_trace=True),
        )
        other_model.stream_offchip(4096)
        other_model.store_offchip(1024)
        other_model.random_offchip(512, 4.0)
        assert other_model.trace.format() != base.format()
        # ...but only the scattered tail differs; command counts agree.
        assert other_model.trace.op_counts() == base.op_counts()

    def test_trace_limit_is_an_error_not_truncation(self):
        model = HBMMemoryModel(
            TRONConfig().memory,
            geometry=HBMGeometry(op_trace=True, trace_limit=4),
        )
        with pytest.raises(ConfigurationError, match="trace_limit"):
            model.stream_offchip(1 << 16)


# ----------------------------------------------------------------------
# The movement-cost memo
# ----------------------------------------------------------------------


def movement_stats():
    return memo.stats("engine.movement")["engine.movement"]


class TestMovementMemo:
    """The LRU memo in front of the HBM(-PIM) costing primitives."""

    def setup_method(self):
        from repro.core.engine import clear_physics_cache

        clear_physics_cache()

    def test_repeat_calls_hit(self):
        model = HBMMemoryModel(TRONConfig().memory)
        before = movement_stats()
        first = model.burst_offchip(1 << 20)
        second = model.burst_offchip(1 << 20)
        after = movement_stats()
        assert second == first
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_key_separates_patterns_sizes_and_derate(self):
        from repro.core.context import resolve_corner

        nominal = HBMMemoryModel(TRONConfig().memory)
        hot = HBMMemoryModel(
            TRONConfig().memory, context=resolve_corner("slow-hot", 0)
        )
        before = movement_stats()["misses"]
        nominal.burst_offchip(4096)
        nominal.burst_offchip(8192)       # different bytes
        nominal.random_offchip(4096, 4.0)  # different pattern
        hot.burst_offchip(4096)            # different derate
        assert movement_stats()["misses"] == before + 4

    def test_store_and_burst_use_distinct_patterns(self):
        """Same numbers, different op — a WR trace must never be served
        from a RD entry, so the patterns key separately."""
        model = HBMMemoryModel(TRONConfig().memory)
        before = movement_stats()["misses"]
        assert model.burst_offchip(2048) == model.store_offchip(2048)
        assert movement_stats()["misses"] == before + 2

    def test_tracing_models_bypass_the_memo(self):
        """A cache hit would skip the command-recording side effect."""
        model = HBMMemoryModel(
            TRONConfig().memory, geometry=HBMGeometry(op_trace=True)
        )
        before = movement_stats()
        model.burst_offchip(4096)
        model.burst_offchip(4096)
        after = movement_stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
        assert model.trace.op_counts()["RD"] == 256

    def test_clear_physics_cache_drops_movement_entries(self):
        from repro.core.engine import clear_physics_cache

        model = HBMMemoryModel(TRONConfig().memory)
        model.burst_offchip(1 << 16)
        clear_physics_cache()
        misses = movement_stats()["misses"]
        model.burst_offchip(1 << 16)
        assert movement_stats()["misses"] == misses + 1

    def test_stats_surface_in_physics_cache_stats(self):
        from repro.core.engine import physics_cache_stats

        stats = physics_cache_stats()
        assert {"hits", "misses", "evictions"} <= set(stats["movement"])
        assert {"hits", "misses", "evictions"} <= set(stats["context_physics"])

    def test_invalid_penalty_rejected_before_the_memo(self):
        """Validation must not depend on cache state: a bad penalty
        raises even when the same transfer is already memoized."""
        model = HBMMemoryModel(TRONConfig().memory)
        model.random_offchip(4096, 4.0)
        with pytest.raises(ConfigurationError, match="penalty"):
            model.random_offchip(4096, 0.5)


# ----------------------------------------------------------------------
# Lazy trace synthesis
# ----------------------------------------------------------------------


class TestLazyTraceSynthesis:
    """Deferred command materialization: costing never walks bursts."""

    @staticmethod
    def _traced_model(**geometry_kwargs):
        return HBMMemoryModel(
            TRONConfig().memory,
            context=ExecutionContext(seed=7),
            geometry=HBMGeometry(op_trace=True, **geometry_kwargs),
        )

    def test_costing_defers_synthesis(self):
        model = self._traced_model()
        model.burst_offchip(4096)
        model.random_offchip(512, 4.0)
        # Counted eagerly (closed form), synthesized not at all.
        assert len(model.trace) > 0
        assert model.trace.pending == len(model.trace)

    def test_reading_materializes_and_counts_agree(self):
        model = self._traced_model()
        model.burst_offchip(4096)
        expected = len(model.trace)
        counts = model.trace.op_counts()
        assert model.trace.pending == 0
        assert sum(counts.values()) == expected
        geo = model.geometry
        channels = model.system.hbm.channels
        total = -(-4096 // geo.burst_bytes)
        assert expected == geo.sequential_command_count(total, channels)

    def test_limit_raises_before_any_synthesis(self):
        model = self._traced_model(trace_limit=64)
        with pytest.raises(ConfigurationError, match="trace"):
            model.burst_offchip(1 << 20)
        # The failed transfer synthesized nothing.
        assert model.trace.pending == 0

    def test_deferred_count_mismatch_is_an_error(self):
        trace = CommandTrace(limit=10)
        trace.defer(2, lambda: [])
        with pytest.raises(ConfigurationError, match="expected 2"):
            trace.commands

    def test_scattered_synthesis_only_runs_when_read(self):
        """The LCG address scatter is part of synthesis, not costing —
        the fix for the old eager per-burst walk on every call."""
        model = self._traced_model()
        model.random_offchip(512, 4.0)
        geo = model.geometry
        total = -(-512 // geo.burst_bytes)
        assert model.trace.pending == geo.scattered_command_count(total)
        # ...and deferral is invisible in the numbers: an untraced twin
        # prices the same transfer identically.
        quiet = HBMMemoryModel(
            TRONConfig().memory, context=ExecutionContext(seed=7)
        )
        traced_again = self._traced_model()
        assert quiet.random_offchip(512, 4.0) == traced_again.random_offchip(
            512, 4.0
        )


# ----------------------------------------------------------------------
# PIM offload scenarios
# ----------------------------------------------------------------------


class TestPIMOffload:
    def test_pim_reduce_requires_pim_backend(self):
        plain = HBMMemoryModel(TRONConfig().memory)
        with pytest.raises(ConfigurationError, match="hbm-pim"):
            plain.pim_reduce_cost(1024, 128, 1000)

    def test_pim_reduce_cheaper_than_interface_round_trip(self):
        """The point of near-bank reduction: moving less data across
        the interface must beat streaming everything out and back."""
        model = HBMMemoryModel(GHOSTConfig().memory, pim=True)
        in_bytes = 8 << 20
        out_bytes = 64 * 1024
        reduce = model.pim_reduce_cost(in_bytes, out_bytes, macs=in_bytes)
        round_trip = model.burst_offchip(in_bytes)
        assert reduce.energy_pj < round_trip.energy_pj

    def test_gather_offload_reports_both_arms(self):
        model = HBMMemoryModel(GHOSTConfig().memory, pim=True)
        scenario = gather_offload(
            model,
            num_nodes=2708,
            num_edges=10556,
            feature_dim=1433,
            out_dim=64,
            bits=4,
        )
        assert isinstance(scenario, OffloadScenario)
        assert scenario.photonic.energy_pj > 0
        assert scenario.pim.energy_pj > 0
        payload = scenario.to_dict()
        assert set(payload) >= {"scenario", "photonic", "pim"}

    def test_attention_offload_scales_with_sequence(self):
        model = HBMMemoryModel(TRONConfig().memory, pim=True)
        short = attention_offload(
            model, seq_len=128, d_model=768, num_heads=12, bits=4
        )
        long = attention_offload(
            model, seq_len=512, d_model=768, num_heads=12, bits=4
        )
        assert long.pim.energy_pj > short.pim.energy_pj
        assert long.photonic.energy_pj > short.photonic.energy_pj

    def test_crossover_point_reports_first_win(self):
        model = HBMMemoryModel(TRONConfig().memory, pim=True)
        seqs = [64, 128, 256, 512, 1024, 2048]
        crossover = crossover_point(
            seqs,
            lambda seq: attention_offload(
                model, seq_len=seq, d_model=768, num_heads=12, bits=4
            ),
            metric="energy",
        )
        # Either PIM wins somewhere on the sweep (and the crossover is
        # one of the swept values) or it never does (None) — both are
        # legitimate outcomes; the report must be consistent either way.
        if crossover is not None:
            assert crossover in seqs
            scenario = attention_offload(
                model, seq_len=crossover, d_model=768, num_heads=12, bits=4
            )
            assert scenario.offload_wins_energy

    def test_offload_helpers_reject_non_pim_models(self):
        plain = HBMMemoryModel(TRONConfig().memory)
        with pytest.raises(ConfigurationError, match="pim"):
            attention_offload(
                plain, seq_len=128, d_model=768, num_heads=12, bits=4
            )
