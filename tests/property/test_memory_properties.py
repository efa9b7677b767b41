"""Property-based invariants of the memory backends.

The laws pinned here hold for *every* transfer size and geometry, not
just the differential grid's corner points:

- **trace conservation** — data bytes summed over RD/WR commands equal
  the bytes requested, and energy summed over all commands equals the
  ``Traffic.energy_pj`` the closed form returned (the trace *is* the
  estimate, itemized);
- **monotonicity** — more bytes never cost less, in energy or latency;
- **zero traffic costs zero** — every primitive, both backends;
- **bank conflicts only hurt** — scattered access timing/energy bounds
  sequential from above, and the analytic penalty scales the same way;
- **closed form == loop oracle** — the segment arithmetic every call
  runs agrees with the per-burst walker (``hbm_walk.py``) on any
  geometry, any alignment, any corner: latencies bit-identical, energies
  to 1e-12 relative;
- **batch == scalar** — the vectorized ``*_batch`` evaluators reproduce
  the scalar primitives element by element, exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbm_walk import walk_scattered, walk_sequential, walk_stream
from repro.core.context import ExecutionContext, resolve_corner
from repro.core.engine import (
    HBMGeometry,
    HBMMemoryModel,
    MemoryModel,
    build_memory_backend,
)
from repro.core.ghost.config import GHOSTConfig
from repro.core.tron.config import TRONConfig

SYSTEMS = [TRONConfig().memory, GHOSTConfig().memory]

#: Transfer sizes small enough to trace exhaustively but spanning
#: partial bursts, partial rows and multi-row sequential runs.
sizes = st.integers(min_value=1, max_value=1 << 16)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
systems = st.sampled_from(SYSTEMS)

#: Corner axis shared by the differential properties (None = no context).
corners = st.sampled_from(
    [None, "nominal", "typical", "slow-hot", "fast-cold"]
)


@st.composite
def geometries(draw):
    """Randomized :class:`HBMGeometry` inside its validation envelope."""
    burst_bytes = draw(st.sampled_from([16, 32, 64]))
    bursts_per_row = draw(st.integers(min_value=1, max_value=64))
    refresh_interval = draw(st.floats(min_value=1000.0, max_value=8000.0))
    return HBMGeometry(
        bankgroups=draw(st.integers(min_value=1, max_value=8)),
        banks_per_group=draw(st.integers(min_value=1, max_value=8)),
        burst_bytes=burst_bytes,
        row_bytes=burst_bytes * bursts_per_row,
        trcd_ns=draw(st.floats(min_value=1.0, max_value=40.0)),
        trp_ns=draw(st.floats(min_value=1.0, max_value=40.0)),
        tfaw_ns=draw(st.floats(min_value=4.0, max_value=120.0)),
        refresh_interval_ns=refresh_interval,
        refresh_cycle_ns=draw(
            st.floats(min_value=1.0, max_value=refresh_interval * 0.5)
        ),
        activate_energy_fraction=draw(
            st.floats(min_value=0.01, max_value=0.99)
        ),
    )


def _edge_sizes(geometry, channels):
    """Alignment-critical byte counts for one geometry: empty, a single
    byte, sub-burst, exactly one full row per channel, and one byte
    either side of that row boundary."""
    full_rows = geometry.row_bytes * channels
    return [
        0,
        1,
        geometry.burst_bytes - 1,
        full_rows,
        full_rows - 1,
        full_rows + 1,
    ]


def _traced_model(system, seed=0):
    return HBMMemoryModel(
        system,
        context=ExecutionContext(seed=seed),
        geometry=HBMGeometry(op_trace=True),
    )


class TestTraceConservation:
    @given(system=systems, num_bytes=sizes, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_scattered_bytes_and_energy_conserved(
        self, system, num_bytes, seed
    ):
        model = _traced_model(system, seed)
        traffic = model.random_offchip(num_bytes, 4.0)
        assert model.trace.total_bytes == num_bytes
        assert math.isclose(
            model.trace.total_energy_pj, traffic.energy_pj, rel_tol=1e-9
        )

    @given(system=systems, num_bytes=sizes)
    @settings(max_examples=60, deadline=None)
    def test_sequential_bytes_and_energy_conserved(self, system, num_bytes):
        model = _traced_model(system)
        traffic = model.burst_offchip(num_bytes)
        assert model.trace.total_bytes == num_bytes
        assert math.isclose(
            model.trace.total_energy_pj, traffic.energy_pj, rel_tol=1e-9
        )

    @given(system=systems, num_bytes=sizes)
    @settings(max_examples=40, deadline=None)
    def test_store_bytes_conserved_as_writes(self, system, num_bytes):
        model = _traced_model(system)
        model.store_offchip(num_bytes)
        counts = model.trace.op_counts()
        assert counts["RD"] == 0 and counts["WR"] >= 1
        assert model.trace.total_bytes == num_bytes

    @given(system=systems, num_bytes=sizes)
    @settings(max_examples=40, deadline=None)
    def test_every_activate_gets_precharged(self, system, num_bytes):
        model = _traced_model(system)
        model.burst_offchip(num_bytes)
        model.random_offchip(num_bytes, 4.0)
        counts = model.trace.op_counts()
        assert counts["ACT"] == counts["PRE"]


class TestMonotonicity:
    @given(
        system=systems,
        smaller=sizes,
        extra=st.integers(min_value=0, max_value=1 << 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_hbm_costs_monotone_in_bytes(self, system, smaller, extra):
        model = HBMMemoryModel(system)
        larger = smaller + extra
        for method in (model.stream_offchip, model.burst_offchip):
            small, big = method(smaller), method(larger)
            assert big.energy_pj >= small.energy_pj
            assert big.latency_ns >= small.latency_ns
        small = model.random_offchip(smaller, 4.0)
        big = model.random_offchip(larger, 4.0)
        assert big.energy_pj >= small.energy_pj
        assert big.latency_ns >= small.latency_ns

    @given(
        system=systems,
        smaller=sizes,
        extra=st.integers(min_value=0, max_value=1 << 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_analytic_costs_monotone_in_bytes(self, system, smaller, extra):
        model = MemoryModel(system)
        larger = smaller + extra
        for method in (model.stream_offchip, model.burst_offchip):
            small, big = method(smaller), method(larger)
            assert big.energy_pj >= small.energy_pj
            assert big.latency_ns >= small.latency_ns


class TestZeroTraffic:
    @pytest.mark.parametrize("backend", ["analytic", "hbm", "hbm-pim"])
    @pytest.mark.parametrize("system", SYSTEMS, ids=["tron", "ghost"])
    def test_zero_bytes_cost_zero(self, backend, system):
        model = build_memory_backend(backend, system)
        assert model.stream_offchip(0) == (0.0, 0.0)
        assert model.burst_offchip(0) == (0.0, 0.0)
        assert model.random_offchip(0, 4.0) == (0.0, 0.0)
        assert model.bounce_onchip(0) == (0.0, 0.0)

    def test_zero_pim_reduce_costs_zero(self):
        model = build_memory_backend("hbm-pim", TRONConfig().memory)
        assert model.pim_reduce_cost(0, 0, 0) == (0.0, 0.0)


class TestBankConflicts:
    @given(system=systems, num_bytes=sizes)
    @settings(max_examples=60, deadline=None)
    def test_conflicted_bounds_conflict_free_from_above(
        self, system, num_bytes
    ):
        """Scattered (one ACT per burst, tFAW-paced) never beats a
        sequential bank-interleaved stream of the same bytes."""
        model = HBMMemoryModel(system)
        scattered = model.random_offchip(num_bytes, 4.0)
        sequential = model.burst_offchip(num_bytes)
        assert scattered.energy_pj >= sequential.energy_pj
        assert scattered.latency_ns >= sequential.latency_ns

    @given(
        system=systems,
        rows=st.integers(min_value=1, max_value=64),
        row_bytes=st.sampled_from([256, 1024, 2048]),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_aligned_streams_land_on_interface_energy(
        self, system, rows, row_bytes
    ):
        """The calibration law: a sequential stream that fills whole
        rows on every channel costs exactly the interface pJ/bit (the
        io + activate energy fractions sum to one per full row) —
        regardless of the row size chosen."""
        model = HBMMemoryModel(
            system, geometry=HBMGeometry(row_bytes=row_bytes)
        )
        num_bytes = rows * system.hbm.channels * row_bytes
        expected = num_bytes * 8 * system.hbm.energy_per_bit_pj
        assert math.isclose(
            model.burst_offchip(num_bytes).energy_pj, expected, rel_tol=1e-12
        )

    @given(system=systems, num_bytes=sizes)
    @settings(max_examples=40, deadline=None)
    def test_partial_rows_cost_at_least_the_interface_energy(
        self, system, num_bytes
    ):
        """Unaligned transfers still activate whole rows — energy can
        only exceed the interface figure, never undercut it."""
        model = HBMMemoryModel(system)
        floor = num_bytes * 8 * system.hbm.energy_per_bit_pj
        assert model.burst_offchip(num_bytes).energy_pj >= floor * (1 - 1e-12)

    @given(system=systems, num_bytes=sizes, penalty=st.floats(1.0, 16.0))
    @settings(max_examples=40, deadline=None)
    def test_analytic_penalty_scales_linearly(
        self, system, num_bytes, penalty
    ):
        model = MemoryModel(system)
        base = model.burst_offchip(num_bytes)
        penalized = model.random_offchip(num_bytes, penalty)
        assert math.isclose(
            penalized.energy_pj, base.energy_pj * penalty, rel_tol=1e-9
        )


class TestClosedFormVsLoopOracle:
    """The segment arithmetic every call runs (``_stream_compute`` /
    ``_sequential_dram`` / ``_random_compute``) against the retained
    per-burst walker (``hbm_walk``): latencies bit-identical (same final
    float expression over the same maxima), energies within 1e-12
    relative (closed form vs correctly rounded ``math.fsum``)."""

    @staticmethod
    def _assert_pair(got, want):
        assert got.latency_ns == want.latency_ns
        assert math.isclose(got.energy_pj, want.energy_pj, rel_tol=1e-12)

    @given(
        system=systems,
        geometry=geometries(),
        num_bytes=sizes,
        corner=corners,
    )
    @settings(max_examples=80, deadline=None)
    def test_random_geometry_random_size(
        self, system, geometry, num_bytes, corner
    ):
        ctx = None if corner is None else resolve_corner(corner, 0)
        model = HBMMemoryModel(system, context=ctx, geometry=geometry)
        self._assert_pair(
            model._stream_compute(num_bytes), walk_stream(model, num_bytes)
        )
        self._assert_pair(
            model._sequential_dram(num_bytes, "RD"),
            walk_sequential(model, num_bytes),
        )
        self._assert_pair(
            model._random_compute(num_bytes), walk_scattered(model, num_bytes)
        )

    @given(system=systems, geometry=geometries(), corner=corners)
    @settings(max_examples=60, deadline=None)
    def test_alignment_edges(self, system, geometry, corner):
        """Empty, single-byte, sub-burst, exact full-rows-per-channel
        and one byte either side of that boundary — where the ceil
        arithmetic flips."""
        ctx = None if corner is None else resolve_corner(corner, 0)
        model = HBMMemoryModel(system, context=ctx, geometry=geometry)
        for num_bytes in _edge_sizes(geometry, system.hbm.channels):
            self._assert_pair(
                model._stream_compute(num_bytes),
                walk_stream(model, num_bytes),
            )
            self._assert_pair(
                model._sequential_dram(num_bytes, "RD"),
                walk_sequential(model, num_bytes),
            )
            self._assert_pair(
                model._random_compute(num_bytes),
                walk_scattered(model, num_bytes),
            )

    @given(system=systems, num_bytes=sizes, corner=corners)
    @settings(max_examples=40, deadline=None)
    def test_public_primitives_return_the_closed_form(
        self, system, num_bytes, corner
    ):
        """What the memo caches *is* the closed form: the public
        primitives agree with the walker too, memo on the path."""
        ctx = None if corner is None else resolve_corner(corner, 0)
        model = HBMMemoryModel(system, context=ctx)
        self._assert_pair(
            model.burst_offchip(num_bytes), walk_sequential(model, num_bytes)
        )
        self._assert_pair(
            model.random_offchip(num_bytes, 4.0),
            walk_scattered(model, num_bytes),
        )


class TestBatchMatchesScalar:
    """The vectorized ``*_batch`` evaluators mirror the scalar float
    expressions term by term — equality here is exact (``==``), not
    approximate."""

    #: Alignment-spanning sizes shared by both backends' batch checks.
    BATCH_SIZES = [0, 1, 17, 31, 32, 33, 1023, 1024, 1025, 65536, 1 << 20]

    @given(system=systems, geometry=geometries(), corner=corners)
    @settings(max_examples=40, deadline=None)
    def test_hbm_batch_elementwise_exact(self, system, geometry, corner):
        ctx = None if corner is None else resolve_corner(corner, 0)
        model = HBMMemoryModel(system, context=ctx, geometry=geometry)
        nb = np.asarray(self.BATCH_SIZES, dtype=np.int64)
        for batch, scalar in (
            (model.stream_offchip_batch, model.stream_offchip),
            (model.burst_offchip_batch, model.burst_offchip),
            (model.store_offchip_batch, model.store_offchip),
            (model.bounce_onchip_batch, model.bounce_onchip),
        ):
            energy, latency = batch(nb)
            for i, n in enumerate(self.BATCH_SIZES):
                want = scalar(int(n))
                assert energy[i] == want.energy_pj, (scalar.__name__, n)
                assert latency[i] == want.latency_ns, (scalar.__name__, n)
        energy, latency = model.random_offchip_batch(nb, penalty=4.0)
        for i, n in enumerate(self.BATCH_SIZES):
            want = model.random_offchip(int(n), 4.0)
            assert energy[i] == want.energy_pj
            assert latency[i] == want.latency_ns

    @given(system=systems, corner=corners, penalty=st.floats(1.0, 16.0))
    @settings(max_examples=40, deadline=None)
    def test_analytic_batch_elementwise_exact(self, system, corner, penalty):
        ctx = None if corner is None else resolve_corner(corner, 0)
        model = MemoryModel(system, context=ctx)
        nb = np.asarray(self.BATCH_SIZES, dtype=np.int64)
        for batch, scalar in (
            (model.stream_offchip_batch, model.stream_offchip),
            (model.burst_offchip_batch, model.burst_offchip),
            (model.bounce_onchip_batch, model.bounce_onchip),
        ):
            energy, latency = batch(nb)
            for i, n in enumerate(self.BATCH_SIZES):
                want = scalar(int(n))
                assert energy[i] == want.energy_pj, (scalar.__name__, n)
                assert latency[i] == want.latency_ns, (scalar.__name__, n)
        energy, latency = model.random_offchip_batch(nb, penalty=penalty)
        for i, n in enumerate(self.BATCH_SIZES):
            want = model.random_offchip(int(n), penalty)
            assert energy[i] == want.energy_pj
            assert latency[i] == want.latency_ns

    def test_batch_penalty_below_one_rejected(self):
        from repro.errors import ConfigurationError

        for model in (
            MemoryModel(SYSTEMS[0]),
            HBMMemoryModel(SYSTEMS[0]),
        ):
            with pytest.raises(ConfigurationError, match="penalty"):
                model.random_offchip_batch(np.asarray([64]), penalty=0.5)


class TestBackendEquivalence:
    @given(system=systems, num_bytes=sizes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_registry_analytic_is_bit_identical(
        self, system, num_bytes, seed
    ):
        """The registry's 'analytic' arm returns the seed model —
        every primitive agrees exactly, any context, any size."""
        ctx = ExecutionContext(seed=seed)
        registered = build_memory_backend("analytic", system, context=ctx)
        direct = MemoryModel(system, context=ctx)
        assert registered.stream_offchip(num_bytes) == direct.stream_offchip(
            num_bytes
        )
        assert registered.burst_offchip(num_bytes) == direct.burst_offchip(
            num_bytes
        )
        assert registered.random_offchip(
            num_bytes, 4.0
        ) == direct.random_offchip(num_bytes, 4.0)

    @given(num_bytes=sizes)
    @settings(max_examples=30, deadline=None)
    def test_tracing_never_changes_the_numbers(self, num_bytes):
        """Observation must be free: a tracing model returns the same
        Traffic as an untraced twin."""
        system = GHOSTConfig().memory
        quiet = HBMMemoryModel(system)
        traced = _traced_model(system)
        assert traced.burst_offchip(num_bytes) == quiet.burst_offchip(
            num_bytes
        )
        assert traced.random_offchip(num_bytes, 4.0) == quiet.random_offchip(
            num_bytes, 4.0
        )
