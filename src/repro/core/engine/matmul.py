"""The shared photonic matmul primitive and tiled array executor.

Both accelerators compute dense products the same way: a K x N MR bank
array multiplies a weight tile against streamed input columns, partial
tile products accumulate electronically, and every cycle burns the same
laser / tuning / DAC / ADC energy.  This module is the canonical home of
that machinery (it was born in ``core/tron/attention_head.py``; GHOST's
transform units use it identically).

Device-physics curves — the per-cycle energy breakdown of an array — are
memoized per :class:`ArraySpec`, so design-space sweeps that revisit an
array geometry (or instantiate many units of the same geometry) never
recompute the microring tuning / laser working point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.engine.corners import ArrayContextPhysics, context_physics
from repro.core.engine.memo import LRUMemo
from repro.core.reports import EnergyReport
from repro.errors import ConfigurationError, YieldError
from repro.photonics.converters import ADC, DAC
from repro.photonics.devices import VCSEL
from repro.photonics.microring import MicroringDesign
from repro.photonics.mrbank import (
    MRBankArray,
    cycle_energy_breakdown_kernel,
    tile_cycles,
)
from repro.photonics.noise import AnalogNoiseModel
from repro.photonics.pcm import PCMCell
from repro.photonics.tuning import HybridTuner


def photonic_matmul(
    array: MRBankArray, weights: np.ndarray, inputs: np.ndarray
) -> np.ndarray:
    """W @ X computed by tiling onto a K x N MR bank array.

    Splits ``weights`` into (array.rows x array.cols) tiles; partial tile
    products accumulate electronically (the BPD output of each tile is one
    partial sum).  Analog noise, if the array has a noise model, applies
    per tile — matching how errors accumulate in hardware.

    Args:
        array: the MR bank array (its dims set the tile size).
        weights: (M, K) matrix held by the MR banks.
        inputs: (K,) vector or (K, B) matrix arriving on the waveguides.

    Returns:
        (M,) or (M, B) product.
    """
    weights = np.asarray(weights, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if weights.ndim != 2:
        raise ConfigurationError(f"weights must be 2-D, got shape {weights.shape}")
    squeeze = inputs.ndim == 1
    if squeeze:
        inputs = inputs[:, None]
    if inputs.shape[0] != weights.shape[1]:
        raise ConfigurationError(
            f"inner dims mismatch: weights {weights.shape}, inputs {inputs.shape}"
        )
    m, k = weights.shape
    batch = inputs.shape[1]
    out = np.zeros((m, batch))
    for row_start in range(0, m, array.rows):
        row_end = min(row_start + array.rows, m)
        for col_start in range(0, k, array.cols):
            col_end = min(col_start + array.cols, k)
            tile = np.zeros((array.rows, array.cols))
            tile[: row_end - row_start, : col_end - col_start] = weights[
                row_start:row_end, col_start:col_end
            ]
            block = np.zeros((array.cols, batch))
            block[: col_end - col_start, :] = inputs[col_start:col_end, :]
            partial = array.matmul(tile, block)
            out[row_start:row_end, :] += partial[: row_end - row_start, :]
    return out[:, 0] if squeeze else out


@dataclass(frozen=True)
class ArraySpec:
    """The physical signature of an MR bank array.

    Two arrays with equal specs share identical device physics, so this
    is the memoization key for energy curves.  All component models are
    frozen dataclasses, which makes the spec hashable.
    """

    rows: int
    cols: int
    clock_ghz: float = 5.0
    design: MicroringDesign = field(default_factory=MicroringDesign)
    dac: DAC = field(default_factory=DAC)
    adc: ADC = field(default_factory=ADC)
    weight_dacs_shared: int = 1
    pcm: Optional[PCMCell] = None

    @classmethod
    def from_config(cls, config, weight_dacs_shared: int = 1) -> "ArraySpec":
        """Spec from any config exposing the common array attributes
        (``array_rows``, ``array_cols``, ``clock_ghz``, ``design``,
        ``dac``, ``adc``, ``pcm``) — both TRONConfig and GHOSTConfig do."""
        return cls(
            rows=config.array_rows,
            cols=config.array_cols,
            clock_ghz=config.clock_ghz,
            design=config.design,
            dac=config.dac,
            adc=config.adc,
            weight_dacs_shared=weight_dacs_shared,
            pcm=config.pcm,
        )


#: (spec, weight magnitude, refresh window, context) -> per-cycle energy
#: breakdown.  The context component keeps corners apart: a variation
#: sample's correction tuning power never pollutes the nominal curve.
#: LRU-bounded (with eviction counters) so per-die loops — a fresh
#: context per seed — churn through it instead of growing it.
_BREAKDOWN_CACHE = LRUMemo("engine.breakdown", 256)


def _nominal_breakdown(
    spec: ArraySpec,
    array: MRBankArray,
    average_weight_magnitude: float,
    weight_refresh_cycles: int,
) -> Dict[str, float]:
    """The context-free per-cycle breakdown of one spec (memoized)."""
    key = (spec, average_weight_magnitude, weight_refresh_cycles, None)
    cached = _BREAKDOWN_CACHE.get(key)
    if cached is not None:
        return cached
    breakdown = array.cycle_energy_breakdown_pj(
        average_weight_magnitude=average_weight_magnitude,
        weight_refresh_cycles=weight_refresh_cycles,
    )
    _BREAKDOWN_CACHE.put(key, breakdown)
    return breakdown


def prime_breakdown_cache(
    requests: Iterable[Tuple[ArraySpec, float, int]]
) -> int:
    """Batch-compute nominal energy breakdowns for many specs at once.

    The sweep engine's physics pass: ``requests`` is an iterable of
    ``(spec, average_weight_magnitude, weight_refresh_cycles)``
    triples; specs sharing device models (ring design, converters — the
    transcendental-heavy inputs) are grouped and costed in **one**
    vectorized :func:`~repro.photonics.mrbank.cycle_energy_breakdown_kernel`
    call per group, then inserted into the in-process memo.  The kernel
    replicates the scalar operation order, so a primed entry is
    bit-identical to what :meth:`ArrayExecutor.energy_breakdown_pj`
    would have computed lazily.

    Specs with PCM weight cells cost through the scalar path (their
    program energy is a per-cell model call, not worth batching).

    Returns:
        The number of newly primed entries.
    """
    requests = list(requests)
    # A production grid can name more distinct geometries than the
    # serving-sized default bound; grow the memo to fit (capped) so the
    # priming loop cannot evict its own freshly primed entries before
    # the points run.
    distinct = len({(spec, mag, refresh) for spec, mag, refresh in requests})
    _BREAKDOWN_CACHE.max_entries = min(
        max(_BREAKDOWN_CACHE.max_entries, distinct + 64), 16384
    )
    groups: Dict[Tuple, list] = {}
    seen = set()
    primed = 0
    for spec, magnitude, refresh in requests:
        key = (spec, magnitude, refresh, None)
        if key in seen or key in _BREAKDOWN_CACHE:
            continue
        seen.add(key)
        if spec.pcm is not None:
            group_key = ("pcm", spec, magnitude, refresh)
        else:
            group_key = (spec.design, spec.dac, spec.adc, magnitude)
        groups.setdefault(group_key, []).append((spec, magnitude, refresh))
    for group_key, members in groups.items():
        if group_key[0] == "pcm":
            spec, magnitude, refresh = members[0]
            array = MRBankArray(
                rows=spec.rows,
                cols=spec.cols,
                design=spec.design,
                clock_ghz=spec.clock_ghz,
                dac=spec.dac,
                adc=spec.adc,
                weight_dacs_shared=spec.weight_dacs_shared,
                pcm=spec.pcm,
            )
            _nominal_breakdown(spec, array, magnitude, refresh)
            primed += 1
            continue
        design, dac, adc, magnitude = group_key
        rows = np.array([spec.rows for spec, _, _ in members])
        cols = np.array([spec.cols for spec, _, _ in members])
        clocks = np.array([spec.clock_ghz for spec, _, _ in members])
        shared = np.array([spec.weight_dacs_shared for spec, _, _ in members])
        refreshes = np.array([refresh for _, _, refresh in members])
        batched = cycle_energy_breakdown_kernel(
            rows,
            cols,
            clocks,
            design=design,
            dac=dac,
            adc=adc,
            vcsel=VCSEL(),
            tuner=HybridTuner(),
            weight_dacs_shared=shared,
            average_weight_magnitude=magnitude,
            weight_refresh_cycles=refreshes,
        )
        for i, (spec, _, refresh) in enumerate(members):
            breakdown = {
                name: float(values[i]) for name, values in batched.items()
            }
            _BREAKDOWN_CACHE.put((spec, magnitude, refresh, None), breakdown)
            primed += 1
    return primed


def nominal_breakdown_pj(
    spec: ArraySpec,
    average_weight_magnitude: float = 0.5,
    weight_refresh_cycles: int = 1,
) -> Dict[str, float]:
    """The context-free per-cycle breakdown of ``spec``, without
    constructing an executor.

    This is the array-resident (SoA) evaluators' entry point: they read
    one breakdown per distinct spec and broadcast it across a column of
    points, so the per-point ~100 us :class:`ArrayExecutor` construction
    never happens.  Backed by the same memo as the executor path, and
    primed through :func:`prime_breakdown_cache` so the values are
    bit-identical to the scalar path's.
    """
    key = (spec, average_weight_magnitude, weight_refresh_cycles, None)
    cached = _BREAKDOWN_CACHE.get(key)
    if cached is not None:
        return cached
    prime_breakdown_cache(
        [(spec, average_weight_magnitude, weight_refresh_cycles)]
    )
    cached = _BREAKDOWN_CACHE.get(key)
    if cached is not None:
        return cached
    # Unreachable in practice (priming always fills the memo), kept as a
    # safety net for cache-eviction races.
    array = MRBankArray(
        rows=spec.rows,
        cols=spec.cols,
        design=spec.design,
        clock_ghz=spec.clock_ghz,
        dac=spec.dac,
        adc=spec.adc,
        weight_dacs_shared=spec.weight_dacs_shared,
        pcm=spec.pcm,
    )
    return _nominal_breakdown(
        spec, array, average_weight_magnitude, weight_refresh_cycles
    )


@dataclass
class ArrayExecutor:
    """A tiled matmul executor over one MR bank array geometry.

    The executor owns the functional path (:meth:`matmul`) and the cost
    path (:meth:`cycles_for` / :meth:`energy_for_cycles`) every photonic
    unit in TRON and GHOST shares.

    Attributes:
        spec: the array's physical signature.
        noise: analog noise model for the functional path (None = ideal).
        ctx: execution context; a non-nominal context adds variation-
            correction tuning power to every cycle and yield-gates the
            usable array dimensions (``None`` = nominal corner).
    """

    spec: ArraySpec
    noise: Optional[AnalogNoiseModel] = None
    ctx: Optional[ExecutionContext] = None
    array: MRBankArray = field(init=False, repr=False)
    _physics: Optional[ArrayContextPhysics] = field(
        init=False, repr=False, default=None
    )

    def __post_init__(self) -> None:
        if self.ctx is not None and self.ctx.noise is not None:
            self.noise = self.ctx.noise
        self._physics = context_physics(self.spec, self.ctx)
        self.array = MRBankArray(
            rows=self.spec.rows,
            cols=self.spec.cols,
            design=self.spec.design,
            clock_ghz=self.spec.clock_ghz,
            dac=self.spec.dac,
            adc=self.spec.adc,
            noise=self.noise,
            weight_dacs_shared=self.spec.weight_dacs_shared,
            pcm=self.spec.pcm,
        )

    @classmethod
    def from_config(
        cls,
        config,
        weight_dacs_shared: int = 1,
        ctx: Optional[ExecutionContext] = None,
    ) -> "ArrayExecutor":
        """Executor for a TRON- or GHOST-style config (shared attributes)."""
        return cls(
            spec=ArraySpec.from_config(
                config, weight_dacs_shared=weight_dacs_shared
            ),
            noise=config.noise,
            ctx=ctx,
        )

    # ------------------------------------------------------------------
    # Functional model
    # ------------------------------------------------------------------

    def matmul(self, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """W @ X tiled over this array (see :func:`photonic_matmul`)."""
        return photonic_matmul(self.array, weights, inputs)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    @property
    def cycle_ns(self) -> float:
        """Photonic cycle time."""
        return 1.0 / self.spec.clock_ghz

    @property
    def usable_rows(self) -> int:
        """Array rows surviving the context's yield gating."""
        return self._physics.usable_rows if self._physics else self.spec.rows

    @property
    def usable_cols(self) -> int:
        """Array columns surviving the context's yield gating."""
        return self._physics.usable_cols if self._physics else self.spec.cols

    @property
    def macs_per_cycle(self) -> int:
        """Multiply-accumulates completed each photonic cycle (on the
        yield-gated portion of the array)."""
        return self.usable_rows * self.usable_cols

    def cycles_for(self, out_rows: int, inner: int, batch: int = 1) -> int:
        """Photonic cycles to tile a (out_rows x inner) @ (inner x batch)
        matmul over this array (its yield-gated dimensions, if a context
        gated any rows or columns).

        Raises:
            YieldError: if the context's die has no usable hardware.
        """
        if self._physics is None:
            return self.array.cycles_for(out_rows, inner, batch=batch)
        if not self._physics.functional:
            raise YieldError(
                f"sampled die has no usable {self.spec.rows}x"
                f"{self.spec.cols} array hardware "
                f"({self._physics.usable_rows}x{self._physics.usable_cols}"
                " usable)"
            )
        return tile_cycles(
            out_rows, inner, batch, self.usable_rows, self.usable_cols
        )

    def energy_breakdown_pj(
        self,
        average_weight_magnitude: float = 0.5,
        weight_refresh_cycles: int = 1,
    ) -> Dict[str, float]:
        """Memoized per-cycle laser / tuning / dac / adc energy split.

        The breakdown depends on the spec and the execution context (not
        on the noise model), so all executors with equal specs at the
        same corner share one cached curve; a non-nominal context adds
        its standing variation-correction power to the tuning term.

        The context-free base curve is memoized; corner curves derive
        from it by adding the corner's correction power, so a die sweep
        never recomputes the transcendental-heavy device physics per die.
        """
        if self._physics is None:
            return _nominal_breakdown(
                self.spec,
                self.array,
                average_weight_magnitude,
                weight_refresh_cycles,
            )
        key = (
            self.spec,
            average_weight_magnitude,
            weight_refresh_cycles,
            self.ctx,
        )
        cached = _BREAKDOWN_CACHE.get(key)
        if cached is not None:
            return cached
        breakdown = dict(
            _nominal_breakdown(
                self.spec,
                self.array,
                average_weight_magnitude,
                weight_refresh_cycles,
            )
        )
        breakdown["tuning_pj"] += (
            self._physics.correction_power_mw * self.cycle_ns
        )
        _BREAKDOWN_CACHE.put(key, breakdown)
        return breakdown

    def energy_for_cycles(
        self,
        cycles: int,
        weight_refresh_cycles: int = 1,
        average_weight_magnitude: float = 0.5,
    ) -> EnergyReport:
        """Photonic energy of ``cycles`` array cycles as an EnergyReport."""
        if cycles < 0:
            raise ConfigurationError(f"cycle count must be >= 0, got {cycles}")
        breakdown = self.energy_breakdown_pj(
            average_weight_magnitude=average_weight_magnitude,
            weight_refresh_cycles=weight_refresh_cycles,
        )
        return EnergyReport(
            laser_pj=cycles * breakdown["laser_pj"],
            tuning_pj=cycles * breakdown["tuning_pj"],
            dac_pj=cycles * breakdown["dac_pj"],
            adc_pj=cycles * breakdown["adc_pj"],
        )
