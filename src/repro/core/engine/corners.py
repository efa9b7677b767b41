"""Per-context array physics: variation sampling, TED power, yield gating.

Given an array geometry and an :class:`~repro.core.context.ExecutionContext`,
this module answers the three questions the cost model needs:

1. **How much standing tuning power does variation correction cost?**
   Each ring's sampled resonance error (plus the thermal corner's uniform
   drift) folds into ``[-FSR/2, FSR/2]`` and becomes a heater temperature
   target; the bank's heater powers come from the thermal-eigenmode
   solve ``P = K^-1 T`` over the :class:`ThermalGrid` coupling matrix
   (negative solutions clipped — a heater cannot cool), or from naive
   per-ring control when TED is disabled.
2. **Which rows/columns survive yield gating?**  A ring whose folded
   error exceeds the tuner range is dead; a weight row is usable only if
   all its rings are correctable, and the input bank's dead rings gate
   the usable columns.
3. **Is the die functional at all?**  Zero usable rows or columns means
   the sample cannot execute anything.

Physics is memoized per ``(geometry, context)`` — one die — and the
batched entry points (Monte-Carlo populations, serving die lists)
assemble from that one memo, drawing only the dies it has not seen in
one :func:`_evaluate_batch` pass.  Sweeps, Monte-Carlo runs and serving
traffic that revisit a corner, a population or a die never recompute it.
Every die draws from its own seeded generator and the TED solve is a
3-point stencil of element-wise float32 operations (no BLAS), so a die's
physics is the same bytes whichever batch draws it and on whichever CPU.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, Tuple

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.engine.memo import LRUMemo
from repro.errors import ConfigurationError
from repro.photonics.microring import MicroringDesign, design_working_point
from repro.photonics.thermal import ThermalGrid

#: Default tuner range as a fraction of the FSR when the context does not
#: pin one — matches :func:`repro.photonics.variation.variation_impact`.
DEFAULT_TUNER_RANGE_FSR_FRACTION = 0.55

#: Self-heating coefficient of the naive (no-TED) per-ring controller —
#: the diagonal of the :class:`ThermalGrid` coupling matrix.
_NAIVE_KELVIN_PER_MW = ThermalGrid(num_heaters=1).kelvin_per_mw


@dataclass(frozen=True)
class ArrayContextPhysics:
    """Context-dependent physics of one MR bank array geometry.

    Attributes:
        usable_rows / usable_cols: yield-gated array dimensions.
        correction_power_mw: standing heater power correcting every
            correctable ring of the array (all banks).
        ring_yield: fraction of the array's rings that are correctable.
        mean_correction_nm: mean |folded error| over correctable rings.
    """

    usable_rows: int
    usable_cols: int
    correction_power_mw: float
    ring_yield: float = 1.0
    mean_correction_nm: float = 0.0

    @property
    def functional(self) -> bool:
        """Whether the sampled die can execute at all."""
        return self.usable_rows >= 1 and self.usable_cols >= 1


@dataclass(frozen=True)
class BatchContextPhysics:
    """Vectorized context physics of N variation samples (one geometry).

    All arrays have shape ``(samples,)``.
    """

    usable_rows: np.ndarray
    usable_cols: np.ndarray
    correction_power_mw: np.ndarray
    ring_yield: np.ndarray
    mean_correction_nm: np.ndarray

    @property
    def samples(self) -> int:
        return len(self.correction_power_mw)

    @property
    def functional(self) -> np.ndarray:
        """Boolean mask of samples with any usable hardware."""
        return (self.usable_rows >= 1) & (self.usable_cols >= 1)

    @property
    def fully_functional(self) -> np.ndarray:
        """Boolean mask of samples with no yield-gated rows or columns
        (the classic "all rings correctable" bank-yield criterion)."""
        return self.ring_yield >= 1.0

    def sample(self, index: int) -> ArrayContextPhysics:
        """The scalar physics record of one sample."""
        return ArrayContextPhysics(
            usable_rows=int(self.usable_rows[index]),
            usable_cols=int(self.usable_cols[index]),
            correction_power_mw=float(self.correction_power_mw[index]),
            ring_yield=float(self.ring_yield[index]),
            mean_correction_nm=float(self.mean_correction_nm[index]),
        )


#: (rows, cols, design, context) -> scalar physics record of one die.
#: LRU-bounded (with eviction counters) so per-die loops (a fresh context
#: per seed) churn through it instead of growing it; one 256-die
#: Monte-Carlo population fits.
_PHYSICS_CACHE = LRUMemo("engine.context_physics", 256)
#: The per-die record's fields, in BatchContextPhysics order.
_FIELDS = fields(ArrayContextPhysics)
_field_values = attrgetter(*(field.name for field in _FIELDS))
#: design -> FSR at 1550 nm.
_FSR_CACHE = LRUMemo("engine.design_fsr", 64)
#: Per-thread scratch of the batched passes.  Their temporaries run to
#: megabytes, past the allocator's mmap threshold, so fresh ones would
#: be mapped and page-faulted in again on every call.
_SCRATCH = threading.local()


def _scratch(name: str, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """This thread's reusable ``name`` buffer, viewed as ``shape``."""
    size = int(np.prod(shape))
    buffer = getattr(_SCRATCH, name, None)
    if buffer is None or buffer.size < size:
        buffer = np.empty(size, dtype=dtype)
        setattr(_SCRATCH, name, buffer)
    return buffer[:size].reshape(shape)


def _design_fsr_nm(design: MicroringDesign) -> float:
    """FSR at 1550 nm, via the shared photonics working-point kernel."""
    fsr = _FSR_CACHE.get(design)
    if fsr is None:
        fsr = float(design_working_point(design).fsr_nm)
        _FSR_CACHE.put(design, fsr)
    return fsr


def _fold_errors_nm_inplace(
    errors_nm: np.ndarray, offset_nm: float, fsr_nm: float
) -> np.ndarray:
    """Shift errors by the thermal offset and fold into [-FSR/2, FSR/2]
    (a ring can lock to the adjacent resonance order instead of heating
    across a full FSR).  Mutates and returns ``errors_nm``.

    Folds via ``x - FSR * floor((x + FSR/2) / FSR)`` — an order of
    magnitude faster than ``np.mod`` on the batched arrays.
    """
    half = 0.5 * fsr_nm
    errors_nm += offset_nm
    orders = np.add(errors_nm, half, out=_scratch("orders", errors_nm.shape))
    orders *= 1.0 / fsr_nm
    np.floor(orders, out=orders)
    orders *= fsr_nm
    errors_nm -= orders
    return errors_nm


def _draw_die_errors_nm(
    contexts, rows: int, cols: int
) -> np.ndarray:
    """Sampled resonance errors (nm) of every ring, one die per context.

    Shape ``(len(contexts), rows + 1, cols)``: bank 0 is the input bank,
    banks 1..rows the weight banks.  Errors are correlated through one
    die-level component (thickness varies slowly across a wafer), as in
    :meth:`ProcessVariationModel.sample_resonance_errors`.  Each die
    draws from its own seeded generator; the correlation scaling is
    applied in one batched pass.  The result is this thread's scratch
    buffer, valid until the next call.
    """
    banks = rows + 1
    # float32 throughout: resonance errors are physical nanometre-scale
    # quantities modelled to a few per-mille at best, and single
    # precision halves the memory traffic of the batched passes.
    errors = _scratch("errors", (len(contexts), banks, cols))
    variation = contexts[0].variation
    if variation is None:
        errors.fill(0.0)
        return errors
    sigma = variation.resonance_sigma_nm
    rho = variation.intra_die_correlation
    shared = np.empty(len(contexts), dtype=np.float32)
    for i, ctx in enumerate(contexts):
        rng = np.random.default_rng((ctx.seed, rows, cols))
        shared[i] = rng.standard_normal(dtype=np.float32)
        rng.standard_normal(out=errors[i], dtype=np.float32)
    errors *= np.float32(sigma * np.sqrt(1.0 - rho))
    errors += np.float32(sigma * np.sqrt(rho)) * shared[:, None, None]
    return errors


def _physics_from_folded(
    folded_nm: np.ndarray,
    ctx: ExecutionContext,
    range_nm: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched yield gating + heater solve over folded errors.

    Args:
        folded_nm: ``(samples, banks, cols)`` folded resonance errors.
        ctx: the evaluation context (TED flag, thermal drift).
        range_nm: tuner correction range.

    Returns:
        ``(usable_rows, usable_cols, correction_power_mw, ring_yield,
        mean_correction_nm)`` arrays of shape ``(samples,)``.
    """
    samples, banks, cols = folded_nm.shape
    # The folded errors are consumed here, so all passes run in place.
    magnitude = np.abs(folded_nm, out=folded_nm)
    correctable = np.less_equal(
        magnitude, range_nm, out=_scratch("correctable", magnitude.shape, bool)
    )
    usable_cols = correctable[:, 0, :].sum(axis=1)
    usable_rows = correctable[:, 1:, :].all(axis=2).sum(axis=1)
    correctable_counts = correctable.sum(axis=(1, 2))
    ring_yield = correctable_counts / (banks * cols)
    # Only correctable rings are tuned (a dead ring's target is
    # unreachable, so its heater stays off).
    magnitude *= correctable
    corrected_sum = magnitude.sum(axis=(1, 2), dtype=np.float64)
    mean_correction = np.divide(
        corrected_sum,
        correctable_counts,
        out=np.zeros(samples),
        where=correctable_counts > 0,
    )
    # Heater temperature targets of the correctable rings are
    # magnitude / drift; the TED solve folds the division into its
    # coefficients, saving a pass.
    drift = ctx.thermal.drift_nm_per_k
    if ctx.use_ted:
        # TED: P = K^-1 T per bank.  K^-1 is tridiagonal
        # (ThermalGrid.inverse_bands), so the solve is a 3-point stencil
        # of element-wise float32 ops: no BLAS, and each bank's powers
        # round the same in any batch on any CPU.  Negative solutions
        # clip to zero (a heater cannot cool).  This one-shot clipped
        # projection is a deliberate approximation of the exact
        # nonnegative solve (ThermalGrid.ted_powers_mw re-solves on the
        # active set, which cannot batch across thousands of sample-bank
        # systems): it biases total power slightly high (~10% on typical
        # draws), i.e. the Monte-Carlo tuning-power numbers are
        # conservative relative to the canonical scalar TED model.
        diagonal, off = ThermalGrid(num_heaters=cols).inverse_bands()
        powers = magnitude
        if cols > 1:
            # One contiguous pass sums both neighbours of every ring; it
            # sums the end columns across bank boundaries, so those are
            # then reset to their one in-bank neighbour.
            neighbours = _scratch("neighbours", powers.shape)
            flat = powers.reshape(-1)
            np.add(flat[:-2], flat[2:], out=neighbours.reshape(-1)[1:-1])
            neighbours[..., 0] = powers[..., 1]
            neighbours[..., -1] = powers[..., -2]
            neighbours *= np.float32(off / drift)
        powers *= (diagonal / drift).astype(np.float32)
        if cols > 1:
            powers += neighbours
        np.maximum(powers, 0.0, out=powers)
        correction_power = powers.sum(axis=(1, 2), dtype=np.float64)
    else:
        # Naive per-ring control: P_i = T_i / K_ii.
        magnitude /= drift
        correction_power = (
            magnitude.sum(axis=(1, 2), dtype=np.float64) / _NAIVE_KELVIN_PER_MW
        )
    return usable_rows, usable_cols, correction_power, ring_yield, mean_correction


def _tuner_range_nm(ctx: ExecutionContext, fsr_nm: float) -> float:
    if ctx.tuner_range_nm is not None:
        return ctx.tuner_range_nm
    return DEFAULT_TUNER_RANGE_FSR_FRACTION * fsr_nm


def context_physics(
    spec, ctx: Optional[ExecutionContext]
) -> Optional[ArrayContextPhysics]:
    """The memoized context physics of one array spec.

    ``spec`` is any object exposing ``rows``, ``cols`` and ``design``
    (both :class:`~repro.core.engine.matmul.ArraySpec` and configs do).
    Returns ``None`` for the nominal corner, in which case every cost is
    bit-identical to the context-free path.
    """
    if ctx is None or not ctx.affects_arrays:
        return None
    pinned = ctx.pinned_for(spec.rows, spec.cols)
    if pinned is not None:
        return ArrayContextPhysics(
            usable_rows=min(pinned.usable_rows, spec.rows),
            usable_cols=min(pinned.usable_cols, spec.cols),
            correction_power_mw=pinned.correction_power_mw,
            ring_yield=1.0
            if (pinned.usable_rows, pinned.usable_cols)
            == (spec.rows, spec.cols)
            else 0.0,
        )
    key = (spec.rows, spec.cols, spec.design, ctx)
    cached = _PHYSICS_CACHE.get(key)
    if cached is not None:
        return cached
    _check_batch([ctx])
    physics = _evaluate_batch(spec, [ctx]).sample(0)
    _PHYSICS_CACHE.put(key, physics)
    return physics


def reserve_dies(count: int):
    """Context manager: the per-die physics memo keeps room for
    ``count`` more dies inside the block (:meth:`LRUMemo.reserve`)."""
    return _PHYSICS_CACHE.reserve(count)


def _context_family(ctx: ExecutionContext) -> Tuple:
    """The fields a batch of contexts must share (everything but the
    seed): the same die population, thermal corner and tuner model."""
    return (ctx.variation, ctx.thermal, ctx.use_ted, ctx.tuner_range_nm)


def batch_context_physics(
    spec, ctx: ExecutionContext, samples: Optional[int]
) -> BatchContextPhysics:
    """Context physics of N Monte-Carlo samples in one batched pass.

    With ``samples=None`` the single die selected by ``ctx.seed`` itself
    is evaluated (batch of one); otherwise sample ``i`` is the die of
    ``ctx.for_sample(i)``, so a naive scalar loop over per-sample
    contexts and this batched pass see exactly the same draws.
    """
    if ctx is None or ctx.pinned:
        raise ConfigurationError(
            "batched context physics needs a sampling context "
            "(no pinned overrides)"
        )
    if samples is not None and samples < 1:
        raise ConfigurationError(f"need >= 1 sample, got {samples}")
    contexts = (
        [ctx]
        if samples is None
        else [ctx.for_sample(i) for i in range(samples)]
    )
    return _assemble_from_dies(spec, contexts)


def batch_context_physics_for(
    spec, contexts
) -> BatchContextPhysics:
    """Context physics of explicitly listed dies in one batched pass.

    Where :func:`batch_context_physics` derives its die population from
    one base context, this entry point takes the dies themselves — the
    serving scheduler uses it to evaluate every distinct die appearing in
    a request group at once instead of running N scalar physics solves.
    Entry ``i`` of the result is the physics of ``contexts[i]``,
    identical to what :func:`context_physics` computes for that context
    alone: dies already in the per-die memo are reused and only the
    unseen ones are drawn, in one batched pass.

    Args:
        spec: the array geometry (``rows``, ``cols``, ``design``).
        contexts: the dies to evaluate; all must share the same
            variation model, thermal corner, TED flag and tuner range
            (i.e. differ only in seed), and carry no pinned overrides.

    Raises:
        ConfigurationError: on an empty batch, a pinned context, or
            contexts drawn from different die populations.
    """
    return _assemble_from_dies(spec, list(contexts))


def _assemble_from_dies(spec, contexts) -> BatchContextPhysics:
    """Batched physics of ``contexts`` served per die from the scalar
    memo; the unseen dies are drawn in one :func:`_evaluate_batch` pass
    and memoized.  Bit-identical to evaluating the whole list at once."""
    _check_batch(contexts)
    keys = [(spec.rows, spec.cols, spec.design, ctx) for ctx in contexts]
    dies = [_PHYSICS_CACHE.get(key) for key in keys]
    unseen = [i for i, die in enumerate(dies) if die is None]
    if unseen:
        drawn = _evaluate_batch(spec, [contexts[i] for i in unseen])
        columns = [getattr(drawn, field.name).tolist() for field in _FIELDS]
        for i, values in zip(unseen, zip(*columns)):
            dies[i] = ArrayContextPhysics(*values)
            _PHYSICS_CACHE.put(keys[i], dies[i])
    # Field types are the strings "int" / "float": numpy's default
    # integer and float64, the dtypes of an _evaluate_batch pass.
    return BatchContextPhysics(**{
        field.name: np.array(column, dtype=field.type)
        for field, column in zip(_FIELDS, zip(*map(_field_values, dies)))
    })


def _check_batch(contexts) -> None:
    """Raise unless ``contexts`` is a non-empty list of unpinned dies of
    one family (the preconditions of one batched physics pass)."""
    if not contexts:
        raise ConfigurationError("need >= 1 context to batch")
    base = contexts[0]
    if base is None:
        raise ConfigurationError("batched context physics needs a context")
    family = _context_family(base)
    for ctx in contexts:
        if ctx is None or ctx.pinned:
            raise ConfigurationError(
                "batched context physics needs sampling contexts "
                "(no pinned overrides)"
            )
        if _context_family(ctx) != family:
            raise ConfigurationError(
                "all contexts in one physics batch must share the same "
                "variation model, thermal corner, TED flag and tuner "
                "range (they may differ only in seed)"
            )


def _evaluate_batch(spec, contexts) -> BatchContextPhysics:
    """One unmemoized batched physics pass over the list ``contexts``,
    which the caller has checked with :func:`_check_batch`."""
    ctx = contexts[0]
    rows, cols = spec.rows, spec.cols
    fsr = _design_fsr_nm(spec.design)
    # The draws loop per die (each die has its own seeded generator, so
    # a scalar per-sample sweep sees the same dies); everything below is
    # one batched pass over all dies at once.
    errors = _draw_die_errors_nm(contexts, rows, cols)
    folded = _fold_errors_nm_inplace(
        errors, ctx.thermal.resonance_offset_nm, fsr
    )
    range_nm = _tuner_range_nm(ctx, fsr)
    usable_rows, usable_cols, power, ring_yield, mean_corr = (
        _physics_from_folded(folded, ctx, range_nm)
    )
    return BatchContextPhysics(
        usable_rows=usable_rows,
        usable_cols=usable_cols,
        correction_power_mw=power,
        ring_yield=ring_yield,
        mean_correction_nm=mean_corr,
    )
