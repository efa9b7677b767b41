"""The execution context threaded through every run path.

The paper's stated open challenge is fabrication-process variation, and
the library models it (:mod:`repro.photonics.variation`,
:mod:`repro.photonics.thermal`, :mod:`repro.photonics.noise`) — an
:class:`ExecutionContext` is the single object that carries those models
into ``Accelerator.run(workload, ctx=...)``:

- a **process-variation sample**: a :class:`ProcessVariationModel` plus a
  seed picks one fabricated die; every MR bank array samples correlated
  resonance errors from it, which turn into standing correction tuning
  power (via thermal-eigenmode-decomposition heater solves) and into
  ring-yield gating of the usable array rows/columns.
- a **thermal corner**: an ambient temperature rise shifts every ring's
  resonance (thermo-optic drift) and derates the HBM interface (hotter
  DRAM refreshes more often).
- an **analog noise model** for the functional simulation path.

Contexts are frozen and hashable, so the engine's memoized
device-physics curves key on them — corner A's numbers never pollute
corner B's.  A ``None`` context (or the default :data:`NOMINAL` context)
leaves every cost bit-identical to the nominal, context-free path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.serialization import (
    check_limits,
    config_from_dict,
    config_to_dict,
)
from repro.errors import ConfigurationError
from repro.photonics.noise import AnalogNoiseModel
from repro.photonics.variation import ProcessVariationModel

#: Stride between the derived seeds of consecutive Monte-Carlo samples
#: (see :meth:`ExecutionContext.for_sample`).
SAMPLE_SEED_STRIDE = 1 << 20


@dataclass(frozen=True)
class ThermalCorner:
    """One ambient operating corner of the package.

    Attributes:
        name: corner name as it appears in sweep labels and tables.
        ambient_delta_k: ambient temperature rise over the calibration
            point; shifts every ring's resonance by ``drift_nm_per_k``
            per kelvin.
        drift_nm_per_k: thermo-optic resonance drift of the rings
            (~0.08 nm/K for silicon MRs); also converts required
            resonance corrections into heater temperature targets.
        hbm_derate: fraction of nominal HBM bandwidth available at this
            corner (hot DRAM spends more time refreshing); 1.0 = nominal.

    Example:
        >>> corner = ThermalCorner(name="hot", ambient_delta_k=30.0)
        >>> round(corner.resonance_offset_nm, 2)   # 30 K x 0.08 nm/K
        2.4
    """

    name: str = "nominal"
    ambient_delta_k: float = 0.0
    drift_nm_per_k: float = 0.08
    hbm_derate: float = 1.0

    LIMITS = {
        "ambient_delta_k": "(-inf, inf)",
        "drift_nm_per_k": "> 0",
        "hbm_derate": "(0, 1]",
    }

    __post_init__ = check_limits

    @property
    def resonance_offset_nm(self) -> float:
        """Uniform resonance shift of every ring at this corner."""
        return self.ambient_delta_k * self.drift_nm_per_k


@dataclass(frozen=True)
class PinnedArrayPhysics:
    """Explicitly pinned context physics for one array geometry.

    The vectorized Monte-Carlo engine computes yield gating and
    correction power for hundreds of samples in one batched numpy pass,
    then replays representative samples through the ordinary run path by
    pinning the outcome instead of re-sampling it.

    Attributes:
        usable_rows / usable_cols: yield-gated array dimensions.
        correction_power_mw: standing variation-correction tuning power
            of the whole array (all banks).

    Example:
        >>> PinnedArrayPhysics(64, 64, 12.5).correction_power_mw
        12.5
    """

    usable_rows: int
    usable_cols: int
    correction_power_mw: float

    LIMITS = {
        "usable_rows": ">= 0",
        "usable_cols": ">= 0",
        "correction_power_mw": ">= 0",
    }

    __post_init__ = check_limits


@dataclass(frozen=True)
class ExecutionContext:
    """One evaluation corner: variation sample + thermal + noise + seed.

    Attributes:
        variation: process-variation statistics; ``None`` evaluates the
            nominal (perfect-fabrication) corner.
        thermal: the ambient thermal corner.
        seed: selects the fabricated die — two contexts that differ only
            in seed are two different dies from the same process.
        use_ted: correct resonance errors with thermal eigenmode
            decomposition (heater crosstalk reused) instead of naive
            per-ring heater control.
        tuner_range_nm: correction range of the TO tuner; rings whose
            folded resonance error exceeds it are dead (yield gating).
            ``None`` uses 0.55 x FSR, enough for any folded error.
        noise: analog noise model for the functional path; excluded from
            equality/hashing because it never affects cost physics.
        pinned: explicit per-geometry physics overrides, keyed by
            ``(rows, cols)`` (see :class:`PinnedArrayPhysics`).

    Example:
        >>> ExecutionContext().is_nominal        # default = nominal
        True
        >>> from repro.photonics.variation import ProcessVariationModel
        >>> ctx = ExecutionContext(variation=ProcessVariationModel(), seed=7)
        >>> ctx.affects_arrays, ctx.is_nominal
        (True, False)
        >>> ctx.for_sample(0).seed != ctx.for_sample(1).seed   # two dies
        True
    """

    variation: Optional[ProcessVariationModel] = None
    thermal: ThermalCorner = ThermalCorner()
    seed: int = 0
    use_ted: bool = True
    tuner_range_nm: Optional[float] = None
    noise: Optional[AnalogNoiseModel] = field(default=None, compare=False)
    pinned: Tuple[Tuple[Tuple[int, int], PinnedArrayPhysics], ...] = ()

    LIMITS = {"seed": ">= 0", "tuner_range_nm": "> 0"}

    __post_init__ = check_limits

    @property
    def affects_arrays(self) -> bool:
        """Whether array physics (tuning power, yield) departs nominal."""
        return (
            self.variation is not None
            or self.thermal.resonance_offset_nm != 0.0
            or bool(self.pinned)
        )

    @property
    def affects_memory(self) -> bool:
        """Whether the memory system departs nominal at this corner."""
        return self.thermal.hbm_derate != 1.0

    @property
    def is_nominal(self) -> bool:
        """True if every cost model behaves exactly as with no context."""
        return not (self.affects_arrays or self.affects_memory)

    def pinned_for(self, rows: int, cols: int) -> Optional[PinnedArrayPhysics]:
        """The pinned physics entry for a geometry, if any."""
        for (r, c), physics in self.pinned:
            if (r, c) == (rows, cols):
                return physics
        return None

    def with_pinned(
        self, entries: Mapping[Tuple[int, int], PinnedArrayPhysics]
    ) -> "ExecutionContext":
        """This context with explicit per-geometry physics overrides."""
        return replace(
            self,
            variation=None,
            pinned=tuple(sorted(entries.items())),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The context (variation, thermal, seed, ...) as plain dicts.

        Example:
            >>> ExecutionContext(seed=7).to_dict()["seed"]
            7
        """
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionContext":
        """Reconstruct a context from :meth:`to_dict` output.

        Missing fields keep their defaults; unknown fields and
        out-of-range values raise
        :class:`~repro.errors.ConfigurationError` with the offending
        path.

        Example:
            >>> ctx = ExecutionContext(
            ...     variation=ProcessVariationModel(), seed=3)
            >>> ExecutionContext.from_dict(ctx.to_dict()) == ctx
            True
            >>> ExecutionContext.from_dict({"seeed": 3})
            Traceback (most recent call last):
                ...
            repro.errors.ConfigurationError: ExecutionContext.seeed: unknown field; valid fields: ['noise', 'pinned', 'seed', 'thermal', 'tuner_range_nm', 'use_ted', 'variation']
        """
        return config_from_dict(cls, data)

    def for_sample(self, index: int) -> "ExecutionContext":
        """The context of Monte-Carlo sample ``index`` (a distinct die).

        Derived deterministically from the base seed so a naive scalar
        sweep over samples and the batched vectorized engine draw exactly
        the same dies.
        """
        if index < 0:
            raise ConfigurationError(f"sample index must be >= 0, got {index}")
        return replace(self, seed=self.seed * SAMPLE_SEED_STRIDE + index + 1)


#: The default context: every cost path is bit-identical to ``ctx=None``.
NOMINAL = ExecutionContext()


def standard_corners() -> Dict[str, ExecutionContext]:
    """The canonical corner grid swept by ``repro corners`` and the
    corner axis of the sweep engine.

    - **nominal** — perfect fabrication, calibration-point ambient.
    - **typical** — the default process-variation statistics.
    - **slow-hot** — wide variation plus a +30 K ambient with HBM derate.
    - **fast-cold** — tight (well-controlled) process, cool ambient.

    Example:
        >>> sorted(standard_corners())
        ['fast-cold', 'nominal', 'slow-hot', 'typical']
        >>> standard_corners()["nominal"].is_nominal
        True
    """
    return {
        "nominal": ExecutionContext(),
        "typical": ExecutionContext(variation=ProcessVariationModel()),
        "slow-hot": ExecutionContext(
            variation=ProcessVariationModel(
                width_sigma_nm=3.0, thickness_sigma_nm=1.5
            ),
            thermal=ThermalCorner(
                name="slow-hot", ambient_delta_k=30.0, hbm_derate=0.9
            ),
        ),
        "fast-cold": ExecutionContext(
            variation=ProcessVariationModel(
                width_sigma_nm=1.0, thickness_sigma_nm=0.5
            ),
            thermal=ThermalCorner(name="fast-cold", ambient_delta_k=-10.0),
        ),
    }


def resolve_corner(name: str, seed: int = 0) -> Optional[ExecutionContext]:
    """The :class:`ExecutionContext` a named corner plus a seed denotes.

    This is the single resolution rule shared by the CLI
    (``--corner``/``--seed``) and the serving trace loader.  The nominal
    corner resolves to ``None`` — the context-free path — because a seed
    only picks a die where process variation exists.

    Example:
        >>> resolve_corner("nominal", seed=7) is None
        True
        >>> resolve_corner("typical", seed=7).seed
        7

    Raises:
        ConfigurationError: for unknown corner names.
    """
    corners = standard_corners()
    if name not in corners:
        raise ConfigurationError(
            f"unknown corner {name!r}; known corners: {sorted(corners)}"
        )
    base = corners[name]
    if base.is_nominal:
        return None
    return replace(base, seed=seed)
