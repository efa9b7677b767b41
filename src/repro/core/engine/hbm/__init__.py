"""Trace-driven HBM(-PIM) memory backend.

A geometry-derived alternative to the analytic
:class:`~repro.core.engine.memory.MemoryModel`, selected through the
memory-backend registry (:mod:`repro.core.engine.membackend`):

- :mod:`repro.core.engine.hbm.geometry` — bank/bankgroup/channel
  geometry, DRAM timing constants, PIM knobs (:class:`HBMGeometry`).
- :mod:`repro.core.engine.hbm.model` — the bank-conflict-aware
  :class:`HBMMemoryModel` (row-buffer hit/miss timing, tFAW-paced
  scattered access, refresh overhead, device-level thermal derate).
- :mod:`repro.core.engine.hbm.trace` — the optional ACT/RD/WR/PRE
  command log (:class:`CommandTrace`) with per-command energy.
- :mod:`repro.core.engine.hbm.pim` — near-bank offload scenarios
  (GHOST gather, TRON attention reduction) and crossover scans.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    ".geometry": ("HBMGeometry",),
    ".model": ("HBMMemoryModel",),
    ".pim": (
        "OffloadScenario", "attention_offload", "crossover_point",
        "gather_offload",
    ),
    ".trace": ("CommandTrace", "DRAMCommand"),
})

__all__ = [
    "CommandTrace",
    "DRAMCommand",
    "HBMGeometry",
    "HBMMemoryModel",
    "OffloadScenario",
    "attention_offload",
    "crossover_point",
    "gather_offload",
]
