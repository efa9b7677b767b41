"""GHOST: the silicon-photonic GNN accelerator (paper Section V.D).

Structure mirrors the paper's Figs. 6 and 7:

- :mod:`repro.core.ghost.config` — architectural parameters (V execution
  lanes, N edge-control units, transform-array geometry).
- :mod:`repro.core.ghost.aggregate` — the aggregate block: edge-control,
  gather, and coherent-summation reduce units with sum/mean/max support.
- :mod:`repro.core.ghost.combine` — the combine block's transform units
  (MR bank arrays applying the learned linear transformation).
- :mod:`repro.core.ghost.update` — the update block's SOA activation
  units and LUT softmax.
- :mod:`repro.core.ghost.accelerator` — whole-model mapping with
  buffer-and-partition, workload balancing and weight-DAC sharing.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    ".config": ("GHOSTConfig",),
    ".aggregate": ("AggregateBlock",),
    ".combine": ("CombineBlock",),
    ".update": ("UpdateBlock",),
    ".accelerator": ("GHOST",),
})

__all__ = [
    "GHOSTConfig",
    "AggregateBlock",
    "CombineBlock",
    "UpdateBlock",
    "GHOST",
]
