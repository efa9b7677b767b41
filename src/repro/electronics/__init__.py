"""Electronic substrate: memories, buffers and digital logic.

The paper uses HP CACTI for "all the memories and buffers employed in our
accelerators" (Section VI).  CACTI is itself an analytic model, so this
package replaces it with a parametric model calibrated to published CACTI
outputs (:mod:`repro.electronics.memory`), plus the small digital blocks
both accelerators need — softmax lookup tables, adder trees and control
sequencing (:mod:`repro.electronics.digital`).
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    ".memory": ("SRAMBuffer", "EDRAMBuffer", "HBMChannel", "MemorySystem"),
    ".digital": ("SoftmaxLUT", "AdderTree", "ControlUnit", "RegisterFile"),
})

__all__ = [
    "SRAMBuffer",
    "EDRAMBuffer",
    "HBMChannel",
    "MemorySystem",
    "SoftmaxLUT",
    "AdderTree",
    "ControlUnit",
    "RegisterFile",
]
