"""The paper's contribution: T-OPT and P-OPT.

- :mod:`repro.popt.topt` — idealized transpose-driven Belady emulation
  (Section III).
- :mod:`repro.popt.rereference` — the quantized Rereference Matrix and
  Algorithm 2 (Section IV).
- :mod:`repro.popt.policy` — the P-OPT replacement policy (Section V-C).
- :mod:`repro.popt.arch` — way reservation, engine cost
  accounting, NUCA locality (Sections V-A..V-E).
"""

from .arch import PoptCounters, nuca_locality_report, reserved_ways
from .engine import NextRefEngineModel
from .policy import POPT, PoptStream
from .rereference import (
    RereferenceMatrix,
    build_rereference_matrix,
    epoch_geometry,
)
from .topt import (
    TOPT,
    IrregularStream,
    build_line_reference_csr,
    build_line_references,
)

__all__ = [
    "TOPT",
    "IrregularStream",
    "build_line_reference_csr",
    "build_line_references",
    "RereferenceMatrix",
    "build_rereference_matrix",
    "epoch_geometry",
    "POPT",
    "PoptStream",
    "PoptCounters",
    "NextRefEngineModel",
    "reserved_ways",
    "nuca_locality_report",
]
