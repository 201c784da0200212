"""Doubly averaged restricted elliptic three-body problem toolkit.

Computes the doubly averaged disturbing function of the spatial restricted
elliptic three-body problem, locates the stable planar equilibria of the
averaged planar problem, and certifies their linear stability against
out-of-plane perturbations via the averaged quadratic-form coefficients,
sweeping the (a, e_J) parameter plane.
"""

from ._version import __version__
from .averaging import (
    AveragedCoefficients,
    QuadratureSpec,
    averaged_coefficients,
)
from .equilibrium import EquilibriumRecord, find_equilibrium
from .errors import (
    DegenerateError,
    NonConvergedError,
    OrbitCrossingError,
    Secular3bpError,
)
from .geometry import OrbitConfig, aligned_noncrossing_interval
from .stability import (
    ResonancePoint,
    StabilityRecord,
    classify_spatial,
    frequencies,
    trace_resonance,
)
from .sweep import CellResult, SweepGrid, evaluate_cell, run_sweep

__all__ = [
    "__version__",
    "AveragedCoefficients",
    "CellResult",
    "DegenerateError",
    "EquilibriumRecord",
    "NonConvergedError",
    "OrbitConfig",
    "OrbitCrossingError",
    "QuadratureSpec",
    "ResonancePoint",
    "Secular3bpError",
    "StabilityRecord",
    "SweepGrid",
    "aligned_noncrossing_interval",
    "averaged_coefficients",
    "classify_spatial",
    "evaluate_cell",
    "find_equilibrium",
    "frequencies",
    "run_sweep",
    "trace_resonance",
]
