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
    direct_average_V3d,
)
from .equilibrium import (
    EquilibriumRecord,
    find_equilibrium,
    planar_hessian,
)
from .errors import (
    DegenerateError,
    NonConvergedError,
    OrbitCrossingError,
    Secular3bpError,
)
from .geometry import (
    DelaunayElements,
    OrbitConfig,
    PoincareState,
    aligned_noncrossing_interval,
    delaunay_from_poincare,
    rotation_matrix,
    wrap_angle,
)
from .stability import (
    ResonancePoint,
    StabilityRecord,
    classify_spatial,
    frequencies,
    linearized_matrix,
    trace_resonance,
)
from .sweep import CellResult, SweepGrid, evaluate_cell, run_sweep

__all__ = [
    "__version__",
    "AveragedCoefficients",
    "CellResult",
    "DegenerateError",
    "DelaunayElements",
    "EquilibriumRecord",
    "NonConvergedError",
    "OrbitConfig",
    "OrbitCrossingError",
    "PoincareState",
    "QuadratureSpec",
    "ResonancePoint",
    "Secular3bpError",
    "StabilityRecord",
    "SweepGrid",
    "aligned_noncrossing_interval",
    "averaged_coefficients",
    "classify_spatial",
    "delaunay_from_poincare",
    "direct_average_V3d",
    "evaluate_cell",
    "find_equilibrium",
    "frequencies",
    "linearized_matrix",
    "planar_hessian",
    "rotation_matrix",
    "run_sweep",
    "trace_resonance",
    "wrap_angle",
]
