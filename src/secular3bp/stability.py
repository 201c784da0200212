"""Spatial linear stability at planar equilibria and resonance tracing.

At an aligned planar equilibrium the out-of-plane dynamics linearizes to
the one-degree-of-freedom Hamiltonian -mu (Abar p3^2 + Cbar q3^2); both
averaged coefficients negative makes that quadratic form negative definite
and the equilibrium linearly stable against spatial perturbations.  Sign
verdicts are only issued when the margin exceeds three times the reported
quadrature error.

Frequencies follow from the standard quadratic-Hamiltonian normal form:
for H = -mu Rbar restricted to (p2, q2) the libration frequency is
mu sqrt(det Hess(Rbar)), and for -mu (Abar p3^2 + Cbar q3^2) the
out-of-plane frequency is 2 mu sqrt(Abar Cbar).  Both are reported divided
by mu, making the ratio omega_z / omega_plane a mu-free diagnostic whose
level sets (ratio = 2 and ratio = 1/2) are the candidate resonance curves
traced over the (a, e_J) parameter plane.  Each grid edge that brackets a
level set is solved by Brent's method on ratio - k, so a curve point costs
a few pipeline runs and lies within _PARAM_TOL / 2 of the level set along
its edge.  Brent's method is :func:`equilibrium.brentq`, an in-package port
of scipy's ``brentq`` with the same iterates, kept so that the package
import does not pay scipy's 0.4 s.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .averaging import (
    AveragedCoefficients,
    QuadratureSpec,
    averaged_coefficients,
)
from .equilibrium import (
    EQUILIBRIUM_STATUSES,
    POSITIVE_DEFINITE,
    EquilibriumRecord,
    brentq,
    find_equilibrium,  # unused here; perfbench wraps stability.find_equilibrium
)
from .errors import DegenerateError
from .geometry import OrbitConfig

__all__ = [
    "LINEARLY_STABLE",
    "UNSTABLE",
    "INCONCLUSIVE",
    "StabilityRecord",
    "ResonancePoint",
    "sign_verdict",
    "classify_spatial",
    "frequencies",
    "point_ratio",
    "trace_resonance",
]

LINEARLY_STABLE = "LINEARLY_STABLE"
UNSTABLE = "UNSTABLE"
INCONCLUSIVE = "INCONCLUSIVE"

# A sign is certified only when |coefficient| > MARGIN_FACTOR * error.
MARGIN_FACTOR = 3.0

# trace_resonance solves each edge to a final bracket narrower than this
# in the varying parameter, and returns an end of that bracket: every curve
# point lies within _PARAM_TOL / 2 of the level set along its edge.
_PARAM_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class StabilityRecord:
    """Spatial stability classification at one planar equilibrium.

    ``coefficients`` holds the averaged coefficients the verdict rests on.
    Frequencies are stored divided by mu (they both carry the common factor
    mu, so the ratio is mu-independent).
    """

    spatial_verdict: str
    omega_plane: float
    omega_z: float
    ratio: float
    coefficients: AveragedCoefficients


@dataclass(frozen=True)
class ResonancePoint:
    a: float
    e_J: float
    ratio: float


def _effective_error(err):
    # The doubling already reports at least 4 eps |value|; an unknown
    # error certifies no sign.
    return err if math.isfinite(err) else math.inf


def sign_verdict(abar, cbar, err_a, err_c):
    """Classify stability from coefficient signs with error margins."""
    err_a = _effective_error(err_a)
    err_c = _effective_error(err_c)
    if abar < -MARGIN_FACTOR * err_a and cbar < -MARGIN_FACTOR * err_c:
        return LINEARLY_STABLE
    if abar > MARGIN_FACTOR * err_a or cbar > MARGIN_FACTOR * err_c:
        return UNSTABLE
    return INCONCLUSIVE


def frequencies(eq: EquilibriumRecord, Abar, Cbar):
    """Linearized frequencies at a stable equilibrium, divided by mu.

    omega_plane = sqrt(det Hess Rbar) in canonical (p2, q2);
    omega_z = 2 sqrt(Abar Cbar).  Multiply by mu for physical rates.

    Raises:
        DegenerateError: If det Hess <= 0 or Abar * Cbar <= 0.
    """
    if eq.hessian is None:
        raise DegenerateError("equilibrium record carries no planar Hessian")
    det = float(np.linalg.det(eq.hessian))
    if det <= 0.0:
        raise DegenerateError(f"planar Hessian determinant {det} is not positive")
    prod = Abar * Cbar
    if prod <= 0.0:
        raise DegenerateError(f"Abar * Cbar = {prod} is not positive")
    omega_plane = math.sqrt(det)
    omega_z = 2.0 * math.sqrt(prod)
    return omega_plane, omega_z, omega_z / omega_plane


def classify_spatial(cfg: OrbitConfig, eq: EquilibriumRecord,
                     quad: QuadratureSpec) -> StabilityRecord:
    """Spatial linear-stability verdict at a located planar equilibrium.

    Reads (Abar, Cbar) at (a, e*, e_J) from the equilibrium record, where
    the root's quadrature converged them, and requires the sign margins to
    exceed three times the quadrature error; a borderline result triggers
    one automatic refinement by ``averaged_coefficients`` at tol/10 before
    settling on INCONCLUSIVE.
    Frequencies are attached when the verdict is LINEARLY_STABLE and the
    planar Hessian is positive definite.

    Args:
        cfg: Problem parameters.
        eq: Equilibrium record with status FOUND (or MULTIPLE_ROOTS, in
            which case the selected stable root is classified).
        quad: Quadrature control.

    Returns:
        StabilityRecord.
    """
    if eq.status not in EQUILIBRIUM_STATUSES:
        raise ValueError(f"cannot classify equilibrium with status {eq.status}")

    coeffs = eq.coefficients
    verdict = sign_verdict(coeffs.Abar, coeffs.Cbar,
                           coeffs.err["Abar"], coeffs.err["Cbar"])
    if verdict == INCONCLUSIVE:
        coeffs = averaged_coefficients(cfg, eq.e_star,
                                       replace(quad, tol=quad.tol / 10.0))
        verdict = sign_verdict(coeffs.Abar, coeffs.Cbar,
                               coeffs.err["Abar"], coeffs.err["Cbar"])

    omega_plane = omega_z = ratio = math.nan
    if verdict == LINEARLY_STABLE and eq.hessian_definite == POSITIVE_DEFINITE:
        try:
            omega_plane, omega_z, ratio = frequencies(eq, coeffs.Abar, coeffs.Cbar)
        except DegenerateError:
            pass
    return StabilityRecord(
        spatial_verdict=verdict, omega_plane=omega_plane, omega_z=omega_z,
        ratio=ratio, coefficients=coeffs,
    )


def point_ratio(a, e_J, mu, quad: QuadratureSpec):
    """Frequency ratio omega_z / omega_plane at one parameter point.

    The ratio of ``sweep.evaluate_cell``'s record, or None when the cell
    has none (crossing, no root, non-convergence, no certified stability).
    A defect propagates.
    """
    from .sweep import evaluate_cell  # sweep imports this module

    rec = evaluate_cell(a, e_J, mu, quad).stability
    if rec is None or not math.isfinite(rec.ratio):
        return None
    return rec.ratio


class _EdgeFailed(Exception):
    """The pipeline failed at a point inside a traced edge."""


def _solve_edge(grid, k, start, end, r_start, r_end):
    """ResonancePoint with ratio = k on one grid edge, or None if a run fails.

    The edge joins the grid points ``start`` and ``end`` (each an
    ``(a, e_J)`` pair), which differ in one coordinate.  Brent's method
    starts from the edge ends, whose ratios the sweep has already
    computed, and returns a point it has evaluated, so every pipeline run
    it makes is inside the edge.
    """
    axis = 0 if start[1] == end[1] else 1  # the coordinate the edge varies
    memo = {start[axis]: r_start, end[axis]: r_end}

    def point(x):
        return (x, start[1]) if axis == 0 else (start[0], x)

    def f(x):
        if x not in memo:
            r = point_ratio(*point(x), grid.mu, grid.quad)
            if r is None:
                raise _EdgeFailed
            memo[x] = r
        return memo[x] - k

    try:
        x = brentq(f, start[axis], end[axis], _PARAM_TOL / 2)
    except _EdgeFailed:
        return None
    return ResonancePoint(*point(x), ratio=float(memo[x]))


def trace_resonance(grid, k):
    """Locate the ratio = k level set on a swept parameter grid.

    Scans grid edges for sign changes of (ratio - k) between adjacent cells
    that both carry finite ratios, then solves ratio = k along each such
    edge by Brent's method, running ``point_ratio`` with the grid's mu and
    quadrature settings at interior points.  Each returned point is one
    the solve evaluated, within _PARAM_TOL / 2 = 5e-5 of the level set in
    the varying parameter; a failed run anywhere inside an edge drops that
    edge's point.  An empty list is a valid outcome.

    Args:
        grid: A populated sweep grid (anything exposing ``a_values()``,
            ``eJ_values()``, ``ratio_array()``, ``mu`` and ``quad``).
        k: Target frequency ratio (trace both 2 and 1/2 to cover either
            branch of a "2:1" commensurability).

    Returns:
        List of ResonancePoint, ordered row-major by originating edge, the
        edge to the next a before the edge to the next e_J.
    """
    a_vals, eJ_vals = grid.a_values().tolist(), grid.eJ_values().tolist()
    ratios = grid.ratio_array().tolist()
    points = []
    for i, a in enumerate(a_vals):
        for j, e_J in enumerate(eJ_vals):
            # The edge to the next a, then the edge to the next e_J.
            for i1, j1 in ((i + 1, j), (i, j + 1)):
                if i1 == len(a_vals) or j1 == len(eJ_vals):
                    continue
                r0, r1 = ratios[i][j], ratios[i1][j1]
                if (r0 - k) * (r1 - k) < 0.0:  # never true for a NaN ratio
                    hit = _solve_edge(grid, k, (a, e_J),
                                      (a_vals[i1], eJ_vals[j1]), r0, r1)
                    if hit is not None:
                        points.append(hit)
    return points
