"""Double-averaging quadrature engine.

Computes the doubly averaged disturbing function Rbar and the averaged
quadratic-form coefficients Abar, Bbar, Cbar that govern out-of-plane
linear stability.

The integrands are analytic and 2*pi-periodic in both eccentric anomalies
for non-crossing orbit pairs, so an equally spaced (midpoint) tensor grid
converges geometrically; accuracy is controlled by node doubling until the
remaining error estimated from the last level changes clears the requested
relative tolerance (see ``_doubling``).

For the aligned planar configuration (g = 0, i = 0) the reflection symmetry
of both ellipses about the x axis folds the full [0, 2*pi)^2 averages onto
the quarter domain [0, pi]^2:

    Rbar =  1/(2 pi^2 )   * II (r1 + r2)  /(r1 r2)     * w dE dEJ
    Abar = -1/(4 pi^2 G)  * II (r2^3-r1^3)/(r1^3 r2^3) * y yJ w dE dEJ
    Cbar = -1/(4 pi^2 G)  * II (r2^3+r1^3)/(r1^3 r2^3) * x xJ w dE dEJ

with r1, r2 the distances to the planet and to its mirror image,
w = (1 - e cos E)(1 - eJ cos EJ), and G = sqrt((1-mu) a (1-e^2)).  The same
symmetry makes the double average of the cross coefficient B vanish
identically; ``averaged_coefficients`` evaluates it over the full domain
as a numerical invariant.  On the quarter domain (r2^3 - r1^3) y yJ >= 0
pointwise, which forces Abar < 0.  With y, yJ > 0 at every midpoint this
is the sign of 1/r1^3 - 1/r2^3, asserted at every node of each evaluation.
On near-coincident cells the kernels evaluate the same averages on a
mapped half grid instead, and assert the same sign with the mirror image
of each planet node (see ``kernels.quarter_sums``).
One doubling, ``_point_quadrature``, converges the coefficients both for
``averaged_coefficients`` and, with the derivatives, at an equilibrium.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NonConvergedError, OrbitCrossingError
from .geometry import OrbitConfig, aligned_separation

__all__ = [
    "DEFAULT_SEPARATION_THRESHOLD",
    "QuadratureSpec",
    "AveragedCoefficients",
    "averaged_coefficients",
]

# Below this inter-orbit distance a configuration is treated as crossing:
# the integrands scale like 1/r^3 and quadrature ceases to be trustworthy.
DEFAULT_SEPARATION_THRESHOLD = 1e-3

# Node count per anomaly at the first level of every doubling.  The midpoint
# rule converges geometrically here, so 32 -> 64 already settles most cells.
N_START = 32

# Tiny floor that keeps the relative convergence test well-defined for
# exactly-zero values.
_SCALE_FLOOR = 1e-300

# Reported errors are at least this many ulps of the value: the rounding
# of the sums themselves.
_ROUNDING_ULPS = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-grid quadrature control.

    Both anomalies start at N_START nodes and are doubled together until a
    level is certified to relative tolerance ``tol`` or the count would
    exceed ``max_n``: the last level-to-level change, extrapolated at the
    rate the changes shrink (at most 1/2 per level), must clear ``tol``.
    That extrapolated error is reported as the convergence estimate.
    ``max_n`` caps the level n, which samples n^2 nodes on either node rule
    of ``kernels.quarter_sums``: n x n on the quarter grid, n/2 x 2n on the
    mapped grid of a near-coincident cell.
    """

    tol: float = 1e-10
    max_n: int = 4096

    def __post_init__(self):
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if self.max_n < N_START:
            raise ValueError(f"max_n must be at least N_START = {N_START}")


@dataclass(frozen=True)
class AveragedCoefficients:
    """Doubly averaged outputs at one (a, e, eJ) with convergence estimates."""

    Rbar: float
    Abar: float
    Bbar: float
    Cbar: float
    err: dict


def _check_separation(cfg: OrbitConfig, e):
    """Raise OrbitCrossingError if the orbits at e are within threshold.

    The single-point entries call this; the equilibrium scan certifies a
    whole cell with one batched separation instead.
    """
    sep = aligned_separation(cfg.a, e, cfg.e_J)
    if sep < DEFAULT_SEPARATION_THRESHOLD:
        raise OrbitCrossingError(
            f"orbits closer than {DEFAULT_SEPARATION_THRESHOLD:g} at "
            f"a={cfg.a:g}, e={e:g}, e_J={cfg.e_J:g} "
            f"(separation {sep:.3e})",
            separation=sep,
        )


def _doubling(eval_at, quad: QuadratureSpec, floors):
    """Run node doubling until a level is certified; returns level data.

    ``eval_at(n)`` must return a tuple of floats from n nodes per anomaly.
    At each level, component i has changed by c from the level before,
    and by c_prev between the two levels before that.  Its changes shrink
    at the ratio r = min(c / c_prev, 1/2) (1/2 without a previous change
    or when c_prev = 0 < c, 0 when c = 0), so c r / (1 - r) estimates its
    remaining error.  A level is accepted when that estimate is at most
    tol * max(|value_i|, floors_i) for every component; a floor of ~1
    turns the test absolute at ``tol``, which is what identically-zero
    quantities (Bbar) and the derivatives need.  With r = 1/2 the estimate
    is c itself, the plain agreement of two levels.
    Returns (values, errors, n) at the first accepted level, the errors
    being the estimates the level was accepted on, raised to
    4 eps |value| for rounding.  At the node cap, NonConvergedError
    carries the largest component of the last level-to-level change (nan
    when the cap allows no doubling).
    """
    n = N_START
    prev = np.asarray(eval_at(n), dtype=float)
    floors = np.asarray(floors, dtype=float)
    last_change = None
    last_error = math.nan
    while True:
        if 2 * n > quad.max_n:
            raise NonConvergedError(
                f"quadrature not converged at node cap {quad.max_n} "
                f"(last change between levels {last_error:.3e})",
                last_error=last_error,
                nodes=n,
            )
        n *= 2
        cur = np.asarray(eval_at(n), dtype=float)
        err = np.abs(cur - prev)
        ratio = np.full_like(err, 0.5)
        if last_change is not None:
            # Divide only where the quotient is below 1/2: c_prev > 0
            # there, and nothing overflows.
            np.divide(err, last_change, out=ratio,
                      where=err < 0.5 * last_change)
        ratio[err == 0.0] = 0.0
        estimate = err * (ratio / (1.0 - ratio))
        if np.all(estimate <= quad.tol * np.maximum(np.abs(cur), floors)):
            return cur, np.maximum(estimate, _ROUNDING_ULPS * np.abs(cur)), n
        prev = cur
        last_change = err
        last_error = float(np.max(err))


# Convergence floors of each doubling, keyed by kernels.quarter_sums order:
# its sums in kernel order without min_factor, then the Bbar mean at orders
# 0 and 2.  R and the coefficient means are relative; the derivatives (R_e
# vanishes at the roots) and the identically-zero Bbar are absolute at tol,
# on the natural O(1) scale of the disturbing function.
_FLOORS = {
    0: (_SCALE_FLOOR, _SCALE_FLOOR, _SCALE_FLOOR, 1.0),
    1: (_SCALE_FLOOR, 1.0),
    2: (_SCALE_FLOOR, 1.0, 1.0, 1.0, _SCALE_FLOOR, _SCALE_FLOOR, 1.0),
}


def _point_quadrature(cfg: OrbitConfig, e, quad: QuadratureSpec, order):
    """Derivatives and AveragedCoefficients at (e, g = 0) from one doubling.

    Each level is one ``kernels.quarter_sums`` row pass at ``order`` 0 or
    2 and the full-domain Bbar mean at the same n, converged together
    under ``_FLOORS[order]``.  Checks: the exact 1e-3 separation, the sign
    of the Abar kernel factor (min_factor) at every level and Abar < 0.
    Returns (derivatives, coefficients, nodes), derivatives being
    (R_e, R_ee, R_gg) at order 2 and () at order 0.
    """
    _check_separation(cfg, e)

    def eval_at(n):
        *sums, min_factor = kernels.quarter_sums(cfg.a, e, cfg.e_J, n, n,
                                                 order=order)
        if min_factor < 0.0:
            raise RuntimeError(
                "internal error: the Abar kernel factor 1/r1^3 - 1/r2^3 "
                f"went negative ({min_factor:.3e}) on the quarter grid"
            )
        return (*sums, kernels.bbar_mean(cfg.a, e, cfg.e_J, n, n))

    vals, errs, nodes = _doubling(eval_at, quad, _FLOORS[order])
    # (Rbar, ..., a_mean, c_mean, b_mean): Abar, Cbar, Bbar from the last three.
    G = cfg.G_of(e)
    abar = -vals[-3] / G
    if not abar < 0.0:
        raise RuntimeError(
            f"internal error: Abar = {abar} is not negative for a "
            "non-crossing configuration"
        )
    err = {
        "Rbar": float(errs[0]),
        "Abar": float(errs[-3] / G),
        "Cbar": float(errs[-2] / G),
        "Bbar": float(errs[-1] / (4.0 * G)),
    }
    coeffs = AveragedCoefficients(Rbar=float(vals[0]), Abar=float(abar),
                                  Bbar=float(-vals[-1] / (4.0 * G)),
                                  Cbar=float(-vals[-2] / G), err=err)
    return tuple(vals[1:-3]), coeffs, nodes


def averaged_coefficients(cfg: OrbitConfig, e,
                          quad: QuadratureSpec) -> AveragedCoefficients:
    """All averaged coefficients at the aligned configuration (g = 0, i = 0).

    Rbar, Abar, Cbar come from one quarter-domain evaluation; Bbar (whose
    exact value is 0 by symmetry) is evaluated over the full domain at the
    same resolution.  Bbar is a numerical invariant: callers assert that it
    sits below the quadrature tolerance.  This is ``_point_quadrature`` at
    order 0; a located equilibrium's root runs it at order 2
    (``equilibrium.find_equilibrium``) and gets these coefficients from
    its own row pass.

    Raises:
        OrbitCrossingError: Orbits closer than the separation threshold.
        NonConvergedError: Node cap reached before the tolerance.
        RuntimeError: If the computed Abar fails to be negative, which the
            pointwise-positive quarter-domain kernel makes impossible short
            of an internal defect (diagnostic, never silently corrected).
    """
    if not (0.0 <= e < 1.0):
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    return _point_quadrature(cfg, e, quad, 0)[1]
