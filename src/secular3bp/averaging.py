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


def _coefficient_sums(cfg: OrbitConfig, e, n, sums):
    """(a_mean, c_mean, b_mean) of one level, with the pointwise Abar check.

    ``sums`` is a scalar ``kernels.quarter_sums`` result at order 0 or 2,
    whose last three entries are (a_mean, c_mean, min_factor); the
    full-domain Bbar mean is evaluated at the same n.
    """
    a_mean, c_mean, min_factor = sums[-3:]
    if min_factor < 0.0:
        raise RuntimeError(
            "internal error: the Abar kernel factor 1/r1^3 - 1/r2^3 "
            f"went negative ({min_factor:.3e}) on the quarter grid"
        )
    return a_mean, c_mean, kernels.bbar_mean(cfg.a, e, cfg.e_J, n, n)


# Convergence floors of (a_mean, c_mean, b_mean).  Bbar is identically
# zero: it converges absolutely at tol, on the natural O(1) scale of the
# disturbing function.
_COEFFICIENT_FLOORS = (_SCALE_FLOOR, _SCALE_FLOOR, 1.0)


def _coefficients(cfg: OrbitConfig, e, values, errors) -> AveragedCoefficients:
    """AveragedCoefficients from converged (Rbar, a_mean, c_mean, b_mean)
    and their doubling errors; raises RuntimeError unless Abar < 0."""
    rbar, a_mean, c_mean, b_mean = values
    G = cfg.G_of(e)
    abar = -a_mean / G
    if not abar < 0.0:
        raise RuntimeError(
            f"internal error: Abar = {abar} is not negative for a "
            "non-crossing configuration"
        )
    err = {
        "Rbar": float(errors[0]),
        "Abar": float(errors[1] / G),
        "Cbar": float(errors[2] / G),
        "Bbar": float(errors[3] / (4.0 * G)),
    }
    return AveragedCoefficients(Rbar=float(rbar), Abar=float(abar),
                                Bbar=float(-b_mean / (4.0 * G)),
                                Cbar=float(-c_mean / G), err=err)


def averaged_coefficients(cfg: OrbitConfig, e,
                          quad: QuadratureSpec) -> AveragedCoefficients:
    """All averaged coefficients at the aligned configuration (g = 0, i = 0).

    Rbar, Abar, Cbar come from one quarter-domain evaluation; Bbar (whose
    exact value is 0 by symmetry) is evaluated over the full domain at the
    same resolution.  Bbar is a numerical invariant: callers assert that it
    sits below the quadrature tolerance.  A located equilibrium's root
    quadrature gives the same coefficients from its own row pass
    (``equilibrium.find_equilibrium``).

    Raises:
        OrbitCrossingError: Orbits closer than the separation threshold.
        NonConvergedError: Node cap reached before the tolerance.
        RuntimeError: If the computed Abar fails to be negative, which the
            pointwise-positive quarter-domain kernel makes impossible short
            of an internal defect (diagnostic, never silently corrected).
    """
    if not (0.0 <= e < 1.0):
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    _check_separation(cfg, e)

    def eval_all(n):
        sums = kernels.quarter_sums(cfg.a, e, cfg.e_J, n, n)
        return (sums[0], *_coefficient_sums(cfg, e, n, sums))

    vals, errs, _ = _doubling(
        eval_all, quad, floors=(_SCALE_FLOOR, *_COEFFICIENT_FLOORS))
    return _coefficients(cfg, e, vals, errs)
