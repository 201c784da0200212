"""Double-averaging quadrature engine.

Computes the doubly averaged disturbing function Rbar and the averaged
quadratic-form coefficients Abar, Bbar, Cbar that govern out-of-plane
linear stability.

The integrands are analytic and 2*pi-periodic in both eccentric anomalies
for non-crossing orbit pairs, so an equally spaced (midpoint) tensor grid
converges geometrically; accuracy is controlled by node doubling until two
consecutive levels agree to the requested relative tolerance.

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-grid quadrature control.

    Both anomalies start at N_START nodes and are doubled together until two
    consecutive levels agree to relative tolerance ``tol`` (reported as the
    convergence estimate) or the count would exceed ``max_n``.
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
    """Run node doubling until consecutive levels agree; returns level data.

    ``eval_at(n)`` must return a tuple of floats from n nodes per anomaly.
    Component i is converged when its level-to-level change is at most
    tol * max(|value_i|, floors_i); a floor of ~1 turns the test absolute
    at ``tol``, which is what identically-zero quantities (Bbar) need.
    Returns (values, errors, n) at the first converged level.  At the node
    cap, NonConvergedError carries the largest component of the last
    level-to-level change (nan when the cap allows no doubling).
    """
    n = N_START
    prev = np.asarray(eval_at(n), dtype=float)
    floors = np.asarray(floors, dtype=float)
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
        if np.all(err <= quad.tol * np.maximum(np.abs(cur), floors)):
            return cur, err, n
        prev = cur
        last_error = float(np.max(err))


def averaged_coefficients(cfg: OrbitConfig, e,
                          quad: QuadratureSpec) -> AveragedCoefficients:
    """All averaged coefficients at the aligned configuration (g = 0, i = 0).

    Rbar, Abar, Cbar come from one quarter-domain evaluation; Bbar (whose
    exact value is 0 by symmetry) is evaluated over the full domain at the
    same resolution.  Bbar is a numerical invariant: callers assert that it
    sits below the quadrature tolerance.

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
    G = cfg.G_of(e)

    def eval_all(n):
        rbar, a_mean, c_mean, min_factor = kernels.quarter_sums(
            cfg.a, e, cfg.e_J, n, n)
        if min_factor < 0.0:
            raise RuntimeError(
                "internal error: the Abar kernel factor 1/r1^3 - 1/r2^3 "
                f"went negative ({min_factor:.3e}) on the quarter grid"
            )
        return rbar, a_mean, c_mean, kernels.bbar_mean(cfg.a, e, cfg.e_J, n, n)

    # Bbar is identically zero: converge it absolutely at tol, on the
    # natural O(1) scale of the disturbing function.
    vals, errs, _ = _doubling(
        eval_all, quad, floors=(_SCALE_FLOOR, _SCALE_FLOOR, _SCALE_FLOOR, 1.0))
    rbar, a_mean, c_mean, b_mean = vals
    abar = -a_mean / G
    cbar = -c_mean / G
    bbar = -b_mean / (4.0 * G)
    err = {
        "Rbar": float(errs[0]),
        "Abar": float(errs[1] / G),
        "Cbar": float(errs[2] / G),
        "Bbar": float(errs[3] / (4.0 * G)),
    }
    if not abar < 0.0:
        raise RuntimeError(
            f"internal error: Abar = {abar} is not negative for a "
            "non-crossing configuration"
        )
    return AveragedCoefficients(Rbar=float(rbar), Abar=float(abar),
                                Bbar=float(bbar), Cbar=float(cbar), err=err)

