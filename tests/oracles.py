"""Independent reference implementations that the tests compare against.

None of this is on the package's CLI or pipeline path:

* ``solve_kepler`` and ``mean_anomaly_rbar`` average over uniform mean
  anomalies, so they check the eccentric-anomaly Jacobian weight the
  kernels use;
* ``poincare_from_delaunay`` is the forward map that round-trips
  ``delaunay_from_poincare``;
* ``orbit_min_separation`` samples both anomalies densely and checks the
  support-function form ``aligned_separation``.
"""

import math

import numpy as np

from secular3bp.geometry import (
    TWO_PI,
    DelaunayElements,
    PoincareState,
    _golden_min,
    wrap_angle,
)


def solve_kepler(l, e, tol=1e-14, max_newton=50):
    """Solve E - e sin E = l for the eccentric anomaly E.

    Newton iteration seeded with E0 = l + e sin l, falling back to bisection
    on the rare non-converged cases.  Accepts scalars or arrays; E is
    continuous (and monotone) in l, with E - l staying on the same branch.

    Args:
        l: Mean anomaly in radians (any real value).
        e: Eccentricity in [0, 1).
        tol: Residual tolerance on |E - e sin E - l|.
        max_newton: Newton iterations before switching to bisection.

    Returns:
        Eccentric anomaly with the same shape as ``l``.
    """
    if not (0.0 <= e < 1.0):
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    l_arr = np.asarray(l, dtype=float)
    if not np.all(np.isfinite(l_arr)):
        raise ValueError("mean anomaly must be finite")
    scalar = l_arr.ndim == 0
    lw = wrap_angle(l_arr)
    E = lw + e * np.sin(lw)
    resid = E - e * np.sin(E) - lw
    for _ in range(max_newton):
        bad = np.abs(resid) > tol
        if not np.any(bad):
            break
        E = np.where(bad, E - resid / (1.0 - e * np.cos(E)), E)
        resid = E - e * np.sin(E) - lw
    bad = np.abs(resid) > tol
    if np.any(bad):
        # Bisection on [lw - e, lw + e], which always brackets the root.
        lo = np.where(bad, lw - e, E)
        hi = np.where(bad, lw + e, E)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = mid - e * np.sin(mid) - lw
            lo = np.where(fm < 0.0, mid, lo)
            hi = np.where(fm < 0.0, hi, mid)
        E = np.where(bad, 0.5 * (lo + hi), E)
    E = E + (l_arr - lw)
    return float(E) if scalar else E


def mean_anomaly_rbar(a, e, eJ, n=512, g=0.0):
    """Rbar as the plain mean of 1/r1 over an n x n grid of mean anomalies.

    Positions come from solving Kepler's equation at every node, so no
    Jacobian weight enters; the asteroid ellipse is rotated by g.
    """
    l = (np.arange(n) + 0.5) * (TWO_PI / n)
    E = solve_kepler(l, e)
    EJ = solve_kepler(l, eJ)
    xp = a * (np.cos(E) - e)
    yp = a * math.sqrt(1.0 - e * e) * np.sin(E)
    x = math.cos(g) * xp - math.sin(g) * yp
    y = math.sin(g) * xp + math.cos(g) * yp
    xJ = np.cos(EJ) - eJ
    yJ = math.sqrt(1.0 - eJ * eJ) * np.sin(EJ)
    return float(np.mean(1.0 / np.hypot(x[:, None] - xJ[None, :],
                                        y[:, None] - yJ[None, :])))


def poincare_from_delaunay(d: DelaunayElements) -> PoincareState:
    """Forward map to Poincare variables (exact formulas, no regularization)."""
    r2 = math.sqrt(max(0.0, 2.0 * (d.L - d.G)))
    r3 = math.sqrt(max(0.0, 2.0 * (d.G - d.H)))
    gh = d.g + d.h
    return PoincareState(
        p1=d.L,
        p2=r2 * math.cos(gh),
        p3=r3 * math.cos(d.h),
        q1=float(wrap_angle(d.l + d.g + d.h)),
        q2=-r2 * math.sin(gh),
        q3=-r3 * math.sin(d.h),
    )


def _pair_distance_sq(a, e, eJ, E, EJ):
    se = math.sqrt(1.0 - e * e)
    sJ = math.sqrt(1.0 - eJ * eJ)
    dx = a * (math.cos(E) - e) - (math.cos(EJ) - eJ)
    dy = a * se * math.sin(E) - sJ * math.sin(EJ)
    return dx * dx + dy * dy


def orbit_min_separation(a, e, eJ, coarse_n=720, refine_rounds=8):
    """Minimum distance between the aligned asteroid and planet ellipses.

    Dense coarse sampling of the (E, EJ) torus followed by local grid
    refinement (shrinking 2-D windows around the running best sample) and a
    final pair of golden-section passes.  A value of (numerically) zero
    means the curves intersect.
    """
    if not (a > 0.0):
        raise ValueError(f"semi-major axis must be positive, got {a}")
    if not (0.0 <= e < 1.0 and 0.0 <= eJ < 1.0):
        raise ValueError("eccentricities must be in [0, 1)")
    se = math.sqrt(1.0 - e * e)
    sJ = math.sqrt(1.0 - eJ * eJ)
    step = TWO_PI / coarse_n
    grid = np.arange(coarse_n) * step
    d2 = ((a * (np.cos(grid) - e))[:, None] - (np.cos(grid) - eJ)[None, :]) ** 2 \
        + ((a * se * np.sin(grid))[:, None] - (sJ * np.sin(grid))[None, :]) ** 2
    i, j = divmod(int(np.argmin(d2)), coarse_n)
    E, EJ = i * step, j * step

    window = step
    # Local 17x17 grids shrinking 6x per round track narrow diagonal
    # valleys (near-tangent or crossing geometry) that axis-alternating
    # line searches stall on.
    local = np.linspace(-1.0, 1.0, 17)
    for _ in range(refine_rounds):
        Ev = E + window * local
        EJv = EJ + window * local
        dx = (a * (np.cos(Ev) - e))[:, None] - (np.cos(EJv) - eJ)[None, :]
        dy = (a * se * np.sin(Ev))[:, None] - (sJ * np.sin(EJv))[None, :]
        d2_grid = dx * dx + dy * dy
        k = int(np.argmin(d2_grid))
        E = float(Ev[k // 17])
        EJ = float(EJv[k % 17])
        window /= 6.0
    window *= 6.0
    E = _golden_min(lambda s: _pair_distance_sq(a, e, eJ, s, EJ), E - window, E + window)
    EJ = _golden_min(lambda s: _pair_distance_sq(a, e, eJ, E, s), EJ - window, EJ + window)
    return math.sqrt(_pair_distance_sq(a, e, eJ, E, EJ))
