"""Independent reference implementations that the tests compare against.

None of this is on the package's CLI or pipeline path:

* ``solve_kepler`` and ``mean_anomaly_rbar`` average over uniform mean
  anomalies, so they check the eccentric-anomaly Jacobian weight the
  kernels use;
* ``poincare_from_delaunay`` is the forward map that round-trips
  ``delaunay_from_poincare``;
* ``orbit_min_separation`` samples both anomalies densely and checks the
  support-function form ``aligned_separation``;
* ``rbar_fine`` and the finite-difference stencils below differentiate
  fixed-node quadratures numerically, the reference for the derivatives
  that ``kernels.quarter_sums`` takes under the integral sign at
  ``order`` 1 and 2;
* ``PlanarState`` converts between the (e, g) and canonical (p2, q2)
  forms of a planar phase point;
* ``quarter_sums_reference``, ``bbar_mean_reference`` and
  ``vbar_mean_reference`` evaluate the coefficient integrands node by node
  over whole 2-D grids in the forms the formulas are written in, the
  reference for the row-reduced kernels in ``kernels``.
"""

import math
from dataclasses import dataclass

import numpy as np

from secular3bp import kernels
from secular3bp.geometry import TWO_PI, DelaunayElements, PoincareState, wrap_angle


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


def _golden_min(f, lo, hi, iters=40):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


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


def rbar_fine(cfg, e, g=0.0, nodes=512):
    """Fixed-node Rbar at eccentricity e and periapsis angle g.

    The folded quarter-domain kernel at g = 0, the rotated full-domain one
    (``kernels.rbar_rotated_mean``) otherwise; used by the derivative
    oracles and the g != 0 checks of Rbar.
    """
    g = float(np.mod(g, 2.0 * np.pi))
    if g == 0.0:
        return kernels.quarter_sums(cfg.a, e, cfg.e_J, nodes, nodes)[0]
    return kernels.rbar_rotated_mean(cfg.a, e, cfg.e_J, math.cos(g), math.sin(g),
                                     nodes, nodes)[0]


def ninepoint_derivative_oracle(cfg, e, h=1e-3, nodes=512):
    """Eighth-order 9-point central first derivative in e on a finer quadrature."""
    weights = np.array([3.0, -32.0, 168.0, -672.0, 0.0,
                        672.0, -168.0, 32.0, -3.0]) / 840.0
    offsets = np.arange(-4, 5)
    return sum(
        w * rbar_fine(cfg, e + k * h, nodes=nodes)
        for w, k in zip(weights, offsets) if w != 0.0
    ) / h


def one_sided_derivative_oracle(cfg, e, h=1e-4, nodes=512):
    """Second-order forward difference in e, for e = 0 where e - h is outside."""
    f0 = rbar_fine(cfg, e, nodes=nodes)
    return (-3.0 * f0 + 4.0 * rbar_fine(cfg, e + h, nodes=nodes)
            - rbar_fine(cfg, e + 2.0 * h, nodes=nodes)) / (2.0 * h)


def richardson_first(f, x, h):
    """Central first difference of f at x, Richardson-extrapolated (h, h/2)."""
    def d1(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)
    return (4.0 * d1(h / 2.0) - d1(h)) / 3.0


def richardson_second(f, x, h):
    """Central second difference of f at x, Richardson-extrapolated (h, h/2)."""
    f0 = f(x)

    def d2(step):
        return (f(x + step) - 2.0 * f0 + f(x - step)) / (step * step)
    return (4.0 * d2(h / 2.0) - d2(h)) / 3.0


@dataclass(frozen=True)
class PlanarState:
    """Planar averaged phase point in both (e, g) and canonical (p2, q2) form."""

    e: float
    g: float
    p2: float
    q2: float

    @classmethod
    def from_polar(cls, e, g, L):
        r = math.sqrt(max(0.0, 2.0 * L * (1.0 - math.sqrt(1.0 - e * e))))
        return cls(e=e, g=float(np.mod(g, 2.0 * np.pi)),
                   p2=r * math.cos(g), q2=-r * math.sin(g))

    @classmethod
    def from_canonical(cls, p2, q2, L):
        G = L - 0.5 * (p2 * p2 + q2 * q2)
        if G <= 0.0:
            raise ValueError("p2^2 + q2^2 too large: G would be non-positive")
        ratio = min(G / L, 1.0)
        e = math.sqrt(max(0.0, 1.0 - ratio * ratio))
        g = math.atan2(-q2, p2) if (p2, q2) != (0.0, 0.0) else 0.0
        return cls(e=e, g=float(np.mod(g, 2.0 * np.pi)), p2=p2, q2=q2)

    def consistent_with(self, L, tol=1e-12):
        lhs = self.p2**2 + self.q2**2
        rhs = 2.0 * L * (1.0 - math.sqrt(1.0 - self.e**2))
        return abs(lhs - rhs) <= tol * max(1.0, abs(rhs))


def quarter_sums_reference(a, e, eJ, n1, n2):
    """``kernels.quarter_sums`` from whole-grid temporaries.

    Its min_factor is the smallest sampled (r2^3 - r1^3) y yJ, the Abar
    integrand factor itself.
    """
    xJ, yJ, wJ = kernels._ellipse_nodes(kernels._midpoints(n2, np.pi), 1.0, eJ)
    x, y, wi = kernels._ellipse_nodes(kernels._midpoints(n1, np.pi), a, e)
    w = np.outer(wi, wJ)
    dx = x[:, None] - xJ[None, :]
    r1 = np.sqrt(dx**2 + (y[:, None] - yJ[None, :]) ** 2)
    r2 = np.sqrt(dx**2 + (y[:, None] + yJ[None, :]) ** 2)
    r13 = r1**3
    r23 = r2**3
    inv = 1.0 / (r13 * r23)
    fac = (r23 - r13) * np.outer(y, yJ)
    SR = float(np.sum(w * (r1 + r2) / (r1 * r2)))
    SA = float(np.sum(w * fac * inv))
    SC = float(np.sum(w * (r23 + r13) * inv * np.outer(x, xJ)))
    norm = 1.0 / (n1 * n2)
    return 0.5 * SR * norm, 0.25 * SA * norm, 0.25 * SC * norm, float(fac.min())


def bbar_mean_reference(a, e, eJ, n1, n2):
    """``kernels.bbar_mean`` from whole-grid temporaries."""
    xJ, yJ, wJ = kernels._ellipse_nodes(
        kernels._midpoints(n2, 2.0 * np.pi), 1.0, eJ)
    x, y, wi = kernels._ellipse_nodes(kernels._midpoints(n1, 2.0 * np.pi), a, e)
    w = np.outer(wi, wJ)
    r1 = np.sqrt((x[:, None] - xJ[None, :]) ** 2 + (y[:, None] - yJ[None, :]) ** 2)
    return float(np.sum(w * (np.outer(x, yJ) + np.outer(y, xJ)) / r1**3)) / (n1 * n2)


def vbar_mean_reference(a, e, eJ, m00, m01, m10, m11, m20, m21, n1, n2):
    """``kernels.vbar_mean`` from whole-grid temporaries."""
    xJ, yJ, wJ = kernels._ellipse_nodes(
        kernels._midpoints(n2, 2.0 * np.pi), 1.0, eJ)
    xp, yp, wi = kernels._ellipse_nodes(
        kernels._midpoints(n1, 2.0 * np.pi), a, e)
    x = m00 * xp + m01 * yp
    y = m10 * xp + m11 * yp
    z = m20 * xp + m21 * yp
    w = np.outer(wi, wJ)
    rsq = (
        (x[:, None] - xJ[None, :]) ** 2
        + (y[:, None] - yJ[None, :]) ** 2
        + (z**2)[:, None]
    )
    return float(np.sum(w / np.sqrt(rsq))) / (n1 * n2), float(rsq.min())
