"""Hot quadrature kernels, vectorized with numpy.

All kernels are pure functions of scalar arguments and use a fixed
summation order (per-chunk partial sums), so results are reproducible and
independent of any outer parallelism.

Geometry conventions: the planet ellipse has semi-major axis 1 with
periapsis on the +x axis, ``xJ = cos(EJ) - eJ``, ``yJ = sqrt(1-eJ^2) sin(EJ)``;
the asteroid orbital-plane ellipse is ``x' = a (cos E - e)``,
``y' = a sqrt(1-e^2) sin E``.  Averages over mean anomalies are evaluated in
eccentric anomalies with the Jacobian weight ``(1 - e cos E)(1 - eJ cos EJ)``.
"""

import numpy as np

__all__ = [
    "BACKEND",
    "quarter_sums",
    "bbar_mean",
    "rbar_rotated_mean",
    "vbar_mean",
]

# Recorded as ``kernel_backend`` in the sweep metadata.
BACKEND = "numpy"

# Keep numpy temporaries below ~32 MB per array when chunking large grids.
_CHUNK_ELEMS = 1 << 22


def _ellipse_nodes(E, a, e):
    """Orbital-plane position (x, y) and Kepler weight 1 - e cos E at anomalies E.

    With ``a = 1`` and ``e = eJ`` this is the planet's ellipse.
    """
    c = np.cos(E)
    return a * (c - e), a * np.sqrt(1.0 - e * e) * np.sin(E), 1.0 - e * c


def _midpoints(lo, hi, n, span):
    """Midpoint anomalies lo..hi-1 of an n-node grid over [0, span)."""
    return (np.arange(lo, hi) + 0.5) * (span / n)


def _row_chunks(n1, n2, span):
    """Asteroid anomalies of the n1 x n2 grid in chunks of at most _CHUNK_ELEMS nodes."""
    step = max(1, _CHUNK_ELEMS // max(n2, 1))
    for start in range(0, n1, step):
        yield _midpoints(start, min(start + step, n1), n1, span)


def quarter_sums(a, e, eJ, n1, n2):
    """Quarter-domain [0,pi]^2 midpoint sums for Rbar and the G-scaled A, C.

    Returns (rbar, a_mean, c_mean, min_factor) where
    Abar = -a_mean / G, Cbar = -c_mean / G and min_factor is the smallest
    sampled value of (r2^3 - r1^3) * y * yJ (non-negative in exact math).
    """
    xJ, yJ, wJ = _ellipse_nodes(_midpoints(0, n2, n2, np.pi), 1.0, eJ)
    SR = 0.0
    SA = 0.0
    SC = 0.0
    min_factor = np.inf
    for E in _row_chunks(n1, n2, np.pi):
        x, y, wi = _ellipse_nodes(E, a, e)
        w = np.outer(wi, wJ)
        dx = x[:, None] - xJ[None, :]
        r1 = np.sqrt(dx**2 + (y[:, None] - yJ[None, :]) ** 2)
        r2 = np.sqrt(dx**2 + (y[:, None] + yJ[None, :]) ** 2)
        r13 = r1**3
        r23 = r2**3
        inv = 1.0 / (r13 * r23)
        fac = (r23 - r13) * np.outer(y, yJ)
        min_factor = min(min_factor, float(fac.min()))
        SR += float(np.sum(w * (r1 + r2) / (r1 * r2)))
        SA += float(np.sum(w * fac * inv))
        SC += float(np.sum(w * (r23 + r13) * inv * np.outer(x, xJ)))
    norm = 1.0 / (n1 * n2)
    return 0.5 * SR * norm, 0.25 * SA * norm, 0.25 * SC * norm, min_factor


# The benchmark harness checks that the production kernel is this object.
quarter_sums_numpy = quarter_sums


def bbar_mean(a, e, eJ, n1, n2):
    """Full-domain [0,2pi)^2 midpoint mean of w * (x*yJ + y*xJ) / r1^3."""
    xJ, yJ, wJ = _ellipse_nodes(_midpoints(0, n2, n2, 2.0 * np.pi), 1.0, eJ)
    S = 0.0
    for E in _row_chunks(n1, n2, 2.0 * np.pi):
        x, y, wi = _ellipse_nodes(E, a, e)
        w = np.outer(wi, wJ)
        r1 = np.sqrt(
            (x[:, None] - xJ[None, :]) ** 2 + (y[:, None] - yJ[None, :]) ** 2
        )
        S += float(np.sum(w * (np.outer(x, yJ) + np.outer(y, xJ)) / r1**3))
    return S / (n1 * n2)


def rbar_rotated_mean(a, e, eJ, cg, sg, n1, n2):
    """Full-domain mean of w / r1 with the asteroid ellipse rotated by g.

    (cg, sg) = (cos g, sin g).  Also returns the smallest sampled r1^2 so
    callers can detect near-singular geometry.
    """
    xJ, yJ, wJ = _ellipse_nodes(_midpoints(0, n2, n2, 2.0 * np.pi), 1.0, eJ)
    S = 0.0
    r1sq_min = np.inf
    for E in _row_chunks(n1, n2, 2.0 * np.pi):
        xp, yp, wi = _ellipse_nodes(E, a, e)
        x = cg * xp - sg * yp
        y = sg * xp + cg * yp
        w = np.outer(wi, wJ)
        r1sq = (x[:, None] - xJ[None, :]) ** 2 + (y[:, None] - yJ[None, :]) ** 2
        r1sq_min = min(r1sq_min, float(r1sq.min()))
        S += float(np.sum(w / np.sqrt(r1sq)))
    return S / (n1 * n2), r1sq_min


def vbar_mean(a, e, eJ, m00, m01, m10, m11, m20, m21, n1, n2):
    """Full-domain mean of w / r for a spatially oriented asteroid orbit.

    The 3x2 matrix (m00..m21) maps orbital-plane coordinates (x', y') to
    inertial (x, y, z).  Also returns the smallest sampled r^2.
    """
    xJ, yJ, wJ = _ellipse_nodes(_midpoints(0, n2, n2, 2.0 * np.pi), 1.0, eJ)
    S = 0.0
    rsq_min = np.inf
    for E in _row_chunks(n1, n2, 2.0 * np.pi):
        xp, yp, wi = _ellipse_nodes(E, a, e)
        x = m00 * xp + m01 * yp
        y = m10 * xp + m11 * yp
        z = m20 * xp + m21 * yp
        w = np.outer(wi, wJ)
        rsq = (
            (x[:, None] - xJ[None, :]) ** 2
            + (y[:, None] - yJ[None, :]) ** 2
            + (z**2)[:, None]
        )
        rsq_min = min(rsq_min, float(rsq.min()))
        S += float(np.sum(w / np.sqrt(rsq)))
    return S / (n1 * n2), rsq_min
