"""Hot quadrature kernels, vectorized with numpy.

All kernels are pure functions of their arguments and use a fixed
summation order (per-chunk or per-row partial sums), so results are
reproducible and independent of any outer parallelism.

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
    "quarter_derivatives",
    "bbar_mean",
    "rbar_rotated_mean",
    "vbar_mean",
]

# Recorded as ``kernel_backend`` in the sweep metadata.
BACKEND = "numpy"

# Keep numpy temporaries below ~32 MB per array when chunking large grids.
_CHUNK_ELEMS = 1 << 22
# quarter_derivatives keeps about eight node arrays live; chunks of 64k
# nodes (512 KiB per array) keep them in a 2 MiB L2 cache, which measured
# twice as fast per node at n = 1024 as _CHUNK_ELEMS chunks.
_DERIV_CHUNK_ELEMS = 1 << 16


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


def _rowsum(m, v):
    """Per-row sums of m * v, in an order set by the row alone.

    A BLAS matrix-vector product may sum a row differently depending on
    its position in the block, which would break batch invariance.
    """
    return np.einsum("ij,j->i", m, v)


def quarter_derivatives(a, e, eJ, n1, n2, second=False):
    """Quarter-domain Rbar and its derivatives at g = 0, for each e in ``e``.

    The folded integrand of :func:`quarter_sums` is differentiated under the
    integral sign (dx/de = -a, dy/de = -e y / (1 - e^2), dw/de = -cos E)
    and summed on the same midpoint grid.  ``e`` is a scalar or a 1-D array;
    returns arrays (R, R_e) of its shape, plus (R_ee, R_gg) when ``second``
    is set, where g is the asteroid's periapsis angle; R is even in g, and
    the mirror images that fold R onto [0, pi]^2 fold R_gg as well.  Each
    grid row is reduced on its own and rows are summed once at the end, so
    the result for one e does not depend on the rest of the batch or on
    the chunking.
    """
    es = np.asarray(e, dtype=float)
    ev = es.reshape(-1)
    xJ, yJ, wJ = _ellipse_nodes(_midpoints(0, n2, n2, np.pi), 1.0, eJ)
    wx, wy = wJ * xJ, wJ * yJ
    total = ev.size * n1
    rows = np.empty((4 if second else 2, total))
    step = max(1, _DERIV_CHUNK_ELEMS // max(n2, 1))
    for start in range(0, total, step):
        k = np.arange(start, min(start + step, total))
        out = rows[:, start:start + k.size]
        ek = ev[k // n1]
        E = _midpoints(0, n1, n1, np.pi)[k % n1]
        x, y, wi = _ellipse_nodes(E, a, ek)
        cE = np.cos(E)
        b2 = 1.0 - ek * ek
        ye = -ek * y / b2  # dy/de; dx/de = -a
        # In-place steps keep the live node arrays few; each buffer's
        # meaning is noted where it changes.
        dx2 = np.subtract.outer(x, xJ)
        dx2 *= dx2
        s1 = np.subtract.outer(y, yJ)
        s1 *= s1
        s1 += dx2
        s2 = np.add.outer(y, yJ)
        s2 *= s2
        s2 += dx2
        u1 = np.sqrt(s1)
        np.divide(1.0, u1, out=u1)  # 1 / r1
        u2 = np.sqrt(s2)
        np.divide(1.0, u2, out=u2)
        v1 = np.divide(u1, s1, out=s1)  # 1 / r1^3
        v2 = np.divide(u2, s2, out=s2)
        s_u = _rowsum(u1, wJ) + _rowsum(u2, wJ)
        pv = np.add(v1, v2, out=dx2)
        s_p = _rowsum(pv, wJ)
        s_px = _rowsum(pv, wx)
        s_my = _rowsum(v1 - v2, wy)
        # sum over j and both images of wJ (dx x_e + dy y_e) / r^3
        d_row = -a * (x * s_p - s_px) + ye * (y * s_p - s_my)
        out[0] = wi * s_u
        out[1] = -cE * s_u - wi * d_row
        if second:
            yee = -y / (b2 * b2)  # d2y/de2; d2x/de2 = 0
            q1 = v1 * u1 * u1  # 1 / r1^5
            q2 = v2 * u2 * u2
            adx = -a * np.subtract.outer(x, xJ)
            d1 = adx + ye[:, None] * np.subtract.outer(y, yJ)  # dx x_e + dy y_e
            d2 = adx + ye[:, None] * np.add.outer(y, yJ)
            s_q = _rowsum(d1 * d1 * q1 + d2 * d2 * q2, wJ)
            out[2] = 2.0 * cE * d_row + wi * (
                -(a * a + ye * ye) * s_p - yee * (y * s_p - s_my) + 3.0 * s_q)
            yxJ = np.outer(y, xJ)
            xyJ = np.outer(x, yJ)
            t1 = yxJ - xyJ
            t2 = yxJ + xyJ
            s_t = _rowsum(t1 * t1 * q1 + t2 * t2 * q2, wJ)
            out[3] = wi * (-x * s_px - y * s_my + 3.0 * s_t)
    sums = rows.reshape(rows.shape[0], ev.size, n1).sum(axis=2) * (0.5 / (n1 * n2))
    return tuple(s.reshape(es.shape) for s in sums)


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
    callers can detect near-singular geometry.  This is :func:`vbar_mean`
    with the planar rotation by g as its orientation matrix.
    """
    return vbar_mean(a, e, eJ, cg, -sg, sg, cg, 0.0, 0.0, n1, n2)


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
