"""Hot quadrature kernels, vectorized with numpy.

Every kernel uses one row-reduced scheme.  The grid rows (one asteroid
anomaly each) are visited in chunks of whole rows that fit in cache; each
row is reduced on its own against the planet nodes (``_rowsum``), and the
row sums are added once at the end.  The summation order is therefore set
by the row alone: results are reproducible, independent of the chunking,
of a batch of eccentricities and of any outer parallelism.

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

# Nodes per chunk, for every kernel.  A chunk holds at most six node
# arrays of 512 KiB each, reused from chunk to chunk, so the working set
# stays in a 2 MiB L2 cache; at n = 1024 this measured four to five times
# faster per node than 4M-node chunks of fresh temporaries.
_CHUNK_NODES = 1 << 16


def _ellipse_nodes(E, a, e):
    """Orbital-plane position (x, y) and Kepler weight 1 - e cos E at anomalies E.

    With ``a = 1`` and ``e = eJ`` this is the planet's ellipse.
    """
    c = np.cos(E)
    return a * (c - e), a * np.sqrt(1.0 - e * e) * np.sin(E), 1.0 - e * c


def _midpoints(n, span):
    """Midpoint anomalies of an n-node grid over [0, span)."""
    return (np.arange(n) + 0.5) * (span / n)


def _row_blocks(rows, n2, count):
    """Chunks of whole grid rows, at most _CHUNK_NODES nodes (one row at least).

    Yields the row range (lo, hi) and ``count`` scratch node arrays of
    shape (hi - lo, n2), the same memory for every chunk.
    """
    step = max(1, _CHUNK_NODES // max(n2, 1))
    buffers = np.empty((count, min(step, rows), n2))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        yield lo, hi, buffers[:, :hi - lo]


def _rowsum(m, v):
    """Per-row sums of m * v, in an order set by the row alone.

    A BLAS matrix-vector product may sum a row differently depending on
    its position in the block, which would break batch invariance.
    """
    return np.einsum("ij,j->i", m, v)


def quarter_sums(a, e, eJ, n1, n2, order=0):
    """Quarter-domain [0,pi]^2 midpoint sums at g = 0, for each e in ``e``.

    ``e`` is a scalar, which gives floats, or a 1-D array, which gives
    arrays of its shape.  ``order`` selects the sums:

    * 0: (rbar, a_mean, c_mean, min_factor) for the spatial coefficients
      Abar = -a_mean / G and Cbar = -c_mean / G.  min_factor is the
      smallest sampled 1/r1^3 - 1/r2^3, with r1 and r2 the distances to
      the planet and to its mirror image: non-negative in exact math, and
      with y, yJ > 0 at every midpoint of (0, pi) the sign of the Abar
      integrand factor (r2^3 - r1^3) y yJ.
    * 1: (R, R_e), Rbar and its derivative in e, for the equilibrium search.
    * 2: (R, R_e, R_ee, R_gg), g being the asteroid's periapsis angle; R is
      even in g, and the mirror images that fold R fold R_gg as well.

    Per row the order-0 sums are wi * sum wJ (1/r1 + 1/r2),
    wi y * sum wJ yJ (1/r1^3 - 1/r2^3) and wi x * sum wJ xJ (1/r1^3 + 1/r2^3);
    the derivatives differentiate them under the integral sign (dx/de = -a,
    dy/de = -e y / (1 - e^2), dw/de = -cos E).  A value's bytes do not
    depend on the rest of the batch, the chunking or ``order``.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    es = np.asarray(e, dtype=float)
    ev = es.reshape(-1)
    xJ, yJ, wJ = _ellipse_nodes(_midpoints(n2, np.pi), 1.0, eJ)
    wx, wy = wJ * xJ, wJ * yJ
    E_row = _midpoints(n1, np.pi)
    rows = np.empty((3 if order == 0 else 2 * order, ev.size * n1))
    mins = np.full(ev.size, np.inf)
    # The ev.size * n1 grid rows (e-major) are visited in chunks whose node
    # arrays are reused in place; each buffer's meaning is noted where it
    # changes.
    for lo, hi, (dx2, s1, s2, u1, u2, dv) in _row_blocks(ev.size * n1, n2, 6):
        out = rows[:, lo:hi]
        k = np.arange(lo, hi)
        ek = ev[k // n1]
        E = E_row[k % n1]
        x, y, wi = _ellipse_nodes(E, a, ek)
        np.subtract.outer(x, xJ, out=dx2)
        dx2 *= dx2
        np.subtract.outer(y, yJ, out=s1)
        s1 *= s1
        s1 += dx2  # r1^2
        np.add.outer(y, yJ, out=s2)
        s2 *= s2
        s2 += dx2
        np.sqrt(s1, out=u1)
        np.divide(1.0, u1, out=u1)  # 1 / r1
        np.sqrt(s2, out=u2)
        np.divide(1.0, u2, out=u2)
        v1 = np.divide(u1, s1, out=s1)  # 1 / r1^3
        v2 = np.divide(u2, s2, out=s2)
        s_u = _rowsum(u1, wJ) + _rowsum(u2, wJ)
        pv = np.add(v1, v2, out=dx2)
        np.subtract(v1, v2, out=dv)
        s_px, s_my = _rowsum(pv, wx), _rowsum(dv, wy)
        out[0] = wi * s_u
        if order == 0:
            out[1] = wi * y * s_my
            out[2] = wi * x * s_px
            # The chunk's rows of one e are contiguous; one flat min each.
            for j in range(lo // n1, (hi - 1) // n1 + 1):
                seg = dv[max(j * n1, lo) - lo:(j + 1) * n1 - lo]
                mins[j] = min(mins[j], seg.min())
            continue
        cE = np.cos(E)
        b2 = 1.0 - ek * ek
        ye = -ek * y / b2  # dy/de; dx/de = -a
        s_p = _rowsum(pv, wJ)
        # sum over j and both images of wJ (dx x_e + dy y_e) / r^3
        d_row = -a * (x * s_p - s_px) + ye * (y * s_p - s_my)
        out[1] = -cE * s_u - wi * d_row
        if order == 1:
            continue
        yee = -y / (b2 * b2)  # d2y/de2; d2x/de2 = 0
        q1 = np.multiply(v1, u1, out=v1)
        q1 *= u1  # 1 / r1^5
        q2 = np.multiply(v2, u2, out=v2)
        q2 *= u2
        adx = np.subtract.outer(x, xJ, out=pv)
        adx *= -a  # dx x_e
        d1 = np.subtract.outer(y, yJ, out=u1)
        d1 *= ye[:, None]
        d1 += adx  # dx x_e + dy y_e
        d2 = np.add.outer(y, yJ, out=u2)
        d2 *= ye[:, None]
        d2 += adx
        f = np.multiply(d1, d1, out=dv)
        f *= q1
        d2 *= d2
        d2 *= q2
        f += d2
        s_q = _rowsum(f, wJ)
        out[2] = 2.0 * cE * d_row + wi * (
            -(a * a + ye * ye) * s_p - yee * (y * s_p - s_my) + 3.0 * s_q)
        yxJ = np.multiply.outer(y, xJ, out=u1)
        xyJ = np.multiply.outer(x, yJ, out=u2)
        t1 = np.subtract(yxJ, xyJ, out=dv)
        t2 = np.add(yxJ, xyJ, out=u1)
        t1 *= t1
        t1 *= q1
        t2 *= t2
        t2 *= q2
        t1 += t2
        s_t = _rowsum(t1, wJ)
        out[3] = wi * (-x * s_px - y * s_my + 3.0 * s_t)
    sums = rows.reshape(len(rows), ev.size, n1).sum(axis=2) * (0.5 / (n1 * n2))
    if order == 0:
        sums[1:] *= 0.5  # Abar and Cbar carry 1/4, Rbar 1/2; exact in binary
        sums = (*sums, mins)
    if es.ndim == 0:
        return tuple(float(s[0]) for s in sums)
    return tuple(s.reshape(es.shape) for s in sums)


# The benchmark harness checks that the production kernel is this object.
quarter_sums_numpy = quarter_sums


def bbar_mean(a, e, eJ, n1, n2):
    """Full-domain [0,2pi)^2 midpoint mean of w * (x*yJ + y*xJ) / r1^3.

    Per row: wi * (x * sum wJ yJ / r1^3 + y * sum wJ xJ / r1^3).
    """
    xJ, yJ, wJ = _ellipse_nodes(_midpoints(n2, 2.0 * np.pi), 1.0, eJ)
    wx, wy = wJ * xJ, wJ * yJ
    x, y, wi = _ellipse_nodes(_midpoints(n1, 2.0 * np.pi), a, e)
    rows = np.empty(n1)
    for lo, hi, (s, t) in _row_blocks(n1, n2, 2):
        np.subtract.outer(x[lo:hi], xJ, out=s)
        s *= s
        np.subtract.outer(y[lo:hi], yJ, out=t)
        t *= t
        s += t  # r1^2
        v = np.sqrt(s, out=t)
        v *= s
        np.divide(1.0, v, out=v)  # 1 / r1^3
        rows[lo:hi] = wi[lo:hi] * (
            x[lo:hi] * _rowsum(v, wy) + y[lo:hi] * _rowsum(v, wx))
    return float(rows.sum()) / (n1 * n2)


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
    inertial (x, y, z).  Also returns the smallest sampled r^2.  Per row:
    wi * sum wJ / r.
    """
    xJ, yJ, wJ = _ellipse_nodes(_midpoints(n2, 2.0 * np.pi), 1.0, eJ)
    xp, yp, wi = _ellipse_nodes(_midpoints(n1, 2.0 * np.pi), a, e)
    x = m00 * xp + m01 * yp
    y = m10 * xp + m11 * yp
    z = m20 * xp + m21 * yp
    z2 = (z * z)[:, None]
    rows = np.empty(n1)
    rsq_min = np.inf
    for lo, hi, (s, t) in _row_blocks(n1, n2, 2):
        np.subtract.outer(x[lo:hi], xJ, out=s)
        s *= s
        np.subtract.outer(y[lo:hi], yJ, out=t)
        t *= t
        s += t
        s += z2[lo:hi]  # r^2
        rsq_min = min(rsq_min, float(s.min()))
        np.sqrt(s, out=s)
        np.divide(1.0, s, out=s)  # 1 / r
        rows[lo:hi] = wi[lo:hi] * _rowsum(s, wJ)
    return float(rows.sum()) / (n1 * n2), rsq_min
