"""Hot quadrature kernels, vectorized with numpy.

Every kernel uses one row-reduced scheme.  The grid rows (one asteroid
anomaly each) are visited in chunks of whole rows that fit in cache; each
row is reduced on its own against its planet nodes (``_rowsum``,
``_rowdot``), and the row sums are added once at the end.  The summation
order is therefore set by the row alone: results are reproducible,
independent of the chunking, of a batch of eccentricities and of any outer
parallelism.

Geometry conventions: the planet ellipse has semi-major axis 1 with
periapsis on the +x axis, ``xJ = cos(EJ) - eJ``, ``yJ = sqrt(1-eJ^2) sin(EJ)``;
the asteroid orbital-plane ellipse is ``x' = a (cos E - e)``,
``y' = a sqrt(1-e^2) sin E``.  Averages over mean anomalies are evaluated in
eccentric anomalies with the Jacobian weight ``(1 - e cos E)(1 - eJ cos EJ)``.

``quarter_sums`` has two node rules, set per cell by
``geometry.near_coincident``: the quarter grid, and on near-coincident cells
a half grid whose planet anomalies are conformally mapped around each row
(Hale & Trefethen, SIAM J. Numer. Anal. 46, 2008).  The planet's node table
per ``(n, span, eJ)``, the mapped one per ``(lam, eJ, n)`` up to a byte
bound, and the row anomalies' cosines and sines per ``(n, span)`` are cached
as read-only arrays.
"""

import functools
import math

import numpy as np

from .geometry import near_coincident

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

# Tables per cache: a cell visits at most 9 levels on 2 spans, <= 160 KiB each.
_TABLE_CACHE_SIZE = 32


def _ellipse_at(c, s, a, e):
    """Orbital-plane position (x, y) and Kepler weight 1 - e cos E at the
    anomalies E with cosines c and sines s.

    With ``a = 1`` and ``e = eJ`` this is the planet's ellipse.
    """
    return a * (c - e), a * np.sqrt(1.0 - e * e) * s, 1.0 - e * c


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _row_anomalies(n, span):
    """Read-only rows (cos E, sin E) at n midpoints on [0, span)."""
    E = _midpoints(n, span)
    table = np.array([np.cos(E), np.sin(E)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _planet_nodes(n, span, eJ):
    """Read-only rows (xJ, yJ, wJ, wJ xJ, wJ yJ), n midpoints on [0, span)."""
    xJ, yJ, wJ = _ellipse_at(*_row_anomalies(n, span), 1.0, eJ)
    table = np.array([xJ, yJ, wJ, wJ * xJ, wJ * yJ])
    table.flags.writeable = False
    return table


# Bytes of mapped node tables kept between calls (a level-256 table is
# 2.6 MB); a larger table is built per row chunk.  Least recent use first.
_MAPPED_CACHE_BYTES = 1 << 23
_mapped_tables = {}


def _mapped_nodes(lam, eJ, n_rows, n_cols, lo, hi):
    """Rows lo:hi of the node table (C, bJ S, xJ, yJ, W) of the mapped grid.

    Row i, at the i-th of n_rows midpoints E on (0, pi), meets the planet
    at E_J = E + psi, psi = 2 atan(lam tan(phi / 2)), phi the n_cols
    midpoints on [0, 2 pi).  C = cos E - cos E_J and S = sin E - sin E_J
    come from cos psi and sin psi without cancellation near E_J = E; W is
    the Kepler weight times dE_J/dphi = lam / (cos^2 + lam^2 sin^2)(phi/2).
    """
    c, s = (t[lo:hi, None] for t in _row_anomalies(n_rows, np.pi))
    half = _midpoints(n_cols, np.pi)  # phi / 2
    ch, sh = np.cos(half), lam * np.sin(half)
    h2 = ch * ch + sh * sh
    sin_psi, vers = 2.0 * ch * sh / h2, 2.0 * sh * sh / h2  # 1 - cos psi
    bJ = math.sqrt(1.0 - eJ * eJ)
    table = np.empty((5, hi - lo, n_cols))
    C, bS, xJ, yJ, W = table
    np.multiply(s, sin_psi, out=C)
    C += np.multiply(c, vers, out=W)
    np.multiply(s, bJ * vers, out=bS)
    bS -= np.multiply(c, bJ * sin_psi, out=W)
    np.subtract(c - eJ, C, out=xJ)
    np.subtract(bJ * s, bS, out=yJ)
    np.multiply(C, eJ, out=W)
    W += 1.0 - eJ * c  # 1 - eJ cos E_J
    W *= lam / h2
    return table


def _mapped_table(lam, eJ, n_rows, n_cols):
    """All rows of :func:`_mapped_nodes`, cached; None above the byte bound."""
    key = (lam, eJ, n_rows, n_cols)
    table = _mapped_tables.pop(key, None)
    if table is None:
        if 5 * 8 * n_rows * n_cols > _MAPPED_CACHE_BYTES:
            return None
        table = _mapped_nodes(lam, eJ, n_rows, n_cols, 0, n_rows)
        table.flags.writeable = False
        while (sum(t.nbytes for t in _mapped_tables.values()) + table.nbytes
               > _MAPPED_CACHE_BYTES):
            del _mapped_tables[next(iter(_mapped_tables))]
    _mapped_tables[key] = table
    return table


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


def _rowdot(m, w):
    """Per-row sums of m * w over the last axis of the (e, row, node) m."""
    return np.einsum("...j,...j->...", m, w)


def quarter_sums(a, e, eJ, n1, n2, order=0):
    """Doubly averaged sums at g = 0 on a folded grid, for each e in ``e``.

    ``e`` is a scalar, which gives floats, or a 1-D array, which gives
    arrays of its shape.  ``order`` selects the sums:

    * 0: (rbar, a_mean, c_mean, min_factor) for the spatial coefficients
      Abar = -a_mean / G and Cbar = -c_mean / G.  min_factor is the
      smallest sampled Abar kernel factor 1/r1^3 - 1/r2^3, with r1 and r2
      the distances to a planet node and to its mirror image (xJ, -yJ),
      taken with the sign of yJ: non-negative in exact math, and with
      y > 0 on every grid row the sign of the Abar integrand.
    * 1: (R, R_e), Rbar and its derivative in e, for the equilibrium search.
    * 2: (R, R_e, R_ee, R_gg, a_mean, c_mean, min_factor), g being the
      asteroid's periapsis angle.  The last three are order 0's, from
      the same row pass: the root of an equilibrium converges its Hessian
      and its spatial coefficients in one doubling.

    Every grid row is one asteroid anomaly E on (0, pi); the (E, EJ) ->
    (-E, -EJ) symmetry folds the rest.  The node rule is set by (a, eJ)
    alone (:func:`geometry.near_coincident`):

    * Quarter grid: n1 rows against the planet's n2 anomalies on (0, pi)
      and their mirror images.  Per row the order-0 sums are
      wi * sum wJ (1/r1 + 1/r2), wi y * sum wJ yJ (1/r1^3 - 1/r2^3) and
      wi x * sum wJ xJ (1/r1^3 + 1/r2^3).
    * Mapped half grid, on near-coincident cells, whose integrand is
      nearly singular along EJ = E: n1 / 2 rows against 2 n2 planet
      anomalies on the full circle, mapped around each row's own E
      (:func:`_mapped_nodes`), one image per node.

    Either way a call samples n1 n2 nodes.  The derivatives differentiate
    the sums under the integral sign with the nodes fixed (dx/de = -a,
    dy/de = -e y / (1 - e^2), dw/de = -cos E).  A value's bytes do not
    depend on the rest of the batch, the chunking, ``order`` or the caches.
    """
    return _grid_sums(a, e, eJ, n1, n2, order, near_coincident(a, eJ))


def _grid_sums(a, e, eJ, n1, n2, order, lam):
    """quarter_sums on the quarter grid (lam None) or the grid mapped by lam."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    es = np.asarray(e, dtype=float)
    ev = es.reshape(-1)
    n_rows = n1 if lam is None else n1 // 2
    # The ev.size * n_rows grid rows, e-major (row j * n_rows + i has
    # e = ev[j] and the i-th anomaly), are visited in chunks whose node
    # arrays are reused in place; each buffer's meaning is noted where it
    # changes.
    e_rows = np.repeat(ev, n_rows)
    cos_rows, sin_rows = (t[None].repeat(ev.size, axis=0).ravel()
                          for t in _row_anomalies(n_rows, np.pi))
    grid = (e_rows, cos_rows, sin_rows,
            *_ellipse_at(cos_rows, sin_rows, a, e_rows))
    rows = np.empty(((3, 2, 6)[order], ev.size * n_rows))
    mins = np.full(ev.size, np.inf) if order != 1 else None
    if lam is None:
        _quarter_rows(a, eJ, n_rows, n2, order, grid, rows, mins)
    else:
        _mapped_rows(a, eJ, lam, n_rows, 2 * n2, order, grid, rows, mins)
    # The mapped grid has one image per node where the quarter grid has
    # two, so it carries twice the quarter grid's factor.
    scale = (0.5 if lam is None else 1.0) / (n1 * n2)
    sums = rows.reshape(len(rows), ev.size, n_rows).sum(axis=2) * scale
    if order != 1:
        sums[-2:] *= 0.5  # Abar and Cbar carry half Rbar's factor; exact
        sums = (*sums, mins)
    if es.ndim == 0:
        return tuple(float(s[0]) for s in sums)
    return tuple(s.reshape(es.shape) for s in sums)


def _quarter_rows(a, eJ, n1, n2, order, grid, rows, mins):
    """Fill quarter_sums' row sums and minima on the quarter grid."""
    xJ, yJ, wJ, wx, wy = _planet_nodes(n2, np.pi, eJ)
    e_rows, cos_rows, _, x_rows, y_rows, w_rows = grid
    for lo, hi, (dx2, s1, s2, u1, u2, dv) in _row_blocks(rows.shape[1], n2, 6):
        out = rows[:, lo:hi]
        ek, x, y = e_rows[lo:hi], x_rows[lo:hi], y_rows[lo:hi]
        wi = w_rows[lo:hi]
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
        if order != 1:
            out[-2] = wi * y * s_my
            out[-1] = wi * x * s_px
            # The chunk's rows of one e are contiguous; one flat min each.
            for j in range(lo // n1, (hi - 1) // n1 + 1):
                seg = dv[max(j * n1, lo) - lo:(j + 1) * n1 - lo]
                mins[j] = min(mins[j], seg.min())
        if order == 0:
            continue
        cE = cos_rows[lo:hi]
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


def _mapped_rows(a, eJ, lam, n_rows, n_cols, order, grid, rows, mins):
    """Fill quarter_sums' row sums and minima on the mapped half grid.

    A chunk, whole e blocks or part of one, is shaped (e, row, node).  The
    distances dx = (a - 1) cos E + (eJ - a e) + C and dy = (a b - bJ) sin E
    + bJ S avoid the cancellation in x - xJ, which 1/r^3 would amplify.
    """
    table = _mapped_table(lam, eJ, n_rows, n_cols)
    e_rows, cos_rows, sin_rows, x_rows, y_rows, w_rows = grid
    b2_rows = 1.0 - e_rows * e_rows
    kx_rows = (a - 1.0) * cos_rows + (eJ - a * e_rows)
    ky_rows = (a * np.sqrt(b2_rows) - math.sqrt(1.0 - eJ * eJ)) * sin_rows
    for lo, hi, bufs in _row_blocks(rows.shape[1], n_cols, 7):
        ke = max(1, (hi - lo) // n_rows)
        r, t0, j = (hi - lo) // ke, lo % n_rows, lo // n_rows
        C, S, xJ, yJ, W = (
            table[:, t0:t0 + r] if table is not None
            else _mapped_nodes(lam, eJ, n_rows, n_cols, t0, t0 + r))
        dx, dy, s, u, v, p, q = bufs.reshape(7, ke, r, n_cols)
        out = rows[:, lo:hi].reshape(-1, ke, r)
        ek, cE, x, y, wi, b2, kx, ky = (t[lo:hi].reshape(ke, r) for t in (
            e_rows, cos_rows, x_rows, y_rows, w_rows, b2_rows, kx_rows,
            ky_rows))
        np.add(kx[..., None], C, out=dx)
        np.add(ky[..., None], S, out=dy)
        np.multiply(dx, dx, out=s)
        s += np.multiply(dy, dy, out=p)  # r^2
        np.sqrt(s, out=u)
        np.divide(1.0, u, out=u)  # 1 / r
        np.divide(u, s, out=v)  # 1 / r^3
        s_u = _rowdot(u, W)
        out[0] = wi * s_u
        wv = np.multiply(v, W, out=u)
        if order != 1:
            s_px, s_my = _rowdot(wv, xJ), _rowdot(wv, yJ)
            out[-2] = wi * y * s_my
            out[-1] = wi * x * s_px
            # The mirror image (xJ, -yJ) lies at r~^2 = r^2 + 4 y yJ, so
            # sign(yJ) (1/r^3 - 1/r~^3) >= 0 holds under monotone rounding.
            np.multiply(4.0 * y[..., None], yJ, out=p)
            p += s
            np.sqrt(p, out=q)
            np.divide(1.0, q, out=q)
            np.divide(q, p, out=q)
            np.subtract(v, q, out=q)
            q *= np.sign(yJ)
            mins[j:j + ke] = np.minimum(mins[j:j + ke], q.min(axis=(1, 2)))
        if order == 0:
            continue
        ye = -ek * y / b2  # dy/de; dx/de = -a
        s_dy = _rowdot(dy, wv)
        # sum of W (dx x_e + dy y_e) / r^3
        d_row = -a * _rowdot(dx, wv) + ye * s_dy
        out[1] = -cE * s_u - wi * d_row
        if order == 1:
            continue
        yee = -y / (b2 * b2)  # d2y/de2; d2x/de2 = 0
        s_p = wv.sum(axis=2)
        np.multiply(dx, -a, out=p)
        p += np.multiply(dy, ye[..., None], out=q)  # dx x_e + dy y_e
        p *= p
        p /= s
        s_q = _rowdot(p, wv)  # sum W (dx x_e + dy y_e)^2 / r^5
        out[2] = 2.0 * cE * d_row + wi * (
            -(a * a + ye * ye) * s_p - yee * s_dy + 3.0 * s_q)
        np.multiply(dy, x[..., None], out=p)
        p -= np.multiply(dx, y[..., None], out=q)  # y xJ - x yJ
        p *= p
        p /= s
        s_t = _rowdot(p, wv)
        out[3] = wi * (-x * s_px - y * s_my + 3.0 * s_t)


# The benchmark harness checks that the production kernel is this object.
quarter_sums_numpy = quarter_sums


def bbar_mean(a, e, eJ, n1, n2):
    """Full-domain [0,2pi)^2 midpoint mean of w * (x*yJ + y*xJ) / r1^3.

    Per row: wi * (x * sum wJ yJ / r1^3 + y * sum wJ xJ / r1^3).
    """
    xJ, yJ, _, wx, wy = _planet_nodes(n2, 2.0 * np.pi, eJ)
    x, y, wi = _ellipse_at(*_row_anomalies(n1, 2.0 * np.pi), a, e)
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
    xJ, yJ, wJ, _, _ = _planet_nodes(n2, 2.0 * np.pi, eJ)
    xp, yp, wi = _ellipse_at(*_row_anomalies(n1, 2.0 * np.pi), a, e)
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
