"""Hot quadrature kernels, vectorized with numpy.

Every kernel uses one row-reduced scheme.  The grid rows (one asteroid
anomaly each), shaped (e, row), are visited in chunks of whole e blocks or
of whole rows of one e (``_row_blocks``) that fit in cache; each row is
reduced on its own against its planet nodes (``_rowsum``), and the row sums
are added once at the end.  The summation order is therefore set by the
row alone: results are reproducible, independent of the chunking, of a
batch of eccentricities and of any outer parallelism.

Geometry conventions: the planet ellipse has semi-major axis 1 with
periapsis on the +x axis, ``xJ = cos(EJ) - eJ``, ``yJ = sqrt(1-eJ^2) sin(EJ)``;
the asteroid orbital-plane ellipse is ``x' = a (cos E - e)``,
``y' = a sqrt(1-e^2) sin E``.  Averages over mean anomalies are evaluated in
eccentric anomalies with the Jacobian weight ``(1 - e cos E)(1 - eJ cos EJ)``.

``quarter_sums`` has two node rules, set per cell by
``geometry.near_coincident``: the quarter grid, and on near-coincident cells
a half grid whose planet anomalies are conformally mapped around each row
(Hale & Trefethen, SIAM J. Numer. Anal. 46, 2008).  The row anomalies'
cosines and sines per ``(n, span)``, the planet's node table per
``(n, span, eJ)`` and the mapped one per row chunk are cached as read-only
arrays.
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
]

# Recorded as ``kernel_backend`` in the sweep metadata.
BACKEND = "numpy"

# Nodes per chunk, for every kernel.  A chunk holds at most seven node
# arrays of 512 KiB each, reused from chunk to chunk, so the working set
# stays near a 2 MiB L2 cache; at n = 1024 this measured four to five times
# faster per node than 4M-node chunks of fresh temporaries.
_CHUNK_NODES = 1 << 16

# Tables per cache: 32 holds a cell's quarter-grid tables (9 levels on 2
# spans) and every chunk table a mapped cell visits up to level 1024 (25).
_TABLE_CACHE_SIZE = 32


def _ellipse_at(c, s, a, e):
    """Orbital-plane position (x, y) and Kepler weight 1 - e cos E at the
    anomalies E with cosines c and sines s.

    With ``a = 1`` and ``e = eJ`` this is the planet's ellipse.
    """
    return a * (c - e), a * np.sqrt(1.0 - e * e) * s, 1.0 - e * c


def _read_only(table):
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _row_anomalies(n, span):
    """Read-only rows (cos E, sin E) at n midpoints on [0, span)."""
    E = _midpoints(n, span)
    return _read_only(np.array([np.cos(E), np.sin(E)]))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _planet_nodes(n, span, eJ):
    """Read-only rows (xJ, yJ, wJ, wJ xJ, wJ yJ), n midpoints on [0, span)."""
    xJ, yJ, wJ = _ellipse_at(*_row_anomalies(n, span), 1.0, eJ)
    return _read_only(np.array([xJ, yJ, wJ, wJ * xJ, wJ * yJ]))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _mapped_nodes(lam, eJ, n_rows, n_cols, lo, hi):
    """Read-only rows lo:hi of the mapped grid's nodes (C, bJ S, xJ, yJ, W).

    Row i, at the i-th of n_rows midpoints E on (0, pi), meets the planet
    at E_J = E + psi, psi = 2 atan(lam tan(phi / 2)), phi the n_cols
    midpoints on [0, 2 pi).  C = cos E - cos E_J and S = sin E - sin E_J
    come from cos psi and sin psi without cancellation near E_J = E; W is
    the Kepler weight times dE_J/dphi = lam / (cos^2 + lam^2 sin^2)(phi/2).
    """
    c, s = _row_anomalies(n_rows, np.pi)[:, lo:hi, None]
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
    return _read_only(table)


def _midpoints(n, span):
    """Midpoint anomalies of an n-node grid over [0, span)."""
    return (np.arange(n) + 0.5) * (span / n)


def _row_blocks(n_e, n_rows, n_cols, count):
    """Chunks of the (e, row) grid rows, at most _CHUNK_NODES nodes each:
    whole e blocks, or whole rows of one e (one row at least).

    Yields the chunk's index (e slice, row slice) and ``count`` scratch
    node arrays of shape (ke, r, n_cols), the same memory for every chunk.
    """
    r = min(n_rows, _CHUNK_NODES // n_cols) or 1
    ke = min(n_e, _CHUNK_NODES // (n_rows * n_cols)) or 1
    buffers = np.empty((count, ke, r, n_cols))
    for e0 in range(0, n_e, ke):
        eb = slice(e0, min(e0 + ke, n_e))
        for r0 in range(0, n_rows, r):
            rb = slice(r0, min(r0 + r, n_rows))
            yield (eb, rb), buffers[:, :eb.stop - e0, :rb.stop - r0]


def _rowsum(m, w):
    """Per-row sums of m * w over the last axis, in an order set by the row.

    A BLAS matrix-vector product may sum a row differently depending on
    its position in the block, which would break batch invariance.
    """
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
    ev = es.reshape(-1, 1)
    n_rows = n1 if lam is None else n1 // 2
    # The grid rows, shaped (e, row), are visited in chunks whose node
    # arrays are reused in place; each buffer's meaning is noted where it
    # changes.  e and 1 - e^2 are (e, 1), cos E and sin E (row,).
    cos_rows, sin_rows = _row_anomalies(n_rows, np.pi)
    grid = (ev, 1.0 - ev * ev, cos_rows, sin_rows,
            *_ellipse_at(cos_rows, sin_rows, a, ev))
    rows = np.empty(((3, 2, 6)[order], ev.size, n_rows))
    mins = np.full(ev.size, np.inf) if order != 1 else None
    if lam is None:
        _quarter_rows(a, eJ, n2, order, grid, rows, mins)
    else:
        _mapped_rows(a, eJ, lam, 2 * n2, order, grid, rows, mins)
    # The mapped grid has one image per node where the quarter grid has
    # two, so it carries twice the quarter grid's factor.
    scale = (0.5 if lam is None else 1.0) / (n1 * n2)
    sums = rows.sum(axis=2) * scale
    if order != 1:
        sums[-2:] *= 0.5  # Abar and Cbar carry half Rbar's factor; exact
        sums = (*sums, mins)
    if es.ndim == 0:
        return tuple(float(s[0]) for s in sums)
    return tuple(s.reshape(es.shape) for s in sums)


def _quarter_rows(a, eJ, n2, order, grid, rows, mins):
    """Fill quarter_sums' row sums and minima on the quarter grid."""
    xJ, yJ, wJ, wx, wy = _planet_nodes(n2, np.pi, eJ)
    es, b2s, cos_rows, _, x_rows, y_rows, w_rows = grid
    for idx, (dx2, s1, s2, u1, u2, dv) in _row_blocks(*x_rows.shape, n2, 6):
        eb, rb = idx
        out = rows[:, eb, rb]
        x, y, wi = x_rows[idx], y_rows[idx], w_rows[idx]
        xc, yc = x[..., None], y[..., None]
        np.subtract(xc, xJ, out=dx2)
        dx2 *= dx2
        np.subtract(yc, yJ, out=s1)
        s1 *= s1
        s1 += dx2  # r1^2
        np.add(yc, yJ, out=s2)
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
            mins[eb] = np.minimum(mins[eb], dv.min(axis=(1, 2)))
        if order == 0:
            continue
        cE, ek, b2 = cos_rows[rb], es[eb], b2s[eb]
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
        adx = np.subtract(xc, xJ, out=pv)
        adx *= -a  # dx x_e
        d1 = np.subtract(yc, yJ, out=u1)
        d1 *= ye[..., None]
        d1 += adx  # dx x_e + dy y_e
        d2 = np.add(yc, yJ, out=u2)
        d2 *= ye[..., None]
        d2 += adx
        f = np.multiply(d1, d1, out=dv)
        f *= q1
        d2 *= d2
        d2 *= q2
        f += d2
        s_q = _rowsum(f, wJ)
        out[2] = 2.0 * cE * d_row + wi * (
            -(a * a + ye * ye) * s_p - yee * (y * s_p - s_my) + 3.0 * s_q)
        yxJ = np.multiply(yc, xJ, out=u1)
        xyJ = np.multiply(xc, yJ, out=u2)
        t1 = np.subtract(yxJ, xyJ, out=dv)
        t2 = np.add(yxJ, xyJ, out=u1)
        t1 *= t1
        t1 *= q1
        t2 *= t2
        t2 *= q2
        t1 += t2
        s_t = _rowsum(t1, wJ)
        out[3] = wi * (-x * s_px - y * s_my + 3.0 * s_t)


def _mapped_rows(a, eJ, lam, n_cols, order, grid, rows, mins):
    """Fill quarter_sums' row sums and minima on the mapped half grid.

    The distances dx = (a - 1) cos E + (eJ - a e) + C and dy = (a b - bJ)
    sin E + bJ S avoid the cancellation in x - xJ, which 1/r^3 would
    amplify.
    """
    es, b2s, cos_rows, sin_rows, x_rows, y_rows, w_rows = grid
    kx_rows = (a - 1.0) * cos_rows + (eJ - a * es)
    ky_rows = (a * np.sqrt(b2s) - math.sqrt(1.0 - eJ * eJ)) * sin_rows
    n_e, n_rows = x_rows.shape
    for idx, (dx, dy, s, u, v, p, q) in _row_blocks(n_e, n_rows, n_cols, 7):
        eb, rb = idx
        C, S, xJ, yJ, W = _mapped_nodes(lam, eJ, n_rows, n_cols,
                                        rb.start, rb.stop)
        out = rows[:, eb, rb]
        x, y, wi = x_rows[idx], y_rows[idx], w_rows[idx]
        np.add(kx_rows[idx][..., None], C, out=dx)
        np.add(ky_rows[idx][..., None], S, out=dy)
        np.multiply(dx, dx, out=s)
        s += np.multiply(dy, dy, out=p)  # r^2
        np.sqrt(s, out=u)
        np.divide(1.0, u, out=u)  # 1 / r
        np.divide(u, s, out=v)  # 1 / r^3
        s_u = _rowsum(u, W)
        out[0] = wi * s_u
        wv = np.multiply(v, W, out=u)
        if order != 1:
            s_px, s_my = _rowsum(wv, xJ), _rowsum(wv, yJ)
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
            mins[eb] = np.minimum(mins[eb], q.min(axis=(1, 2)))
        if order == 0:
            continue
        cE, ek, b2 = cos_rows[rb], es[eb], b2s[eb]
        ye = -ek * y / b2  # dy/de; dx/de = -a
        s_dy = _rowsum(dy, wv)
        # sum of W (dx x_e + dy y_e) / r^3
        d_row = -a * _rowsum(dx, wv) + ye * s_dy
        out[1] = -cE * s_u - wi * d_row
        if order == 1:
            continue
        yee = -y / (b2 * b2)  # d2y/de2; d2x/de2 = 0
        s_p = wv.sum(axis=2)
        np.multiply(dx, -a, out=p)
        p += np.multiply(dy, ye[..., None], out=q)  # dx x_e + dy y_e
        p *= p
        p /= s
        s_q = _rowsum(p, wv)  # sum W (dx x_e + dy y_e)^2 / r^5
        out[2] = 2.0 * cE * d_row + wi * (
            -(a * a + ye * ye) * s_p - yee * s_dy + 3.0 * s_q)
        np.multiply(dy, x[..., None], out=p)
        p -= np.multiply(dx, y[..., None], out=q)  # y xJ - x yJ
        p *= p
        p /= s
        s_t = _rowsum(p, wv)
        out[3] = wi * (-x * s_px - y * s_my + 3.0 * s_t)


# The benchmark harness checks that the production kernel is this object.
quarter_sums_numpy = quarter_sums


def bbar_mean(a, e, eJ, n1, n2):
    """Full-domain [0,2pi)^2 midpoint mean of w * (x*yJ + y*xJ) / r1^3.

    Per row: wi * (x * sum wJ yJ / r1^3 + y * sum wJ xJ / r1^3).
    """
    xJ, yJ, _, wx, wy = _planet_nodes(n2, 2.0 * np.pi, eJ)
    x, y, wi = _ellipse_at(*_row_anomalies(n1, 2.0 * np.pi)[:, None], a, e)
    rows = np.empty((1, n1))
    for idx, (s, t) in _row_blocks(1, n1, n2, 2):
        xr, yr = x[idx], y[idx]
        np.subtract(xr[..., None], xJ, out=s)
        s *= s
        np.subtract(yr[..., None], yJ, out=t)
        t *= t
        s += t  # r1^2
        v = np.sqrt(s, out=t)
        v *= s
        np.divide(1.0, v, out=v)  # 1 / r1^3
        rows[idx] = wi[idx] * (xr * _rowsum(v, wy) + yr * _rowsum(v, wx))
    return float(rows.sum()) / (n1 * n2)


def rbar_rotated_mean(a, e, eJ, cg, sg, n1, n2):
    """Full-domain mean of w / r1 with the asteroid ellipse rotated by g.

    (cg, sg) = (cos g, sin g).  Also returns the smallest sampled r1^2 so
    callers can detect near-singular geometry.  Per row: wi * sum wJ / r1.
    """
    xJ, yJ, wJ, _, _ = _planet_nodes(n2, 2.0 * np.pi, eJ)
    xp, yp, wi = _ellipse_at(*_row_anomalies(n1, 2.0 * np.pi)[:, None], a, e)
    x = cg * xp + -sg * yp
    y = sg * xp + cg * yp
    rows = np.empty((1, n1))
    rsq_min = np.inf
    for idx, (s, t) in _row_blocks(1, n1, n2, 2):
        np.subtract(x[idx][..., None], xJ, out=s)
        s *= s
        np.subtract(y[idx][..., None], yJ, out=t)
        t *= t
        s += t  # r1^2
        rsq_min = min(rsq_min, float(s.min()))
        np.sqrt(s, out=s)
        np.divide(1.0, s, out=s)  # 1 / r1
        rows[idx] = wi[idx] * _rowsum(s, wJ)
    return float(rows.sum()) / (n1 * n2), rsq_min
