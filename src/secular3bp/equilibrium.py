"""Planar equilibria of the doubly averaged problem.

Stable planar configurations sit at aligned periapses (q2 = 0, p2 > 0,
i.e. g = 0) where dRbar/de vanishes.  Roots are located by scanning the
derivative over the admissible (non-crossing) eccentricity range,
bracketing sign changes, and refining each with Brent's method; open
Newton iteration is never used, so a root is never lost outside its
bracket.  Brent's method is :func:`brentq`, an in-package port of
scipy's ``brentq`` that evaluates the same iterates and returns the same
root, kept so that the package import does not pay scipy's 0.4 s.

Derivatives come from differentiating the quadrature under the integral
sign, in the row pass that gives Rbar, Abar and Cbar
(:func:`kernels.quarter_sums` at ``order`` 1 or 2).  The differentiated
integrands stay analytic and periodic, so the midpoint rule converges
geometrically for them as it does for Rbar, with no finite-difference
step to choose.
Brent runs at one frozen node count n_frozen per cell, which keeps the
derivative it solves a single analytic function of e; Brent and the root
stay at that level or finer.  The scan needs only signs: each point takes
the first level n >= max(N_START, n_frozen / 8) where |R_e| exceeds three
times its change from n / 2, or n_frozen (:func:`_certified_scan`).  Every
R_e of the cell comes from one evaluator (:func:`_slopes`) that computes
each (n, e) once, so Brent's first two evaluations read the bracket ends
back and a rescan reuses the values held at n_frozen.  The residual and
the planar Hessian come from one quadrature converged at the root itself,
and a root whose residual fails there is solved again at that level.
That quadrature is ``averaging._point_quadrature`` at order 2, the
doubling ``averaged_coefficients`` runs at order 0: the order-2 row pass
also gives the Abar and Cbar sums, so one doubling converges the Hessian
terms and Rbar, Abar, Bbar and Cbar together, and the record carries
them for ``stability.classify_spatial``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .averaging import (
    _FLOORS,
    DEFAULT_SEPARATION_THRESHOLD,
    N_START,
    AveragedCoefficients,
    QuadratureSpec,
    _doubling,
    _point_quadrature,
)
from .errors import NonConvergedError
from .geometry import (
    _SCAN_INSET,
    DEFAULT_E_BRACKET,
    OrbitConfig,
    aligned_noncrossing_interval,
    aligned_separation,
)

__all__ = [
    "STATUS_FOUND",
    "STATUS_NO_ROOT",
    "STATUS_MULTIPLE_ROOTS",
    "STATUS_ORBIT_CROSSING",
    "EQUILIBRIUM_STATUSES",
    "EquilibriumRecord",
    "find_equilibrium",
    "planar_hessian",
    "classify_definiteness",
]

STATUS_FOUND = "FOUND"
STATUS_NO_ROOT = "NO_ROOT"
STATUS_MULTIPLE_ROOTS = "MULTIPLE_ROOTS"
STATUS_ORBIT_CROSSING = "ORBIT_CROSSING"
# The statuses of a cell with a located stable equilibrium.
EQUILIBRIUM_STATUSES = (STATUS_FOUND, STATUS_MULTIPLE_ROOTS)

POSITIVE_DEFINITE = "POSITIVE_DEFINITE"
NEGATIVE_DEFINITE = "NEGATIVE_DEFINITE"
INDEFINITE = "INDEFINITE"
DEGENERATE = "DEGENERATE"

# Derivative scan points over the admissible part of the bracket.
_N_SCAN = 21
# Eigenvalues within this fraction of the largest (at least 1) count as 0.
_DEFINITE_FLOOR = 1e-9

# Inter-orbit separation (scaled by max(1, a)) needed for the quadrature to
# converge within the node cap.  Only scan points above it are scanned;
# being above the crossing threshold, it certifies every point the cell
# evaluates (see _scan_grid).
_SAFE_SEPARATION = 4.0 * DEFAULT_SEPARATION_THRESHOLD

_ROOT_RESIDUAL_TOL = 1e-11

# The scan's rule (see _certified_scan).  Below n_frozen / 8, R_e can sit on
# a plateau (at (0.97, 0.5) and e = 0.50005: +0.264 at n = 32, -0.174 at 256).
_SIGN_MARGIN = 3.0
_SCAN_LEVEL_DIVISOR = 8

# Brent's relative tolerance and iteration cap, scipy's brentq defaults.
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


@dataclass(frozen=True, eq=False)
class EquilibriumRecord:
    """Located planar equilibrium with residual, Hessian, and status.

    ``coefficients`` are the spatial coefficients at e_star, converged in
    the root's own quadrature; None when no stable root was located.
    """

    e_star: float
    residual: float
    hessian: np.ndarray | None
    hessian_definite: str
    status: str
    coefficients: AveragedCoefficients | None
    all_roots: tuple
    message: str


def _unlocated(status, definite, all_roots, message):
    """The record of a cell with no located stable root."""
    return EquilibriumRecord(
        e_star=math.nan, residual=math.nan, hessian=None,
        hessian_definite=definite, status=status, coefficients=None,
        all_roots=all_roots, message=message)


def _slopes(cfg):
    """The cell's one source of (R, R_e) at g = 0, each (n, e) computed once.

    ``at(n, es)`` returns the rows (R, R_e) at each e of ``es`` with n nodes
    per anomaly.  The pairs not yet held are computed in one batched
    ``kernels.quarter_sums`` call and kept; a value's bytes do not depend
    on the rest of the batch, so a kept value is the one a fresh call gives.
    """
    levels = {}

    def at(n, es):
        held = levels.setdefault(n, {})
        es = np.asarray(es, dtype=float).tolist()
        new = [e for e in dict.fromkeys(es) if e not in held]
        if new:
            sums = kernels.quarter_sums(cfg.a, np.array(new), cfg.e_J, n, n,
                                        order=1)
            held.update(zip(new, zip(*(s.tolist() for s in sums))))
        return np.array([held[e] for e in es]).reshape(-1, 2).T

    return at


def _certified_scan(at, es, n_frozen):
    """R_e at each e of ``es``, each at the level that certifies its sign.

    The points double together from n = N_START / 2, one request to the
    cell's ``at`` per level.  A point takes the first level n >= max(N_START,
    n_frozen / 8) where |R_e(n)| > 3 |R_e(n) - R_e(n / 2)|, or n_frozen.
    Once the midpoint rule converges geometrically the remaining error is
    below the last change, so a certified sign is right.
    """
    values, todo, prev = np.empty(es.shape), np.arange(es.size), 0.0
    n, floor = N_START // 2, max(N_START, n_frozen // _SCAN_LEVEL_DIVISOR)
    while todo.size:
        cur = at(n, es[todo])[1]
        done = (n >= n_frozen) | ((n >= floor) & (
            np.abs(cur) > _SIGN_MARGIN * np.abs(cur - prev)))
        values[todo[done]] = cur[done]
        todo, prev, n = todo[~done], cur[~done], 2 * n
    return values


def brentq(f, xa, xb, xtol):
    """Root of f in [xa, xb] by Brent's method, as scipy.optimize.brentq.

    A line-for-line port of scipy's C ``brentq`` (Brent, *Algorithms for
    Minimization Without Derivatives*, 1973, ch. 4) at rtol = 4 eps and at
    most 100 iterations: the same bracket bookkeeping, steps and tests, so
    it evaluates f at the same points in the same order and returns the
    same root.  An end where f is 0 is returned as the root.

    Raises:
        ValueError: f has the same sign at both ends, or f is NaN.
        RuntimeError: No convergence within 100 iterations.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN; Brent's method cannot continue")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge after "
                       f"{_BRENT_MAXITER} iterations, value is {xcur!r}")


def classify_definiteness(hessian):
    """Classify a symmetric 2x2 matrix by its eigenvalue signs."""
    eigs = np.linalg.eigvalsh(hessian)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if np.any(np.abs(eigs) <= _DEFINITE_FLOOR * scale):
        return DEGENERATE
    if np.all(eigs > 0.0):
        return POSITIVE_DEFINITE
    if np.all(eigs < 0.0):
        return NEGATIVE_DEFINITE
    return INDEFINITE


def _scan_grid(cfg):
    """The admissible scan points and the best-separated one, or None.

    A grid point is admissible when its exact aligned separation, from one
    batched evaluation, clears the convergence-safety margin, which exceeds
    the crossing threshold.  The near-crossing band can sit at either end
    (or both ends) of the eccentricity range; the separation is concave in
    e on the non-crossing interval (see :func:`aligned_separation`), so the
    admissible points form one unbroken run of the grid.

    The run is the cell's one crossing certificate.  Every evaluation the
    cell makes is a point of the run or lies between two neighbours in it,
    where by that concavity the separation stays above the margin too.
    """
    lo, hi = DEFAULT_E_BRACKET
    interval = aligned_noncrossing_interval(cfg.a, cfg.e_J)
    if interval is None:
        return None
    lo = max(lo, interval[0])
    hi = min(hi, interval[1])
    if lo + 2.0 * _SCAN_INSET >= hi:
        return None
    grid = np.linspace(lo + _SCAN_INSET, hi - _SCAN_INSET, _N_SCAN)
    seps = aligned_separation(cfg.a, grid, cfg.e_J)
    admissible = seps >= _SAFE_SEPARATION * max(1.0, cfg.a)
    if not admissible.any():
        return None
    points = grid[admissible]
    return points, float(points[np.argmax(seps[admissible])])


def _chain_rule_hessian(cfg, e_star, r_e, r_ee, r_gg):
    """Planar Hessian in (p2, q2) from e- and g-derivatives at (e_star, 0).

    See :func:`planar_hessian` for the formulas.
    """
    L = math.sqrt(cfg.a)  # mu-free chart; exact mu factor applied at the end
    b = math.sqrt(1.0 - e_star * e_star)
    # p2 = e sqrt(2 L / (1 + b)) and its derivatives in closed form, free
    # of the cancellation in L - G at small e.
    p2 = e_star * math.sqrt(2.0 * L / (1.0 + b))
    de = b * math.sqrt(2.0 / (L * (1.0 + b)))
    d2e = -e_star * (b + 2.0) / (L * (1.0 + b) ** 2)
    hess_pp = r_ee * de * de + r_e * d2e
    hess_qq = r_e * de / p2 + r_gg / (p2 * p2)
    mu_factor = 1.0 / math.sqrt(1.0 - cfg.mu)
    return mu_factor * np.array([[hess_pp, 0.0], [0.0, hess_qq]])


def planar_hessian(cfg: OrbitConfig, e_star, quad: QuadratureSpec):
    """Second derivatives of Rbar in canonical (p2, q2) at (e_star, g = 0).

    The chain rule through p2 = sqrt(2 (L - G)) cos g, q2 = -sqrt(2 (L - G))
    sin g, with e' = de/dp2 and e'' = d2e/dp2^2 along q2 = 0, gives

        hess_pp = R_ee e'^2 + R_e e''
        hess_qq = R_e e' / p2 + R_gg / p2^2
        hess_pq = 0

    exactly (R is even in g, so R_eg vanishes at g = 0); it holds at any
    e_star, not only at a root.  R_e, R_ee and R_gg come from the order-2
    ``_point_quadrature`` at e_star, as in :func:`find_equilibrium`, so at
    a located root this is the record's Hessian.

    The mass fraction enters the canonical chart only through the overall
    scale L = sqrt((1-mu) a), so the chain rule is applied in the mu-free
    chart and the exact factor (1-mu)^(-1/2) afterwards.

    Args:
        cfg: Problem parameters.
        e_star: Eccentricity of the expansion point, in (0, 1); the chart
            is singular at e = 0.
        quad: Quadrature control.

    Returns:
        2x2 numpy array [[d2/dp2^2, d2/dp2dq2], [d2/dp2dq2, d2/dq2^2]].
    """
    if not (0.0 < e_star < 1.0):
        raise ValueError(f"eccentricity must be in (0, 1), got {e_star}")
    (r_e, r_ee, r_gg), _, _ = _point_quadrature(cfg, e_star, quad, 2)
    return _chain_rule_hessian(cfg, e_star, r_e, r_ee, r_gg)


def find_equilibrium(cfg: OrbitConfig, quad: QuadratureSpec) -> EquilibriumRecord:
    """Locate planar equilibria: roots of dRbar/de = 0 at g = 0.

    Evaluates the analytic derivative on an eccentricity grid over the
    admissible (non-crossing) part of ``DEFAULT_E_BRACKET``, each point at
    the first level no lower than max(N_START, n_frozen / 8) where its
    value exceeds three times its change from the level below, or at the
    cell's frozen node count n_frozen; brackets sign changes and refines
    each with Brent's method at n_frozen.  At each root the first and
    second derivatives and the spatial coefficients are then converged
    afresh in one quadrature: the magnitude of the first derivative is the
    reported residual, which must be below 1e-11, the derivatives give the
    root's planar Hessian, and the coefficients ride on the record.  A root
    whose residual fails at a level above the one Brent used is solved
    again on its bracket at that level.  The positive-definite root is
    reported as the stable equilibrium.

    Status semantics: FOUND for a single root with positive-definite
    Hessian; MULTIPLE_ROOTS when several roots exist (e_star then points at
    the stable one); NO_ROOT when no sign change (or no stable root) is
    found; ORBIT_CROSSING when the entire bracket is inadmissible.

    Args:
        cfg: Problem parameters.
        quad: Quadrature control.

    Returns:
        EquilibriumRecord.

    Raises:
        NonConvergedError: A root's residual stays above 1e-11 at a node
            count it was solved at, its bracket loses the sign change at a
            level above the frozen one, or a quadrature reaches the node
            cap.  A scan bracket whose ends lose their sign change at the
            frozen level is no error: the cell is scanned again there.
    """
    certified = _scan_grid(cfg)
    if certified is None:
        return _unlocated(
            STATUS_ORBIT_CROSSING, DEGENERATE, (),
            "entire eccentricity bracket crosses (or nearly crosses) the "
            "planet orbit")

    # One frozen node count per cell keeps Brent's derivative an analytic
    # function of e; probe at the best-separated admissible point.  The
    # scan's level N_START holds every point, the probe's first level too.
    scan, e_probe = certified
    at = _slopes(cfg)
    at(N_START, scan)
    _, _, n_frozen = _doubling(lambda n: at(n, [e_probe])[:, 0], quad,
                               floors=_FLOORS[1])

    def brackets_of(values):
        neg = values < 0.0
        return [(float(scan[k]), float(scan[k + 1]))
                for k in range(len(scan) - 1)
                if values[k] == 0.0 or neg[k] != neg[k + 1]]

    # A bracket whose ends lose their sign change at n_frozen sends the
    # cell back to a scan at n_frozen itself.
    brackets = brackets_of(_certified_scan(at, scan, n_frozen))
    ends = at(n_frozen, [e for bracket in brackets for e in bracket])[1]
    if np.any(ends[::2] * ends[1::2] > 0.0):
        brackets = brackets_of(at(n_frozen, scan)[1])
    if not brackets:
        return _unlocated(
            STATUS_NO_ROOT, DEGENERATE, (),
            "dRbar/de has no sign change on the admissible bracket")

    records = []
    where = f"(a={cfg.a:g}, e_J={cfg.e_J:g})"
    for (e1, e2) in brackets:
        # Solve at the frozen level, then again at the root's own converged
        # level until the residual there passes or that level was solved at.
        n, nodes, resid = 0, n_frozen, math.inf
        while not resid < _ROOT_RESIDUAL_TOL:
            if nodes <= n:
                raise NonConvergedError(
                    f"|dRbar/de| = {resid:.3e} at the root e = {e_root:.15g} "
                    f"{where}, converged at n = {nodes} after a solve at "
                    f"n = {n}", last_error=resid, nodes=nodes)
            n = nodes
            r_e1, r_e2 = at(n, (e1, e2))[1]
            if r_e1 * r_e2 > 0.0:
                raise NonConvergedError(
                    f"dRbar/de has no sign change on [{e1:.15g}, {e2:.15g}] "
                    f"at n = {n} {where}", nodes=n)
            e_root = brentq(lambda e: at(n, [e])[1, 0], e1, e2, 1e-15)
            (r_e, r_ee, r_gg), coeffs, nodes = _point_quadrature(
                cfg, e_root, quad, 2)
            resid = abs(float(r_e))
        hess = _chain_rule_hessian(cfg, e_root, r_e, r_ee, r_gg)
        records.append(
            (e_root, resid, hess, classify_definiteness(hess), coeffs))

    stable = [r for r in records if r[3] == POSITIVE_DEFINITE]
    all_roots = tuple(r[0] for r in records)
    if not stable:
        return _unlocated(
            STATUS_NO_ROOT, records[0][3], all_roots,
            "roots located but none has a positive-definite Hessian")
    # Prefer the smallest residual among stable roots.
    e_star, resid, hess, definite, coeffs = min(stable, key=lambda r: r[1])
    status = STATUS_FOUND if len(records) == 1 else STATUS_MULTIPLE_ROOTS
    return EquilibriumRecord(
        e_star=e_star, residual=resid, hessian=hess,
        hessian_definite=definite, status=status, coefficients=coeffs,
        all_roots=all_roots, message="",
    )
