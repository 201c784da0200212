"""Planar equilibria of the doubly averaged problem.

Stable planar configurations sit at aligned periapses (q2 = 0, p2 > 0,
i.e. g = 0) where dRbar/de vanishes.  Roots are located by scanning the
derivative over the admissible (non-crossing) eccentricity range,
bracketing sign changes, and refining each with Brent's method; open
Newton iteration is never used, so a root is never lost outside its
bracket.

Derivatives come from differentiating the quadrature under the integral
sign, in the row pass that gives Rbar, Abar and Cbar
(:func:`kernels.quarter_sums` at ``order`` 1 or 2).  The differentiated
integrands stay analytic and periodic, so the midpoint rule converges
geometrically for them as it does for Rbar, with no finite-difference
step to choose.
Brent runs at one frozen node count per cell, which keeps the derivative
it solves a single analytic function of e.  The scan needs only signs and
runs one doubling level below, where the probe that froze the count has
already seen the two levels agree; Brent and the root stay at the frozen
level or finer.  The residual and the planar Hessian come from one
quadrature converged at the root itself, and a root whose residual fails
there is solved again at that level.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import kernels
from .averaging import (
    _SCALE_FLOOR,
    DEFAULT_SEPARATION_THRESHOLD,
    N_START,
    QuadratureSpec,
    _check_separation,
    _doubling,
)
from .errors import NonConvergedError
from .geometry import (
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

# Eccentricity search bracket; excludes the e = 0 coordinate singularity
# of the canonical chart and extreme eccentricities.
DEFAULT_E_BRACKET = (1e-4, 0.95)
# Derivative scan points over the admissible part of the bracket.
_N_SCAN = 21
# Eigenvalues within this fraction of the largest (at least 1) count as 0.
_DEFINITE_FLOOR = 1e-9

# Inter-orbit separation (scaled by max(1, a)) needed for the quadrature to
# converge within the node cap.  Scan points below it are masked out; being
# above the crossing threshold, it certifies every point the cell evaluates
# (see _scan_grid).
_SAFE_SEPARATION = 4.0 * DEFAULT_SEPARATION_THRESHOLD

_ROOT_RESIDUAL_TOL = 1e-11
# The scan grid is inset this far from the bracket ends; moving the grid
# changes which sign changes it sees, and with them borderline verdicts.
_SCAN_INSET = 1e-4


@dataclass(frozen=True, eq=False)
class EquilibriumRecord:
    """Located planar equilibrium with residual, Hessian, and status."""

    e_star: float
    residual: float
    hessian: np.ndarray | None
    hessian_definite: str
    status: str
    all_roots: tuple = field(default_factory=tuple)
    message: str = ""


def _derivatives(cfg, e, quad, order=1):
    """Converged (R, R_e), plus (R_ee, R_gg) at ``order`` 2, at g = 0.

    Returns (values, errors, nodes).  Node doubling stops once R agrees to
    the relative tolerance and R_e, which vanishes at the roots, to the
    same tolerance in absolute terms; the second derivatives are read at
    that level (their floor of inf leaves the stopping test to R and R_e).
    """
    if not (0.0 <= e < 1.0):
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    return _doubling(
        lambda n: kernels.quarter_sums(cfg.a, e, cfg.e_J, n, n, order=order),
        quad, floors=(_SCALE_FLOOR, 1.0, math.inf, math.inf)[:2 * order],
    )


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
    """Scan abscissae, admissibility mask and the best-separated point.

    A point is admissible when its exact aligned separation, from one
    batched evaluation, clears the convergence-safety margin, which exceeds
    the crossing threshold; inadmissible points are masked out rather than
    failing the whole search, because the near-crossing band can sit at
    either end (or both ends) of the eccentricity range.

    The mask is the cell's one crossing certificate.  Every evaluation the
    cell makes is an admissible scan point or lies inside a bracket whose
    two ends are admissible, and the separation is quasi-concave in e (see
    :func:`aligned_separation`), so inside such a bracket it stays above
    the margin too.
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
    mask = seps >= _SAFE_SEPARATION * max(1.0, cfg.a)
    if not mask.any():
        return None
    return grid, mask, float(grid[mask][np.argmax(seps[mask])])


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
    e_star, not only at a root.  R_e, R_ee and R_gg are converged
    quadratures at e_star (see :func:`kernels.quarter_sums`).

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
    _check_separation(cfg, e_star)
    (_, r_e, r_ee, r_gg), _, _ = _derivatives(cfg, e_star, quad, order=2)
    return _chain_rule_hessian(cfg, e_star, r_e, r_ee, r_gg)


def find_equilibrium(cfg: OrbitConfig, quad: QuadratureSpec) -> EquilibriumRecord:
    """Locate planar equilibria: roots of dRbar/de = 0 at g = 0.

    Evaluates the analytic derivative on an eccentricity grid over the
    admissible (non-crossing) part of ``DEFAULT_E_BRACKET`` in one batched
    kernel call one doubling level below the cell's frozen node count,
    brackets sign changes and refines each with Brent's method at the
    frozen count.  At each root the first and second derivatives are then
    converged afresh in one quadrature: the magnitude of the first is the
    reported residual, which must be below 1e-11, and all of them give the
    root's planar Hessian.  A root whose residual fails at a level above
    the one Brent used is solved again on its bracket at that level.  The
    positive-definite root is reported as the stable equilibrium.

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
        return EquilibriumRecord(
            e_star=math.nan, residual=math.nan, hessian=None,
            hessian_definite=DEGENERATE, status=STATUS_ORBIT_CROSSING,
            message="entire eccentricity bracket crosses (or nearly crosses) "
                    "the planet orbit",
        )

    # One frozen node count per cell keeps Brent's derivative an analytic
    # function of e; probe at the best-separated admissible point.  The
    # probe saw n_frozen // 2 agree with n_frozen, so the scan runs there.
    scan, mask, e_probe = certified
    _, _, n_frozen = _derivatives(cfg, e_probe, quad)

    def brackets_at(n):
        values = np.full(scan.shape, math.nan)
        values[mask] = kernels.quarter_sums(cfg.a, scan[mask], cfg.e_J, n, n,
                                            order=1)[1]
        neg = values < 0.0
        return [
            (float(scan[k]), float(scan[k + 1]))
            for k in range(len(scan) - 1)
            if mask[k] and mask[k + 1]
            and (values[k] == 0.0 or neg[k] != neg[k + 1])
        ]

    # dRbar/de at bracket ends, keyed (n, e); the ends a level needs are
    # evaluated in one batched call, which Brent's first two steps read.
    ends = {}

    def batch_ends(n, es):
        es = sorted({e for e in es if (n, e) not in ends})
        if es:
            r_e = kernels.quarter_sums(cfg.a, np.array(es), cfg.e_J, n, n,
                                       order=1)[1]
            ends.update(((n, e), float(v)) for e, v in zip(es, r_e))

    def slope(n, e):
        if (n, e) in ends:
            return ends[n, e]
        return kernels.quarter_sums(cfg.a, e, cfg.e_J, n, n, order=1)[1]

    # A bracket whose ends lose their sign change at n_frozen sends the
    # cell back to a scan at n_frozen itself.
    brackets = brackets_at(max(N_START, n_frozen // 2))
    batch_ends(n_frozen, [e for bracket in brackets for e in bracket])
    if any(ends[n_frozen, e1] * ends[n_frozen, e2] > 0.0
           for (e1, e2) in brackets):
        brackets = brackets_at(n_frozen)
    if not brackets:
        return EquilibriumRecord(
            e_star=math.nan, residual=math.nan, hessian=None,
            hessian_definite=DEGENERATE, status=STATUS_NO_ROOT,
            message="dRbar/de has no sign change on the admissible bracket",
        )

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
            batch_ends(n, (e1, e2))
            if ends[n, e1] * ends[n, e2] > 0.0:
                raise NonConvergedError(
                    f"dRbar/de has no sign change on [{e1:.15g}, {e2:.15g}] "
                    f"at n = {n} {where}", nodes=n)
            e_root = brentq(functools.partial(slope, n), e1, e2, xtol=1e-15,
                            rtol=4 * np.finfo(float).eps)
            (_, r_e, r_ee, r_gg), _, nodes = _derivatives(
                cfg, e_root, quad, order=2)
            resid = abs(float(r_e))
        hess = _chain_rule_hessian(cfg, e_root, r_e, r_ee, r_gg)
        records.append((e_root, resid, hess, classify_definiteness(hess)))

    stable = [r for r in records if r[3] == POSITIVE_DEFINITE]
    all_roots = tuple(r[0] for r in records)
    if not stable:
        return EquilibriumRecord(
            e_star=math.nan, residual=math.nan, hessian=None,
            hessian_definite=records[0][3],
            status=STATUS_NO_ROOT, all_roots=all_roots,
            message="roots located but none has a positive-definite Hessian",
        )
    # Prefer the smallest residual among stable roots.
    e_star, resid, hess, definite = min(stable, key=lambda r: r[1])
    status = STATUS_FOUND if len(records) == 1 else STATUS_MULTIPLE_ROOTS
    return EquilibriumRecord(
        e_star=e_star, residual=resid, hessian=hess,
        hessian_definite=definite, status=status, all_roots=all_roots,
    )
