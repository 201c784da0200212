"""Bundled oracle checks exercised by the ``validate`` CLI command.

Each check pits one production path against an independent evaluation:

* ``bbar-vanishes``     - the full-domain average of the cross coefficient
                          must sit below tolerance (exact value 0).
* ``quarter-folding``   - folded quarter-domain Rbar/Abar/Cbar against a
                          self-contained unfolded full-domain reference
                          implemented here with plain numpy (independent of
                          the production kernels and of the folding).
* ``spatial-hessian``   - finite-difference (p3, q3) Hessian of a
                          plain-numpy tilted-orbit average (full 3-D
                          geometry, independent of the production kernels)
                          against diag(2 Abar, 2 Cbar) with a vanishing
                          cross term.
* ``mu-scaling``        - coefficients scale exactly as (1-mu)^(-1/2).
* ``mapped-grid``       - Rbar/Abar/Cbar of near-coincident cells, which
                          the kernels evaluate on the mapped grid, against
                          the quarter grid at four times the accepted level.
* ``spectrum``          - the assembled 4x4 linearization at located
                          equilibria has purely imaginary eigenvalues
                          matching the record's reported
                          (+-i omega_plane, +-i omega_z).

``--inject-fault abar-sign`` flips the sign of Abar inside the
spatial-hessian comparison, proving the harness actually detects
discrepancies.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .averaging import (
    DEFAULT_SEPARATION_THRESHOLD,
    QuadratureSpec,
    _check_separation,
    _doubling,
    _point_quadrature,
    averaged_coefficients,
)
from .errors import OrbitCrossingError
from .geometry import OrbitConfig, aligned_noncrossing_interval, aligned_separation
from .sweep import evaluate_cell

__all__ = [
    "CheckResult",
    "sample_noncrossing_points",
    "sample_coincident_points",
    "spatial_quadratic_oracle",
    "unfolded_reference",
    "linearized_matrix",
    "run_validation",
]

DEFAULT_SEED = 20260809

# Sampled regimes: inner (a < 1) and outer (a > 1) semi-major axes and
# the planet eccentricity.
_INNER_A = (0.05, 0.55)
_OUTER_A = (1.8, 4.0)
_EJ_RANGE = (0.05, 0.85)
# Semi-major axes of near-coincident samples, below and above the planet's,
# and their separation floor: closer samples can need more than four times
# the mapped grid's level on the quarter grid they are checked against.
_COINCIDENT_A = ((0.93, 0.97), (1.03, 1.07))
_COINCIDENT_SEP = 2e-2

# Keep random samples comfortably inside the admissible wedge so every
# check runs on smooth, well-converged quadratures.
_ECC_MARGIN_SEP = 8e-3

# Finite-difference step of spatial_quadratic_oracle, in units of sqrt(2 L).
_H_SCALE = 1e-3

# Second mass fraction of the mu-scaling check.
_MU_ALT = 0.4


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    worst: float
    passed: bool
    detail: str

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        return (f"{flag}  {self.name:<18s} tol={self.tolerance:.1e}  "
                f"worst={self.worst:.3e}  {self.detail}")


def sample_noncrossing_points(n, seed):
    """Deterministic random (a, e, eJ) triples away from orbit crossings.

    Alternates between the inner (a < 1) and outer (a > 1) regimes and
    keeps each eccentricity inside the aligned non-crossing interval with
    a safety margin.
    """
    return _sample_points(n, seed, (_INNER_A, _OUTER_A), _ECC_MARGIN_SEP)


def sample_coincident_points(n, seed):
    """Deterministic random near-coincident (a, e, eJ) triples.

    As :func:`sample_noncrossing_points`, with a within 0.07 of 1, below
    and above it in turn: the kernels evaluate these on the mapped grid.
    """
    return _sample_points(n, seed, _COINCIDENT_A, _COINCIDENT_SEP)


def _sample_points(n, seed, a_ranges, sep):
    rng = np.random.default_rng(seed)
    points = []
    use_inner = True
    while len(points) < n:
        lo_a, hi_a = a_ranges[0] if use_inner else a_ranges[1]
        use_inner = not use_inner
        a = float(rng.uniform(lo_a, hi_a))
        eJ = float(rng.uniform(*_EJ_RANGE))
        interval = aligned_noncrossing_interval(a, eJ)
        if interval is None:
            continue
        sep_floor = sep * max(1.0, a)
        margin = sep_floor / a
        lo = interval[0] + (margin if interval[0] > 0.0 else 0.0)
        hi = interval[1] - (margin if interval[1] < 1.0 else 0.0)
        lo, hi = max(lo, 0.01), min(hi, 0.9)
        if lo >= hi:
            continue
        e = float(rng.uniform(lo, hi))
        if aligned_separation(a, e, eJ) < sep_floor:
            continue
        points.append((a, e, eJ))
    return points


def _ellipse(n, a, e):
    """Midpoint nodes (x, y) of an ellipse over [0, 2pi) and their Kepler weight."""
    E = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    x = a * (np.cos(E) - e)
    y = a * math.sqrt(1.0 - e * e) * np.sin(E)
    return x, y, 1.0 - e * np.cos(E)


def unfolded_reference(a, e, eJ, mu, n):
    """Full-domain [0, 2pi)^2 averages of the raw R, A, C coefficients.

    Straightforward midpoint rule in plain numpy; intentionally independent
    of the production kernels and of the quarter-domain folding.
    """
    x, y, wi = _ellipse(n, a, e)
    xJ, yJ, wJ = _ellipse(n, 1.0, eJ)
    w = np.outer(wi, wJ)
    r1 = np.sqrt((x[:, None] - xJ[None, :]) ** 2 + (y[:, None] - yJ[None, :]) ** 2)
    G = math.sqrt((1.0 - mu) * a * (1.0 - e * e))
    rbar = float(np.mean(w / r1))
    abar = float(np.mean(-0.5 * w * np.outer(y, yJ) / (r1**3 * G)))
    cbar = float(np.mean(-0.5 * w * np.outer(x, xJ) / (r1**3 * G)))
    return rbar, abar, cbar


def _tilted_average(cfg: OrbitConfig, e, p3, q3, n):
    """Full-domain [0, 2pi)^2 midpoint mean of w / |r - rJ| on a tilted orbit.

    The asteroid's orbit has eccentricity e and its periapsis on the
    planet's (q1 = q2 = 0), and is tilted out of the planet's plane by the
    Poincare pair

        p3 = sqrt(2(G-H)) cos(h)    q3 = -sqrt(2(G-H)) sin(h)

    with the same leading minus sign as q2.  So G - H = (p3^2 + q3^2) / 2,
    the node is h = atan2(-q3, p3), the argument of periapsis g = -h keeps
    g + h = 0, and the inclination is acos(H / G); the orbital plane is
    turned by Rz(h) Rx(i) Rz(-h).  Every grid row is summed on its own
    and the rows are then added.

    Raises:
        OrbitCrossingError: The smallest sampled 3-D distance is below
            DEFAULT_SEPARATION_THRESHOLD.
    """
    G = cfg.G_of(e)
    H = G - 0.5 * (p3 * p3 + q3 * q3)
    h = math.atan2(-q3, p3)
    i = math.acos(H / G)
    ch, sh, ci, si = math.cos(h), math.sin(h), math.cos(i), math.sin(i)
    xp, yp, wi = _ellipse(n, cfg.a, e)
    u = ch * xp + sh * yp  # Rz(-h): periapsis frame to the node frame
    v = ch * yp - sh * xp
    x = ch * u - sh * ci * v
    y = sh * u + ch * ci * v
    z = si * v
    xJ, yJ, wJ = _ellipse(n, 1.0, cfg.e_J)
    rsq = (x[:, None] - xJ) ** 2 + (y[:, None] - yJ) ** 2 + (z * z)[:, None]
    rsq_min = float(rsq.min())
    if rsq_min < DEFAULT_SEPARATION_THRESHOLD ** 2:
        raise OrbitCrossingError(
            f"sampled 3-D separation below {DEFAULT_SEPARATION_THRESHOLD:g} at "
            f"a={cfg.a:g}, e={e:g}, e_J={cfg.e_J:g}",
            separation=math.sqrt(rsq_min),
        )
    rows = wi * np.einsum("ij,j->i", 1.0 / np.sqrt(rsq), wJ)
    return float(rows.sum()) / (n * n)


def spatial_quadratic_oracle(cfg: OrbitConfig, e, quad: QuadratureSpec):
    """FD second derivatives of the tilted-orbit average in (p3, q3) at 0.

    Central differences with Richardson extrapolation over steps h and h/2,
    every evaluation at one frozen node count (chosen by converging the base
    point) so quadrature errors cancel in the differences.

    Returns:
        dict with d2_p3, d2_q3 (match 2*Abar, 2*Cbar) and cross (matches 0).

    Raises:
        OrbitCrossingError: The aligned orbits at e are closer than
            DEFAULT_SEPARATION_THRESHOLD, or a sampled 3-D distance is.
        NonConvergedError: The base point does not converge within the
            node cap.
    """
    _check_separation(cfg, e)
    vals, _, nodes = _doubling(
        lambda n: (_tilted_average(cfg, e, 0.0, 0.0, n),), quad, floors=(1e-12,))
    v0 = float(vals[0])

    def vbar(p3, q3):
        return _tilted_average(cfg, e, p3, q3, nodes)

    h = _H_SCALE * math.sqrt(2.0 * cfg.L)

    def second(axis):
        def d2(step):
            if axis == "p":
                return (vbar(step, 0.0) - 2.0 * v0 + vbar(-step, 0.0)) / step**2
            return (vbar(0.0, step) - 2.0 * v0 + vbar(0.0, -step)) / step**2

        return (4.0 * d2(h / 2.0) - d2(h)) / 3.0

    cross = (vbar(h, h) - vbar(h, -h) - vbar(-h, h) + vbar(-h, -h)) / (4.0 * h * h)
    return {"d2_p3": second("p"), "d2_q3": second("q"), "cross": cross}


def _check_bbar(coeffs, tol):
    worst = max(abs(c.Bbar) for c in coeffs)
    return CheckResult("bbar-vanishes", tol, worst, worst < tol,
                       f"{len(coeffs)} points")


def _check_folding(points, coeffs, tol):
    worst = 0.0
    # The independent reference is converged by its own doubling, absolutely
    # at tol / 10 on the O(1) scale of the coefficients.
    ref_quad = QuadratureSpec(tol=0.1 * tol, max_n=4096)
    for (a, e, eJ), c in zip(points, coeffs):
        ref, _, _ = _doubling(
            lambda n: unfolded_reference(a, e, eJ, 0.0, n),
            ref_quad, floors=(1.0, 1.0, 1.0))
        for prod, indep in zip((c.Rbar, c.Abar, c.Cbar), ref):
            worst = max(worst, abs(prod - indep) / max(abs(indep), 1e-30))
    return CheckResult("quarter-folding", tol, worst, worst < tol,
                       f"{len(points)} points")


def _check_spatial_hessian(points, coeffs, quad, rel_tol, cross_tol, inject):
    worst_rel = 0.0
    worst_cross = 0.0
    for (a, e, eJ), c in zip(points, coeffs):
        abar, cbar = c.Abar, c.Cbar
        if inject == "abar-sign":
            abar = -abar
        fd = spatial_quadratic_oracle(OrbitConfig(a=a, e_J=eJ), e, quad)
        worst_rel = max(worst_rel,
                        abs(fd["d2_p3"] - 2.0 * abar) / abs(2.0 * abar),
                        abs(fd["d2_q3"] - 2.0 * cbar) / abs(2.0 * cbar))
        worst_cross = max(worst_cross, abs(fd["cross"]))
    passed = worst_rel < rel_tol and worst_cross < cross_tol
    return CheckResult("spatial-hessian", rel_tol, worst_rel, passed,
                       f"cross worst={worst_cross:.2e} (tol {cross_tol:.0e}), "
                       f"{len(points)} points")


def _check_mu_scaling(points, coeffs, quad, tol):
    worst = 0.0
    expected = (1.0 - _MU_ALT) ** -0.5
    for (a, e, eJ), c0 in zip(points, coeffs):
        c1 = averaged_coefficients(OrbitConfig(a=a, e_J=eJ, mu=_MU_ALT), e, quad)
        for v0, v1 in ((c0.Abar, c1.Abar), (c0.Cbar, c1.Cbar)):
            worst = max(worst, abs(v1 / v0 - expected) / expected)
    return CheckResult("mu-scaling", tol, worst, worst < tol,
                       f"mu={_MU_ALT}, {len(points)} points")


def _check_mapped_grid(points, quad, tol):
    worst = 0.0
    for (a, e, eJ) in points:
        cfg = OrbitConfig(a=a, e_J=eJ)
        _, coeffs, n = _point_quadrature(cfg, e, quad, 0)
        rbar, a_mean, c_mean, _ = kernels._grid_sums(a, e, eJ, 4 * n, 4 * n,
                                                     0, None)
        G = cfg.G_of(e)
        for prod, quarter in ((coeffs.Rbar, rbar), (coeffs.Abar, -a_mean / G),
                              (coeffs.Cbar, -c_mean / G)):
            worst = max(worst, abs(prod - quarter) / abs(quarter))
    return CheckResult("mapped-grid", tol, worst, worst < tol,
                       f"{len(points)} points")


def linearized_matrix(hessian, Abar, Cbar):
    """4x4 linearization of the averaged system at an equilibrium, per mu.

    State ordering (p2, q2, p3, q3) for the Hamiltonian
    H = -mu (Rbar + Abar p3^2 + Cbar q3^2), divided by mu like the reported
    frequencies; the planar and spatial blocks decouple exactly at the
    equilibrium.  The spectrum of the returned matrix is
    {+-i omega_plane, +-i omega_z}; multiply by mu for physical rates.
    """
    S = np.zeros((4, 4))
    S[:2, :2] = -np.asarray(hessian)
    S[2, 2] = -2.0 * Abar
    S[3, 3] = -2.0 * Cbar
    T = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    return T @ S


def _check_spectrum(points, quad, tol):
    worst = 0.0
    used = 0
    for (a, _e, eJ) in points:
        cell = evaluate_cell(a, eJ, 0.0, quad)
        eq, rec = cell.equilibrium, cell.stability
        if rec is None or not math.isfinite(rec.ratio):
            continue
        used += 1
        abar, cbar = rec.coefficients.Abar, rec.coefficients.Cbar
        om_p, om_z = rec.omega_plane, rec.omega_z
        eigs = np.linalg.eigvals(linearized_matrix(eq.hessian, abar, cbar))
        scale = max(om_p, om_z)
        worst = max(worst, float(np.max(np.abs(eigs.real))) / scale)
        got = np.sort(np.abs(eigs.imag))
        want = np.sort([om_p, om_p, om_z, om_z])
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    passed = worst < tol and used > 0
    return CheckResult("spectrum", tol, worst, passed,
                       f"{used} equilibria")


def run_validation(points, seed, quad, inject):
    """Run the full oracle suite at ``points`` random non-crossing samples.

    ``inject`` names a fault to plant (``"abar-sign"``) or is None.
    Returns (list of CheckResult, all_passed).  ``points`` must be positive.
    """
    if points <= 0:
        raise ValueError("validation needs at least one sample point")
    samples = sample_noncrossing_points(points, seed)
    few = samples[: max(3, points // 4)]
    # One coefficient pass per sample (mu = 0) serves four checks; the
    # checks given ``few`` read the first len(few) of them.
    coeffs = [averaged_coefficients(OrbitConfig(a=a, e_J=eJ), e, quad)
              for (a, e, eJ) in samples]
    results = [
        _check_bbar(coeffs, tol=1e-9),
        _check_folding(few, coeffs, tol=1e-10),
        _check_spatial_hessian(samples, coeffs, quad, rel_tol=1e-6,
                               cross_tol=1e-8, inject=inject),
        _check_mu_scaling(few, coeffs, quad, tol=1e-12),
        _check_spectrum(samples[: max(4, points // 3)], quad, tol=1e-8),
        _check_mapped_grid(sample_coincident_points(max(3, points // 5), seed),
                           quad, tol=1e-10),
    ]
    return results, all(r.passed for r in results)
