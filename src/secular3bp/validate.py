"""Bundled oracle checks exercised by the ``validate`` CLI command.

Each check pits one production path against an independent evaluation:

* ``bbar-vanishes``     - the full-domain average of the cross coefficient
                          must sit below tolerance (exact value 0).
* ``quarter-folding``   - folded quarter-domain Rbar/Abar/Cbar against a
                          self-contained unfolded full-domain reference
                          implemented here with plain numpy (independent of
                          the production kernels and of the folding).
* ``spatial-hessian``   - finite-difference (p3, q3) Hessian of the direct
                          3-D average against diag(2 Abar, 2 Cbar) with a
                          vanishing cross term.
* ``mu-scaling``        - coefficients scale exactly as (1-mu)^(-1/2).
* ``spectrum``          - the assembled 4x4 linearization at located
                          equilibria has purely imaginary eigenvalues
                          matching (+-i omega_plane, +-i omega_z).

``--inject-fault abar-sign`` flips the sign of Abar inside the
spatial-hessian comparison, proving the harness actually detects
discrepancies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .averaging import (
    QuadratureSpec,
    _doubling,
    averaged_coefficients,
    direct_average_V3d,
)
from .equilibrium import EQUILIBRIUM_STATUSES, find_equilibrium
from .errors import Secular3bpError
from .geometry import (
    OrbitConfig,
    PoincareState,
    aligned_noncrossing_interval,
    aligned_separation,
)
from .stability import classify_spatial, frequencies, linearized_matrix

__all__ = [
    "CheckResult",
    "sample_noncrossing_points",
    "spatial_quadratic_oracle",
    "unfolded_reference",
    "run_validation",
]

DEFAULT_SEED = 20260809

# Sampled regimes: inner (a < 1) and outer (a > 1) semi-major axes and
# the planet eccentricity.
_INNER_A = (0.05, 0.55)
_OUTER_A = (1.8, 4.0)
_EJ_RANGE = (0.05, 0.85)

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


def sample_noncrossing_points(n, seed=DEFAULT_SEED):
    """Deterministic random (a, e, eJ) triples away from orbit crossings.

    Alternates between the inner (a < 1) and outer (a > 1) regimes and
    keeps each eccentricity inside the aligned non-crossing interval with
    a safety margin.
    """
    rng = np.random.default_rng(seed)
    points = []
    use_inner = True
    while len(points) < n:
        lo_a, hi_a = _INNER_A if use_inner else _OUTER_A
        use_inner = not use_inner
        a = float(rng.uniform(lo_a, hi_a))
        eJ = float(rng.uniform(*_EJ_RANGE))
        interval = aligned_noncrossing_interval(a, eJ)
        if interval is None:
            continue
        sep_floor = _ECC_MARGIN_SEP * max(1.0, a)
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


def unfolded_reference(a, e, eJ, mu, n):
    """Full-domain [0, 2pi)^2 averages of the raw R, A, C coefficients.

    Straightforward midpoint rule in plain numpy; intentionally independent
    of the production kernels and of the quarter-domain folding.
    """
    E = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    EJ = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    x = a * (np.cos(E) - e)
    y = a * math.sqrt(1.0 - e * e) * np.sin(E)
    xJ = np.cos(EJ) - eJ
    yJ = math.sqrt(1.0 - eJ * eJ) * np.sin(EJ)
    w = np.outer(1.0 - e * np.cos(E), 1.0 - eJ * np.cos(EJ))
    r1 = np.sqrt((x[:, None] - xJ[None, :]) ** 2 + (y[:, None] - yJ[None, :]) ** 2)
    G = math.sqrt((1.0 - mu) * a * (1.0 - e * e))
    rbar = float(np.mean(w / r1))
    abar = float(np.mean(-0.5 * w * np.outer(y, yJ) / (r1**3 * G)))
    cbar = float(np.mean(-0.5 * w * np.outer(x, xJ) / (r1**3 * G)))
    return rbar, abar, cbar


def spatial_quadratic_oracle(cfg: OrbitConfig, e, quad: QuadratureSpec):
    """FD second derivatives of the direct 3-D average in (p3, q3) at 0.

    Central differences with Richardson extrapolation over steps h and h/2,
    every evaluation at one frozen node count (chosen by converging the base
    point) so quadrature errors cancel in the differences.

    Returns:
        dict with d2_p3, d2_q3 (match 2*Abar, 2*Cbar) and cross (matches 0).

    Raises:
        NonConvergedError: The base point does not converge within the
            node cap.
    """
    L = cfg.L
    p2s = math.sqrt(max(0.0, 2.0 * (L - cfg.G_of(e))))

    def state(p3, q3):
        return PoincareState(p1=L, p2=p2s, p3=p3, q1=0.0, q2=0.0, q3=q3)

    vals, _, nodes = _doubling(
        lambda n: (direct_average_V3d(cfg, state(0.0, 0.0), n),),
        quad, floors=(1e-12,),
    )
    v0 = float(vals[0])

    def vbar(p3, q3):
        return direct_average_V3d(cfg, state(p3, q3), nodes)

    h = _H_SCALE * math.sqrt(2.0 * L)

    def second(axis):
        def d2(step):
            if axis == "p":
                return (vbar(step, 0.0) - 2.0 * v0 + vbar(-step, 0.0)) / step**2
            return (vbar(0.0, step) - 2.0 * v0 + vbar(0.0, -step)) / step**2

        return (4.0 * d2(h / 2.0) - d2(h)) / 3.0

    cross = (vbar(h, h) - vbar(h, -h) - vbar(-h, h) + vbar(-h, -h)) / (4.0 * h * h)
    return {"d2_p3": second("p"), "d2_q3": second("q"), "cross": cross,
            "nodes": nodes, "base": v0}


def _check_bbar(points, quad, tol):
    worst = 0.0
    for (a, e, eJ) in points:
        bbar = averaged_coefficients(OrbitConfig(a=a, e_J=eJ), e, quad).Bbar
        worst = max(worst, abs(bbar))
    return CheckResult("bbar-vanishes", tol, worst, worst < tol,
                       f"{len(points)} points")


def _check_folding(points, quad, tol):
    worst = 0.0
    # The independent reference is converged by its own doubling, absolutely
    # at tol / 10 on the O(1) scale of the coefficients.
    ref_quad = QuadratureSpec(tol=0.1 * tol, max_n=4096)
    for (a, e, eJ) in points:
        cfg = OrbitConfig(a=a, e_J=eJ)
        coeffs = averaged_coefficients(cfg, e, quad)
        ref, _, _ = _doubling(
            lambda n: unfolded_reference(a, e, eJ, cfg.mu, n),
            ref_quad, floors=(1.0, 1.0, 1.0))
        for prod, indep in zip((coeffs.Rbar, coeffs.Abar, coeffs.Cbar), ref):
            worst = max(worst, abs(prod - indep) / max(abs(indep), 1e-30))
    return CheckResult("quarter-folding", tol, worst, worst < tol,
                       f"{len(points)} points")


def _check_spatial_hessian(points, quad, rel_tol, cross_tol, inject):
    worst_rel = 0.0
    worst_cross = 0.0
    for (a, e, eJ) in points:
        cfg = OrbitConfig(a=a, e_J=eJ)
        coeffs = averaged_coefficients(cfg, e, quad)
        abar, cbar = coeffs.Abar, coeffs.Cbar
        if inject == "abar-sign":
            abar = -abar
        fd = spatial_quadratic_oracle(cfg, e, quad)
        worst_rel = max(worst_rel,
                        abs(fd["d2_p3"] - 2.0 * abar) / abs(2.0 * abar),
                        abs(fd["d2_q3"] - 2.0 * cbar) / abs(2.0 * cbar))
        worst_cross = max(worst_cross, abs(fd["cross"]))
    passed = worst_rel < rel_tol and worst_cross < cross_tol
    return CheckResult("spatial-hessian", rel_tol, worst_rel, passed,
                       f"cross worst={worst_cross:.2e} (tol {cross_tol:.0e}), "
                       f"{len(points)} points")


def _check_mu_scaling(points, quad, tol):
    worst = 0.0
    expected = (1.0 - _MU_ALT) ** -0.5
    for (a, e, eJ) in points:
        c0 = averaged_coefficients(OrbitConfig(a=a, e_J=eJ, mu=0.0), e, quad)
        c1 = averaged_coefficients(OrbitConfig(a=a, e_J=eJ, mu=_MU_ALT), e, quad)
        for v0, v1 in ((c0.Abar, c1.Abar), (c0.Cbar, c1.Cbar)):
            worst = max(worst, abs(v1 / v0 - expected) / expected)
    return CheckResult("mu-scaling", tol, worst, worst < tol,
                       f"mu={_MU_ALT}, {len(points)} points")


def _check_spectrum(points, quad, tol):
    worst = 0.0
    used = 0
    for (a, _e, eJ) in points:
        cfg = OrbitConfig(a=a, e_J=eJ)
        try:
            eq = find_equilibrium(cfg, quad)
        except Secular3bpError:
            continue
        if eq.status not in EQUILIBRIUM_STATUSES:
            continue
        rec = classify_spatial(cfg, eq, quad)
        if not math.isfinite(rec.ratio):
            continue
        used += 1
        abar, cbar = rec.coefficients.Abar, rec.coefficients.Cbar
        om_p, om_z, _ = frequencies(eq, abar, cbar)
        eigs = np.linalg.eigvals(linearized_matrix(eq.hessian, abar, cbar))
        scale = max(om_p, om_z)
        worst = max(worst, float(np.max(np.abs(eigs.real))) / scale)
        got = np.sort(np.abs(eigs.imag))
        want = np.sort([om_p, om_p, om_z, om_z])
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    passed = worst < tol and used > 0
    return CheckResult("spectrum", tol, worst, passed,
                       f"{used} equilibria")


def run_validation(points=20, seed=DEFAULT_SEED, quad=None, inject=None):
    """Run the full oracle suite at ``points`` random non-crossing samples.

    Returns (list of CheckResult, all_passed).  ``points`` must be positive.
    """
    if points <= 0:
        raise ValueError("validation needs at least one sample point")
    if quad is None:
        quad = QuadratureSpec()
    samples = sample_noncrossing_points(points, seed=seed)
    few = samples[: max(3, points // 4)]
    results = [
        _check_bbar(samples, quad, tol=1e-9),
        _check_folding(few, quad, tol=1e-10),
        _check_spatial_hessian(samples, quad, rel_tol=1e-6, cross_tol=1e-8,
                               inject=inject),
        _check_mu_scaling(few, quad, tol=1e-12),
        _check_spectrum(samples[: max(4, points // 3)], quad, tol=1e-8),
    ]
    return results, all(r.passed for r in results)
