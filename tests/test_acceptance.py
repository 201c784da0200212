"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The two 50x50 parameter-plane sweeps and a 25x25 one across the planet
strip between them, where near-coincident cells run on the mapped grid, are
shared module-scoped fixtures; everything downstream (sign margins, Hessian
definiteness, spectra, resonance curves) reads from them.  Run with
``pytest -s`` to watch the per-criterion lines stream.
"""

import math
from collections import Counter

import numpy as np
import pytest

from secular3bp import stability
from secular3bp.averaging import QuadratureSpec, averaged_coefficients
from secular3bp.geometry import OrbitConfig
from secular3bp.stability import point_ratio, trace_resonance
from secular3bp.sweep import run_sweep, sweep_csv_text
from secular3bp.validate import (
    linearized_matrix,
    sample_noncrossing_points,
    spatial_quadratic_oracle,
)

INNER_WINDOW = ((0.05, 0.55, 50), (0.05, 0.85, 50))
OUTER_WINDOW = ((1.8, 4.0, 50), (0.05, 0.85, 50))
STRIP_WINDOW = ((0.56, 1.79, 25), (0.05, 0.85, 25))


def _report(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_quad():
    return QuadratureSpec()


@pytest.fixture(scope="module")
def inner_sweep(default_quad):
    return run_sweep(*INNER_WINDOW, quad=default_quad, jobs=1)


@pytest.fixture(scope="module")
def outer_sweep(default_quad):
    return run_sweep(*OUTER_WINDOW, quad=default_quad, jobs=1)


@pytest.fixture(scope="module")
def strip_sweep(default_quad):
    return run_sweep(*STRIP_WINDOW, quad=default_quad, jobs=1)


def test_bbar_vanishes(default_quad):
    """|Bbar| < 1e-9 at 50 random non-crossing triples, default quadrature."""
    points = sample_noncrossing_points(50, seed=20260809)
    worst = 0.0
    for (a, e, eJ) in points:
        bbar = averaged_coefficients(OrbitConfig(a=a, e_J=eJ), e, default_quad).Bbar
        worst = max(worst, abs(bbar))
    _report("Bbar-vanishes", worst < 1e-9,
            f"worst |Bbar| = {worst:.3e} over {len(points)} triples (tol 1e-9)")


def test_every_cell_found(inner_sweep, outer_sweep, strip_sweep):
    """Every cell of the three sweeps is FOUND.

    The margin, Hessian and spectrum tests read ``found_cells()``; a cell
    with any other status (UNSTABLE, INCONCLUSIVE, a failure) would leave
    them silently, so it fails here.
    """
    statuses = Counter(cell.status for grid in
                       (inner_sweep, outer_sweep, strip_sweep)
                       for cell in grid.cells)
    n_cells = sum(a[2] * e_J[2]
                  for a, e_J in (INNER_WINDOW, OUTER_WINDOW, STRIP_WINDOW))
    ok = statuses == Counter(FOUND=n_cells)
    _report("every-cell-found", ok,
            f"{n_cells} cells, statuses {dict(sorted(statuses.items()))}")


def _sign_margins(cells, name):
    worst = math.inf
    for cell in cells:
        coeffs = cell.stability.coefficients
        value = getattr(coeffs, name)
        err = max(coeffs.err[name],
                  4.0 * np.finfo(float).eps * abs(value))
        worst = min(worst, -value / (3.0 * err))
    return worst


def test_abar_negative_with_margin(inner_sweep, outer_sweep, strip_sweep):
    """Abar < 0 with margin > 3x quadrature error at every FOUND cell."""
    worst = math.inf
    n_cells = 0
    for grid in (inner_sweep, outer_sweep, strip_sweep):
        found = grid.found_cells()
        n_cells += len(found)
        worst = min(worst, _sign_margins(found, "Abar"))
    ok = worst > 1.0 and n_cells > 1000
    _report("Abar-negative", ok,
            f"{n_cells} FOUND cells, min margin factor {worst:.2e} (need > 1)")


def test_cbar_negative_with_margin(inner_sweep, outer_sweep, strip_sweep):
    """Cbar < 0 with margin at every FOUND equilibrium on the sweeps."""
    worst = math.inf
    n_cells = 0
    for grid in (inner_sweep, outer_sweep, strip_sweep):
        found = grid.found_cells()
        n_cells += len(found)
        worst = min(worst, _sign_margins(found, "Cbar"))
    ok = worst > 1.0 and n_cells > 1000
    _report("Cbar-negative", ok,
            f"{n_cells} FOUND cells, min margin factor {worst:.2e} (need > 1)")


def test_quadratic_form_oracle(default_quad):
    """FD Hessian of the 3-D average = diag(2 Abar, 2 Cbar) to 1e-6 rel."""
    points = sample_noncrossing_points(20, seed=424242)
    worst_rel = 0.0
    worst_cross = 0.0
    for (a, e, eJ) in points:
        cfg = OrbitConfig(a=a, e_J=eJ)
        coeffs = averaged_coefficients(cfg, e, default_quad)
        abar, cbar = coeffs.Abar, coeffs.Cbar
        fd = spatial_quadratic_oracle(cfg, e, default_quad)
        worst_rel = max(worst_rel,
                        abs(fd["d2_p3"] - 2 * abar) / abs(2 * abar),
                        abs(fd["d2_q3"] - 2 * cbar) / abs(2 * cbar))
        worst_cross = max(worst_cross, abs(fd["cross"]))
    ok = worst_rel < 1e-6 and worst_cross < 1e-8
    _report("quadratic-form-oracle", ok,
            f"20 points: worst rel {worst_rel:.3e} (tol 1e-6), "
            f"worst cross {worst_cross:.3e} (tol 1e-8)")


def test_planar_hessian_positive_definite(inner_sweep, outer_sweep,
                                          strip_sweep):
    """Planar Hessian positive definite at every stable equilibrium."""
    n_cells = 0
    min_eig = math.inf
    ok = True
    for grid in (inner_sweep, outer_sweep, strip_sweep):
        for cell in grid.found_cells():
            n_cells += 1
            if cell.equilibrium.hessian_definite != "POSITIVE_DEFINITE":
                ok = False
            min_eig = min(min_eig, float(
                np.min(np.linalg.eigvalsh(cell.equilibrium.hessian))))
    ok = ok and min_eig > 0.0
    _report("planar-hessian-definite", ok,
            f"{n_cells} equilibria, smallest eigenvalue {min_eig:.3e}")


def test_small_a_limit(default_quad):
    """Rbar(a=1e-3, e=0.2, e_J=0.3) = 1 +- 1e-5 (outer-orbit average is 1)."""
    c = averaged_coefficients(OrbitConfig(a=1e-3, e_J=0.3), 0.2, default_quad)
    rbar, err = c.Rbar, c.err["Rbar"]
    ok = abs(rbar - 1.0) < 1e-5
    _report("small-a-limit", ok, f"Rbar = {rbar:.10f}, |Rbar - 1| = "
                                 f"{abs(rbar - 1):.3e} (tol 1e-5), err {err:.1e}")


def _sample_found(grid, k):
    found = grid.found_cells()
    stride = max(1, len(found) // k)
    return found[::stride][:k]


def test_linearization_spectrum(inner_sweep, outer_sweep, strip_sweep):
    """4x4 linearization spectrum is {+-i w_plane, +-i w_z} to 1e-8 rel."""
    worst = 0.0
    n_checked = 0
    for grid in (inner_sweep, outer_sweep, strip_sweep):
        for cell in _sample_found(grid, 10):
            st = cell.stability
            if not math.isfinite(st.ratio):
                continue
            n_checked += 1
            M = linearized_matrix(cell.equilibrium.hessian,
                                  st.coefficients.Abar, st.coefficients.Cbar)
            eigs = np.linalg.eigvals(M)
            scale = max(st.omega_plane, st.omega_z)
            worst = max(worst, float(np.max(np.abs(eigs.real))) / scale)
            got = np.sort(np.abs(eigs.imag))
            want = np.sort([st.omega_plane, st.omega_plane,
                            st.omega_z, st.omega_z])
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
    ok = worst < 1e-8 and n_checked >= 15
    _report("linearization-spectrum", ok,
            f"{n_checked} equilibria, worst deviation {worst:.3e} (tol 1e-8)")


def test_resonance_tracing(default_quad, inner_sweep, outer_sweep,
                           monkeypatch):
    """Traced ratio = k points re-evaluate to |ratio - k| < 1e-3; planted
    synthetic field recovered to 1e-4 in parameters."""
    # Planted field: ratio(a, e_J) = a + e_J, curve a + e_J = 1.
    from test_stability import synthetic_grid

    a_vals = np.linspace(0.2, 0.8, 13)
    eJ_vals = np.linspace(0.2, 0.8, 13)
    planted = synthetic_grid(lambda a, e: a + e, a_vals, eJ_vals)
    with monkeypatch.context() as patch:
        patch.setattr(stability, "point_ratio", lambda a, e, mu, quad: a + e)
        pts = trace_resonance(planted, k=1.0)
    planted_ok = len(pts) > 0 and all(abs(p.a + p.e_J - 1.0) <= 1e-4
                                      for p in pts)

    # Real curves.  The main windows may legitimately contain no ratio = k
    # level set; two focused high-eccentricity windows are added where the
    # k = 2 (inner) and k = 1/2 (outer) curves are known to cross.
    quad = default_quad
    focus_inner = run_sweep((0.45, 0.65, 5), (0.84, 0.90, 4), quad=quad)
    focus_outer = run_sweep((1.9, 2.6, 5), (0.88, 0.92, 3), quad=quad)
    curve_points = []
    for grid, k in ((inner_sweep, 2.0), (outer_sweep, 0.5),
                    (focus_inner, 2.0), (focus_outer, 0.5)):
        for p in trace_resonance(grid, k=k):
            curve_points.append((p, k))

    worst = 0.0
    for p, k in curve_points:
        ratio = point_ratio(p.a, p.e_J, 0.0, quad)
        worst = max(worst, abs(ratio - k) if ratio is not None else math.inf)
    real_ok = len(curve_points) >= 2 and worst < 1e-3
    _report("resonance-tracing", planted_ok and real_ok,
            f"planted: {len(pts)} pts to 1e-4; real: {len(curve_points)} pts, "
            f"worst re-evaluated |ratio - k| = {worst:.2e} (tol 1e-3)")


def test_sweep_determinism(default_quad):
    """Repeated 10x10 sweeps are byte-identical across 1, 4, 8 workers."""
    window = ((0.1, 0.5, 10), (0.1, 0.7, 10))
    texts = [
        sweep_csv_text(run_sweep(*window, quad=default_quad, jobs=jobs))
        for jobs in (1, 4, 8)
    ]
    ok = texts[0] == texts[1] == texts[2]
    _report("sweep-determinism", ok,
            f"10x10 sweep, {len(texts[0].splitlines())} lines, "
            "jobs in (1, 4, 8) byte-identical")


def test_strip_sweep_determinism(default_quad, strip_sweep):
    """The planet-strip sweep is byte-identical at 1 and 2 workers."""
    text = sweep_csv_text(strip_sweep)
    ok = text == sweep_csv_text(run_sweep(*STRIP_WINDOW, quad=default_quad,
                                          jobs=2))
    _report("strip-sweep-determinism", ok,
            f"25x25 strip sweep, {len(text.splitlines())} lines, "
            "jobs in (1, 2) byte-identical")
