import dataclasses
import math

import numpy as np
import pytest

from secular3bp import stability
from secular3bp.averaging import QuadratureSpec
from secular3bp.equilibrium import find_equilibrium
from secular3bp.errors import DegenerateError
from secular3bp.geometry import OrbitConfig
from secular3bp.stability import (
    INCONCLUSIVE,
    LINEARLY_STABLE,
    UNSTABLE,
    classify_spatial,
    frequencies,
    sign_verdict,
    trace_resonance,
)
from secular3bp.sweep import CellResult, SweepGrid, evaluate_cell, run_sweep
from secular3bp.validate import linearized_matrix


class TestSignVerdict:
    def test_clear_negative_signs(self):
        assert sign_verdict(-0.1, -0.2, 1e-12, 1e-12) == LINEARLY_STABLE

    def test_error_band_straddling_zero(self):
        # Cbar within error of 0: no certification possible.
        assert sign_verdict(-0.1, -1e-12, 1e-12, 1e-10) == INCONCLUSIVE

    def test_positive_sign(self):
        assert sign_verdict(-0.1, 0.2, 1e-12, 1e-12) == UNSTABLE

    def test_margin_factor(self):
        # |value| must exceed 3x the error.
        assert sign_verdict(-4e-9, -0.1, 1e-9, 1e-12) == LINEARLY_STABLE
        assert sign_verdict(-2e-9, -0.1, 1e-9, 1e-12) == INCONCLUSIVE

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_error_certifies_no_sign(self, bad):
        assert sign_verdict(-0.1, -0.2, bad, bad) == INCONCLUSIVE
        assert sign_verdict(-0.1, -0.2, bad, 1e-12) == INCONCLUSIVE
        assert sign_verdict(-0.1, -0.2, 1e-12, bad) == INCONCLUSIVE
        assert sign_verdict(0.1, -0.2, bad, 1e-12) == INCONCLUSIVE
        # A certified positive coefficient still makes the verdict.
        assert sign_verdict(-0.1, 0.2, bad, 1e-12) == UNSTABLE


class _FakeEq:
    def __init__(self, hessian):
        self.hessian = hessian


class TestFrequencies:
    def test_harmonic_normal_form(self):
        # H = alpha (p^2 + q^2) has frequency 2 alpha; here the Hessian of
        # the generating function is 2 alpha I, so sqrt(det) = 2 alpha.
        alpha = 0.3
        eq = _FakeEq(np.diag([2 * alpha, 2 * alpha]))
        om_p, _, _ = frequencies(eq, -1.0, -1.0)
        assert om_p == pytest.approx(2 * alpha, rel=1e-15)

    def test_equal_coefficients(self):
        c = 0.4
        eq = _FakeEq(np.diag([1.0, 1.0]))
        _, om_z, _ = frequencies(eq, -c, -c)
        assert om_z == pytest.approx(2 * c, rel=1e-15)

    def test_degenerate_product(self):
        eq = _FakeEq(np.diag([1.0, 1.0]))
        with pytest.raises(DegenerateError):
            frequencies(eq, -0.1, 0.2)

    def test_degenerate_hessian(self):
        eq = _FakeEq(np.diag([1.0, -1.0]))
        with pytest.raises(DegenerateError):
            frequencies(eq, -0.1, -0.2)


class TestClassify:
    def test_reference_point(self, quad):
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        eq = find_equilibrium(cfg, quad)
        rec = classify_spatial(cfg, eq, quad)
        assert rec.spatial_verdict == LINEARLY_STABLE
        assert rec.coefficients.Abar < 0.0 and rec.coefficients.Cbar < 0.0
        assert rec.ratio == pytest.approx(rec.omega_z / rec.omega_plane)

    def test_rejects_failed_equilibrium(self, quad):
        cfg = OrbitConfig(a=1.0, e_J=0.3)
        eq = find_equilibrium(cfg, quad)
        with pytest.raises(ValueError):
            classify_spatial(cfg, eq, quad)

    def test_ratio_mu_invariance(self, quad):
        # Both frequencies carry the common factor mu (1-mu)^(-1/2), so the
        # reported (mu-scaled) values shift together and the ratio is fixed.
        base = evaluate_cell(0.4, 0.3, 0.0, quad)
        alt = evaluate_cell(0.4, 0.3, 0.25, quad)
        assert base.stability.ratio == pytest.approx(alt.stability.ratio,
                                                     abs=1e-12)
        factor = (1.0 - 0.25) ** -0.5
        assert alt.stability.omega_z / base.stability.omega_z == pytest.approx(
            factor, rel=1e-9)
        assert alt.stability.omega_plane / base.stability.omega_plane == \
            pytest.approx(factor, rel=1e-9)


    def test_refinement_is_the_only_coefficient_call(self, quad, monkeypatch):
        # The verdict reads the root's coefficients; averaged_coefficients
        # runs only for the tol / 10 refinement of an INCONCLUSIVE one.
        calls = []
        real = stability.averaged_coefficients

        def counting(cfg, e, q):
            calls.append((e, q.tol))
            return real(cfg, e, q)

        monkeypatch.setattr(stability, "averaged_coefficients", counting)
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        eq = find_equilibrium(cfg, quad)
        rec = classify_spatial(cfg, eq, quad)
        assert rec.spatial_verdict == LINEARLY_STABLE
        assert rec.coefficients is eq.coefficients and calls == []
        coeffs = eq.coefficients
        loose = dataclasses.replace(
            coeffs, err={**coeffs.err, "Abar": abs(coeffs.Abar)})
        rec = classify_spatial(
            cfg, dataclasses.replace(eq, coefficients=loose), quad)
        assert calls == [(eq.e_star, quad.tol / 10.0)]
        assert rec.spatial_verdict == LINEARLY_STABLE


class TestLinearizedMatrix:
    def test_spectrum_matches_frequencies(self, quad):
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        eq = find_equilibrium(cfg, quad)
        rec = classify_spatial(cfg, eq, quad)
        abar, cbar = rec.coefficients.Abar, rec.coefficients.Cbar
        om_p, om_z, _ = frequencies(eq, abar, cbar)
        M = linearized_matrix(eq.hessian, abar, cbar)
        eigs = np.linalg.eigvals(M)
        assert np.max(np.abs(eigs.real)) < 1e-8 * max(om_p, om_z)
        got = np.sort(np.abs(eigs.imag))
        want = np.sort([om_p, om_p, om_z, om_z])
        assert np.allclose(got, want, rtol=1e-8)


def synthetic_grid(ratio_fn, a_vals, eJ_vals):
    """SweepGrid whose cells carry a planted ratio field."""

    class _Stab:
        def __init__(self, ratio):
            self.ratio = ratio
            self.coefficients = None
            self.omega_plane = math.nan
            self.omega_z = math.nan
            self.spatial_verdict = LINEARLY_STABLE

    grid = SweepGrid(
        a_min=float(a_vals[0]), a_max=float(a_vals[-1]), n_a=len(a_vals),
        eJ_min=float(eJ_vals[0]), eJ_max=float(eJ_vals[-1]), n_eJ=len(eJ_vals),
        mu=0.0, quad=QuadratureSpec(),
    )
    grid.cells = [
        CellResult(a=float(a), e_J=float(e), status="FOUND",
                   stability=_Stab(ratio_fn(float(a), float(e))))
        for a in a_vals for e in eJ_vals
    ]
    return grid


def curved_field(a, e):
    """exp(a) + e_J^2: it crosses 2 where a = ln(2 - e_J^2), which gives a
    closed-form root along either kind of grid edge."""
    return math.exp(a) + e * e


class TestTraceResonance:
    def test_planted_linear_field(self, monkeypatch):
        a_vals = np.linspace(0.2, 0.8, 13)
        eJ_vals = np.linspace(0.2, 0.8, 13)
        grid = synthetic_grid(lambda a, e: a + e, a_vals, eJ_vals)
        monkeypatch.setattr(stability, "point_ratio",
                            lambda a, e, mu, quad: a + e)
        points = trace_resonance(grid, k=1.0)
        assert len(points) > 0
        for p in points:
            assert abs(p.a + p.e_J - 1.0) <= 1e-4
            assert_float_fields(p)

    def test_curved_field_budget_and_accuracy(self, monkeypatch):
        a_vals = np.linspace(0.2, 0.8, 13)
        eJ_vals = np.linspace(0.2, 0.8, 13)
        grid = synthetic_grid(curved_field, a_vals, eJ_vals)
        calls = []

        def evaluate(a, e, mu, quad):
            calls.append((a, e))
            return curved_field(a, e)

        monkeypatch.setattr(stability, "point_ratio", evaluate)
        points = trace_resonance(grid, k=2.0)
        assert len(points) > 0
        # The sweep already holds the edge ends, so only interior points
        # cost a run; a bisection to 1e-4 would need 10 per point here.
        assert len(calls) <= 4 * len(points)
        a_grid, eJ_grid = set(a_vals.tolist()), set(eJ_vals.tolist())
        for p in points:
            assert_float_fields(p)
            # The reported ratio is the one evaluated at the reported point.
            assert p.ratio == curved_field(p.a, p.e_J)
            on_a_edge = p.e_J in eJ_grid and \
                abs(p.a - math.log(2.0 - p.e_J ** 2)) <= 5e-5
            on_eJ_edge = p.a in a_grid and math.exp(p.a) < 2.0 and \
                abs(p.e_J - math.sqrt(2.0 - math.exp(p.a))) <= 5e-5
            assert on_a_edge or on_eJ_edge

    def test_everywhere_below_k(self, monkeypatch):
        a_vals = np.linspace(0.2, 0.8, 5)
        eJ_vals = np.linspace(0.2, 0.8, 5)
        grid = synthetic_grid(lambda a, e: 1.0 + 0.1 * a, a_vals, eJ_vals)
        monkeypatch.setattr(stability, "point_ratio",
                            lambda a, e, mu, quad: 1.0 + 0.1 * a)
        assert trace_resonance(grid, k=2.0) == []

    def test_failed_midpoint_drops_edge(self, monkeypatch):
        a_vals = np.linspace(0.2, 0.8, 5)
        eJ_vals = np.linspace(0.2, 0.8, 5)
        grid = synthetic_grid(lambda a, e: a + e, a_vals, eJ_vals)
        monkeypatch.setattr(stability, "point_ratio",
                            lambda a, e, mu, quad: None)
        assert trace_resonance(grid, k=1.0) == []

    def test_failure_after_first_interior_call_drops_edge(self, monkeypatch):
        a_vals = np.linspace(0.2, 0.8, 5)
        eJ_vals = np.linspace(0.2, 0.8, 5)
        grid = synthetic_grid(curved_field, a_vals, eJ_vals)
        calls = []

        def evaluate(a, e, mu, quad):
            calls.append((a, e))
            return curved_field(a, e)

        monkeypatch.setattr(stability, "point_ratio", evaluate)
        clean = trace_resonance(grid, k=2.0)
        # The first two runs lie on the first traced edge: they share its
        # fixed coordinate.
        (a0, e0), (a1, e1) = calls[:2]
        assert a0 == a1 or e0 == e1
        assert len(clean) > 1

        n_calls = 0

        def fail_second(a, e, mu, quad):
            nonlocal n_calls
            n_calls += 1
            return None if n_calls == 2 else curved_field(a, e)

        # The first edge succeeds once, then fails: only its point drops.
        monkeypatch.setattr(stability, "point_ratio", fail_second)
        assert trace_resonance(grid, k=2.0) == clean[1:]

    def test_focus_window_points_are_floats(self, quad):
        grid = run_sweep((0.45, 0.65, 5), (0.84, 0.90, 4), quad=quad)
        points = trace_resonance(grid, k=2.0)
        assert len(points) > 0
        for p in points:
            assert_float_fields(p)
            assert abs(p.ratio - 2.0) < 1e-3


def assert_float_fields(point):
    for name in ("a", "e_J", "ratio"):
        assert type(getattr(point, name)) is float, name
