import math
import pickle

import numpy as np
import pytest
from scipy.special import ellipk

from oracles import mean_anomaly_rbar, rbar_fine
from secular3bp import kernels, validate
from secular3bp.averaging import (
    N_START,
    AveragedCoefficients,
    QuadratureSpec,
    averaged_coefficients,
    direct_average_V3d,
)
from secular3bp.equilibrium import planar_hessian
from secular3bp.errors import NonConvergedError, OrbitCrossingError
from secular3bp.geometry import OrbitConfig, PoincareState, aligned_separation
from secular3bp.validate import (
    sample_noncrossing_points,
    spatial_quadratic_oracle,
    unfolded_reference,
)


def brute_force_rbar(a, e, eJ, n=2048, g=0.0):
    """Full-domain midpoint-rule reference, plain numpy, chunked."""
    E = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    EJ = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    xp = a * (np.cos(E) - e)
    yp = a * math.sqrt(1.0 - e * e) * np.sin(E)
    x = math.cos(g) * xp - math.sin(g) * yp
    y = math.sin(g) * xp + math.cos(g) * yp
    xJ = np.cos(EJ) - eJ
    yJ = math.sqrt(1.0 - eJ * eJ) * np.sin(EJ)
    wJ = 1.0 - eJ * np.cos(EJ)
    total = 0.0
    step = 256
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        w = np.outer(1.0 - e * np.cos(E[lo:hi]), wJ)
        r1 = np.sqrt((x[lo:hi, None] - xJ[None, :]) ** 2
                     + (y[lo:hi, None] - yJ[None, :]) ** 2)
        total += float(np.sum(w / r1))
    return total / (n * n)


def averaged_rbar(cfg, e, quad):
    """(Rbar, err) at g = 0 from the pipeline's coefficient quadrature."""
    c = averaged_coefficients(cfg, e, quad)
    return c.Rbar, c.err["Rbar"]


class TestAveragedR:
    def test_small_a_limit(self, quad):
        # The outer average of 1/r_J over the planet's mean anomaly is
        # exactly 1/a_J = 1; the a^2 correction is ~3e-7 at a = 1e-3.
        cfg = OrbitConfig(a=1e-3, e_J=0.3)
        rbar, err = averaged_rbar(cfg, 0.2, quad)
        assert rbar == pytest.approx(1.0, abs=1e-5)
        assert err < 1e-9

    def test_brute_force_and_elliptic_oracle(self, quad):
        # Concentric circles: Rbar has the closed form
        # (2 / pi (1+a)) K(4a/(1+a)^2) with K the complete elliptic
        # integral of the first kind (parameter convention).
        a = 0.1
        cfg = OrbitConfig(a=a, e_J=0.0)
        rbar, _ = averaged_rbar(cfg, 0.0, quad)
        oracle = brute_force_rbar(a, 0.0, 0.0, n=2048)
        closed = 2.0 / (math.pi * (1.0 + a)) * ellipk(4.0 * a / (1.0 + a) ** 2)
        assert rbar == pytest.approx(oracle, abs=1e-12)
        assert rbar == pytest.approx(closed, abs=1e-10)

    def test_brute_force_eccentric(self, quad):
        cfg = OrbitConfig(a=0.35, e_J=0.4)
        rbar, _ = averaged_rbar(cfg, 0.22, quad)
        assert rbar == pytest.approx(brute_force_rbar(0.35, 0.22, 0.4), rel=1e-11)
        # Uniform mean anomalies, no Jacobian weight: checks the weight.
        assert rbar == pytest.approx(mean_anomaly_rbar(0.35, 0.22, 0.4), rel=1e-11)

    def test_circular_planet_g_symmetry(self, quad):
        # The rotated full-domain kernel at g != 0 against the folded
        # quarter-domain quadrature at g = 0.
        cfg = OrbitConfig(a=0.3, e_J=0.0)
        base, _ = averaged_rbar(cfg, 0.25, quad)
        for g in (0.7, math.pi / 2.0, 2.5):
            assert rbar_fine(cfg, 0.25, g) == pytest.approx(base, rel=1e-9)

    def test_general_g_against_brute_force(self):
        cfg = OrbitConfig(a=0.3, e_J=0.4)
        val = rbar_fine(cfg, 0.2, 1.1)
        assert val == pytest.approx(brute_force_rbar(0.3, 0.2, 0.4, g=1.1),
                                    rel=1e-11)
        assert val == pytest.approx(mean_anomaly_rbar(0.3, 0.2, 0.4, g=1.1),
                                    rel=1e-11)

    def test_crossing_refused_aligned(self, quad):
        with pytest.raises(OrbitCrossingError):
            averaged_rbar(OrbitConfig(a=1.0, e_J=0.3), 0.3, quad)

    def test_near_crossing_not_converged(self):
        # Separation ~4e-3: above the crossing threshold but too close for
        # geometric convergence within a reduced node cap.
        quad = QuadratureSpec(max_n=1024)
        cfg = OrbitConfig(a=0.72, e_J=0.3)
        e = 0.80  # apoapsis gap = 1.3 - 0.72 * 1.80 = 0.004
        with pytest.raises(NonConvergedError):
            averaged_rbar(cfg, e, quad)


class TestAveragedAC:
    def test_folding_equivalence(self, quad):
        for (a, e, eJ) in [(0.5, 0.1, 0.2), (0.25, 0.35, 0.55), (2.2, 0.25, 0.4)]:
            cfg = OrbitConfig(a=a, e_J=eJ)
            c = averaged_coefficients(cfg, e, quad)
            ref_r, ref_a, ref_c = unfolded_reference(a, e, eJ, 0.0, 1024)
            assert c.Abar == pytest.approx(ref_a, rel=1e-10)
            assert c.Cbar == pytest.approx(ref_c, rel=1e-10)
            assert c.Rbar == pytest.approx(ref_r, rel=1e-10)

    def test_unconverged_folding_reference_raises(self, monkeypatch, quad):
        # A reference whose doubling levels never agree must raise at the
        # node cap instead of standing in for a converged one.
        def drifting(a, e, eJ, mu, n):
            return (1.0 / n, 0.0, 0.0)

        monkeypatch.setattr(validate, "unfolded_reference", drifting)
        with pytest.raises(NonConvergedError):
            validate._check_folding([(0.5, 0.1, 0.2)], quad, tol=1e-10)

    def test_abar_negative(self, quad):
        for (a, e, eJ) in [(0.1, 0.05, 0.1), (0.5, 0.3, 0.4), (3.0, 0.2, 0.6)]:
            c = averaged_coefficients(OrbitConfig(a=a, e_J=eJ), e, quad)
            assert c.Abar < 0.0
            assert c.err["Abar"] >= 0.0

    def test_mu_scaling(self, quad):
        # G = sqrt((1-mu) a (1-e^2)) is the only mu dependence.
        a, e, eJ = 0.5, 0.1, 0.2
        c0 = averaged_coefficients(OrbitConfig(a=a, e_J=eJ, mu=0.0), e, quad)
        c1 = averaged_coefficients(OrbitConfig(a=a, e_J=eJ, mu=0.5), e, quad)
        factor = 1.0 / math.sqrt(1.0 - 0.5)
        assert c1.Abar / c0.Abar == pytest.approx(factor, rel=1e-12)
        assert c1.Cbar / c0.Cbar == pytest.approx(factor, rel=1e-12)


class TestAveragedB:
    def test_doubly_circular(self, quad):
        cfg = OrbitConfig(a=0.3, e_J=0.0)
        bbar = averaged_coefficients(cfg, 0.0, quad).Bbar
        assert abs(bbar) < 1e-12

    def test_generic_points(self, quad):
        for (a, e, eJ) in [(2.5, 0.4, 0.6), (0.4, 0.3, 0.5), (0.15, 0.6, 0.2)]:
            c = averaged_coefficients(OrbitConfig(a=a, e_J=eJ), e, quad)
            assert abs(c.Bbar) < 1e-10
            assert c.err["Bbar"] < 1e-10

    def test_coefficients_bundle(self, quad):
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        coeffs = averaged_coefficients(cfg, 0.17, quad)
        assert isinstance(coeffs, AveragedCoefficients)
        assert coeffs.Abar < 0.0
        assert abs(coeffs.Bbar) < 1e-10
        assert set(coeffs.err) == {"Rbar", "Abar", "Bbar", "Cbar"}


class TestDoublingControl:
    def test_reported_error_is_conservative(self, quad):
        cfg = OrbitConfig(a=0.5, e_J=0.2)
        rbar, err = averaged_rbar(cfg, 0.1, quad)
        fine = brute_force_rbar(0.5, 0.1, 0.2, n=4096)
        assert abs(rbar - fine) <= max(err, 1e-12) + 1e-12

    def test_last_error_is_level_change(self):
        # The cap stops the doubling at its second level: last_error is the
        # largest change between the first two levels, not a level's value.
        a, eJ, e = 0.9, 0.3, 0.25
        cfg = OrbitConfig(a=a, e_J=eJ)
        with pytest.raises(NonConvergedError) as info:
            averaged_coefficients(cfg, e, QuadratureSpec(max_n=2 * N_START))
        lo, hi = (np.array(kernels.quarter_sums(a, e, eJ, n, n)[:3]
                           + (kernels.bbar_mean(a, e, eJ, n, n),))
                  for n in (N_START, 2 * N_START))
        assert info.value.last_error == float(np.max(np.abs(hi - lo)))
        assert f"{info.value.last_error:.3e}" in str(info.value)
        assert info.value.nodes == 2 * N_START
        # A cap of N_START allows no doubling: there is no change to report.
        with pytest.raises(NonConvergedError) as info:
            averaged_coefficients(cfg, e, QuadratureSpec(max_n=N_START))
        assert math.isnan(info.value.last_error)
        assert info.value.nodes == N_START

    # Sampled triples plus test_kernels' near-planet triple (aligned
    # separation about 5e-3).
    @pytest.mark.parametrize(
        "a, e, eJ", sample_noncrossing_points(24, seed=20261018)
        + [(0.7, 0.707, 0.2)])
    def test_errors_bound_fine_grid(self, a, e, eJ, quad):
        # Each reported error, the change between the last two levels,
        # bounds the distance to a 2048-node grid, rounding aside.
        cfg = OrbitConfig(a=a, e_J=eJ)
        c = averaged_coefficients(cfg, e, quad)
        rbar, a_mean, c_mean, _ = kernels.quarter_sums(a, e, eJ, 2048, 2048)
        G = cfg.G_of(e)
        eps = np.finfo(float).eps
        for name, fine in [("Rbar", rbar), ("Abar", -a_mean / G),
                           ("Cbar", -c_mean / G)]:
            value = getattr(c, name)
            assert abs(value - fine) <= 3.0 * c.err[name] + 4.0 * eps * abs(value)

    def test_quadrature_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(max_n=N_START // 2)
        with pytest.raises(ValueError):
            QuadratureSpec(tol=0.0)
        # An infinite tolerance would accept the first level comparison.
        for tol in (math.inf, math.nan):
            with pytest.raises(ValueError):
                QuadratureSpec(tol=tol)


class TestSeparationGuard:
    def test_threshold_refusal(self, quad):
        # Both single-point entries refuse a configuration whose apoapsis
        # gap (~4e-4) is below 1e-3, before any quadrature.
        cfg = OrbitConfig(a=0.72, e_J=0.3)
        averaged_coefficients(cfg, 0.5, quad)  # comfortably separated
        for entry in (averaged_coefficients, planar_hessian):
            with pytest.raises(OrbitCrossingError) as info:
                entry(cfg, 0.805, quad)
            assert info.value.separation == aligned_separation(0.72, 0.805, 0.3)
            assert str(info.value) == (
                "orbits closer than 0.001 at a=0.72, e=0.805, e_J=0.3 "
                f"(separation {info.value.separation:.3e})")
            copy = pickle.loads(pickle.dumps(info.value))
            assert (str(copy), copy.separation) == (str(info.value),
                                                    info.value.separation)


class TestDirectAverage3D:
    def test_base_point_equals_rbar(self, quad):
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        e = 0.17
        L = cfg.L
        p2 = math.sqrt(2.0 * (L - cfg.G_of(e)))
        state = PoincareState(p1=L, p2=p2, p3=0.0, q1=0.0, q2=0.0, q3=0.0)
        rbar, _ = averaged_rbar(cfg, e, quad)
        assert direct_average_V3d(cfg, state, 512) == pytest.approx(rbar, rel=1e-10)

    def test_fd_hessian_matches_coefficients(self, quad):
        # Second derivatives in (p3, q3) of the 3-D average reproduce
        # (2 Abar, 2 Cbar); the cross term vanishes by symmetry.
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        e = 0.17
        c = averaged_coefficients(cfg, e, quad)
        fd = spatial_quadratic_oracle(cfg, e, quad)
        assert fd["d2_p3"] == pytest.approx(2.0 * c.Abar, rel=1e-6)
        assert fd["d2_q3"] == pytest.approx(2.0 * c.Cbar, rel=1e-6)
        assert abs(fd["cross"]) < 1e-8

    def test_oracle_refuses_unconverged_base(self):
        # The node cap allows no doubling, so the base point cannot converge.
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        capped = QuadratureSpec(max_n=N_START)
        with pytest.raises(NonConvergedError):
            spatial_quadratic_oracle(cfg, 0.17, capped)

    def test_inconsistent_p1_rejected(self):
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        state = PoincareState(p1=1.0, p2=0.1, p3=0.0, q1=0.0, q2=0.0, q3=0.0)
        with pytest.raises(ValueError):
            direct_average_V3d(cfg, state, 64)
