import math
import pickle
import warnings

import numpy as np
import pytest
from scipy.special import ellipk

from oracles import mean_anomaly_rbar, rbar_fine, rx, rz, solve_kepler
from secular3bp import kernels, validate
from secular3bp.averaging import (
    _FLOORS,
    _SCALE_FLOOR,
    N_START,
    AveragedCoefficients,
    QuadratureSpec,
    _doubling,
    _point_quadrature,
    averaged_coefficients,
)
from secular3bp.equilibrium import _SAFE_SEPARATION, planar_hessian
from secular3bp.errors import NonConvergedError, OrbitCrossingError
from secular3bp.geometry import (
    COINCIDENT_GAP,
    OrbitConfig,
    aligned_noncrossing_interval,
    aligned_separation,
    near_coincident,
)
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
            validate._check_folding(
                [(0.5, 0.1, 0.2)],
                [averaged_coefficients(OrbitConfig(a=0.5, e_J=0.2), 0.1, quad)],
                tol=1e-10)

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


def synthetic_levels(changes, start=1.0):
    """eval_at for _doubling whose level-to-level changes are ``changes``.

    ``changes`` gives, level by level above N_START, the change of each
    component; the level values are running sums from ``start``.  Returns
    the eval_at function and the dict (n -> values) it reads.
    """
    values = {N_START: np.atleast_1d(np.asarray(start, dtype=float))}
    n = N_START
    for change in changes:
        values[2 * n] = values[n] + np.asarray(change, dtype=float)
        n *= 2
    return (lambda n: tuple(values[n])), values


def first_plain_level(values, tol):
    """The first n at which two levels agree to tol (the un-extrapolated test)."""
    n = 2 * N_START
    while not np.all(np.abs(values[n] - values[n // 2])
                     <= tol * np.abs(values[n])):
        n *= 2
    return n


def accepted_level(monkeypatch, run):
    """Run ``run()`` and return the node count of its accepted level.

    Both the root and the coefficient doublings evaluate the Bbar mean
    once per level, so the last such call is at the accepted level.
    """
    seen = []
    kernel = kernels.bbar_mean

    def wrapped(a, e, eJ, n1, n2):
        seen.append(n1)
        return kernel(a, e, eJ, n1, n2)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "bbar_mean", wrapped)
        run()
    return seen[-1]


def level_values(a, e, eJ, n, order):
    """Doubling components at one level: the kernel sums but min_factor, and
    the Bbar mean."""
    sums = kernels.quarter_sums(a, e, eJ, n, n, order=order)
    return np.array((*sums[:-1], kernels.bbar_mean(a, e, eJ, n, n)))


def near_end_points(n, seed, coincident=False):
    """(a, e, eJ) triples 1e-3 to 1e-1 inside an end of the non-crossing
    interval, at an aligned separation the equilibrium scan admits.

    With ``coincident``, (a, eJ) is near-coincident instead, |a - 1| below
    COINCIDENT_GAP, so the kernels run on the mapped grid.
    """
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        if coincident:
            a = float(1.0 + rng.uniform(-1.0, 1.0) * COINCIDENT_GAP)
        else:
            a = float(rng.uniform(0.1, 0.95) if len(points) % 2
                      else rng.uniform(1.05, 3.5))
        eJ = float(rng.uniform(0.0, 0.9))
        interval = aligned_noncrossing_interval(a, eJ)
        if interval is None:
            continue
        step = 10.0 ** rng.uniform(-3.0, -1.0)
        e = interval[0] + step if rng.uniform() < 0.5 else interval[1] - step
        if (0.0 < e < 0.95 and aligned_separation(a, e, eJ)
                >= _SAFE_SEPARATION * max(1.0, a)
                and not (coincident and near_coincident(a, eJ) is None)):
            points.append((a, e, eJ))
    return points


class TestDoublingControl:
    def test_fast_decay_accepted_one_level_early(self):
        # Changes shrink tenfold: the extrapolated remaining error c / 9
        # clears tol at the 1e-7 change, one level before the change itself
        # does, and the reported error is that estimate.
        quad = QuadratureSpec(tol=2e-8)
        eval_at, values = synthetic_levels([1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
        vals, errs, n = _doubling(eval_at, quad, floors=(_SCALE_FLOOR,))
        assert n == 256 and first_plain_level(values, quad.tol) == 512
        assert vals[0] == values[256][0]
        c = abs(values[256][0] - values[128][0])
        r = c / abs(values[128][0] - values[64][0])
        assert errs[0] == c * (r / (1.0 - r))
        assert errs[0] == pytest.approx(c / 9.0, rel=1e-6)

    def test_reported_error_floor_is_rounding(self):
        # A change of 1e-12 after 1e-3 extrapolates to about 1e-21, below
        # the rounding of the value: the reported error is 4 eps |v|.
        quad = QuadratureSpec(tol=1e-10)
        eval_at, _ = synthetic_levels([1e-3, 1e-12])
        vals, errs, n = _doubling(eval_at, quad, floors=(_SCALE_FLOOR,))
        assert n == 128
        assert errs[0] == 4.0 * np.finfo(float).eps * abs(vals[0])

    @pytest.mark.parametrize("factor", [0.5, 0.8])
    def test_slow_decay_is_the_plain_test(self, factor):
        # A ratio of 1/2 or more gives an estimate equal to the change:
        # the level is the first whose change clears tol.
        quad = QuadratureSpec(tol=1e-8, max_n=1 << 40)
        eval_at, values = synthetic_levels([1e-6 * factor ** k for k in range(40)])
        _, errs, n = _doubling(eval_at, quad, floors=(_SCALE_FLOOR,))
        assert n == first_plain_level(values, quad.tol)
        assert errs[0] == abs(values[n][0] - values[n // 2][0])

    def test_change_after_exact_agreement_is_the_plain_test(self):
        # c_prev = 0 < c carries no rate: the estimate is c itself, so the
        # first component's 1.5e-8 change after an exact agreement holds
        # the doubling at n = 256 although the second has converged.
        quad = QuadratureSpec(tol=1e-8)
        eval_at, _ = synthetic_levels(
            [(1e-4, 1e-3), (0.0, 5e-4), (1.5e-8, 1e-12), (1e-9, 0.0),
             (0.0, 0.0)], start=(1.0, 1.0))
        _, _, n = _doubling(eval_at, quad, floors=(_SCALE_FLOOR, _SCALE_FLOOR))
        assert n == 512

    def test_equal_levels_raise_no_warning(self):
        # A component that never changes (c = c_prev = 0, here also v = 0)
        # beside one that converges: no 0/0 on the way.
        quad = QuadratureSpec(tol=1e-10)
        eval_at, values = synthetic_levels(
            [(0.0, 1e-4 * 0.1 ** k) for k in range(8)], start=(0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, errs, n = _doubling(eval_at, quad,
                                      floors=(_SCALE_FLOOR, _SCALE_FLOOR))
        assert n > 2 * N_START and vals[0] == 0.0 and errs[0] == 0.0

    def test_cap_carries_last_change(self):
        # Changes that never shrink: at the cap the error is the largest
        # component of the last change.
        quad = QuadratureSpec(tol=1e-10, max_n=256)
        eval_at, values = synthetic_levels(
            [(1e-3, 2e-3), (3e-3, 1e-3), (1e-3, 4e-3)], start=(1.0, 1.0))
        with pytest.raises(NonConvergedError) as info:
            _doubling(eval_at, quad, floors=(_SCALE_FLOOR, _SCALE_FLOOR))
        assert info.value.last_error == float(
            np.max(np.abs(values[256] - values[128])))
        assert info.value.nodes == 256

    def test_unconverged_r_gg_keeps_root_doubling(self, quad, monkeypatch):
        # R_gg, planted with an alternating 1e-6 offset up to n = 256, holds
        # the root's doubling until two clean levels agree; its floor of 1
        # leaves it no way out through the other components.
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        e = 0.22
        _, _, clean_n = _point_quadrature(cfg, e, quad, 2)
        kernel = kernels.quarter_sums

        def planted(a, e, eJ, n1, n2, order=0):
            out = kernel(a, e, eJ, n1, n2, order=order)
            if order == 2 and n1 <= 256:
                offset = 1e-6 if n1.bit_length() % 2 else -1e-6
                out = out[:3] + (out[3] + offset,) + out[4:]
            return out

        monkeypatch.setattr(kernels, "quarter_sums", planted)
        (_, _, planted_gg), _, n = _point_quadrature(cfg, e, quad, 2)
        assert clean_n <= 128 and n == 1024
        assert planted_gg == kernel(cfg.a, e, cfg.e_J, n, n, order=2)[3]

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
        # Each reported error, the extrapolated error its level was accepted
        # on, bounds the distance to a 2048-node grid, rounding aside.
        cfg = OrbitConfig(a=a, e_J=eJ)
        c = averaged_coefficients(cfg, e, quad)
        rbar, a_mean, c_mean, _ = kernels.quarter_sums(a, e, eJ, 2048, 2048)
        G = cfg.G_of(e)
        eps = np.finfo(float).eps
        for name, fine in [("Rbar", rbar), ("Abar", -a_mean / G),
                           ("Cbar", -c_mean / G)]:
            value = getattr(c, name)
            assert abs(value - fine) <= 3.0 * c.err[name] + 4.0 * eps * abs(value)

    def test_accepted_levels_are_honest(self, quad, monkeypatch):
        # 260 seeded triples, 160 of them 1e-3 to 1e-1 inside an end of the
        # non-crossing interval, 60 of those on near-coincident cells (the
        # mapped grid); 130 run the root doubling and 130 the coefficient
        # doubling.  Every accepted component lies within
        # tol * max(|v|, floor) of the same kernel at four times the nodes,
        # and Rbar, Abar and Cbar within three times their reported error
        # (the margin of the sign verdict).
        root, coeff = (
            sample_noncrossing_points(50, seed=seed)
            + near_end_points(50, seed=seed)
            + near_end_points(30, seed=seed, coincident=True)
            for seed in (20261019, 20261020))
        worst = worst_err = 0.0
        for points, order, floors, run in (
                (root, 2, _FLOORS[2],
                 lambda *args: _point_quadrature(*args, 2)[1]),
                (coeff, 0, _FLOORS[0], averaged_coefficients)):
            for a, e, eJ in points:
                cfg = OrbitConfig(a=a, e_J=eJ)
                out = []
                n = accepted_level(monkeypatch,
                                   lambda: out.append(run(cfg, e, quad)))
                got = level_values(a, e, eJ, n, order)
                fine = level_values(a, e, eJ, 4 * n, order)
                ratio = np.abs(got - fine) / (
                    quad.tol * np.maximum(np.abs(got), floors))
                worst = max(worst, float(ratio.max()))
                assert np.all(ratio <= 1.0), (a, e, eJ, n, ratio)
                # (Rbar, a_mean, c_mean) sit just before the Bbar mean.
                G, err = cfg.G_of(e), out[0].err
                reported = np.array((err["Rbar"], err["Abar"] * G,
                                     err["Cbar"] * G))
                err_ratio = np.abs(got - fine)[[0, -3, -2]] / reported
                worst_err = max(worst_err, float(err_ratio.max()))
                assert np.all(err_ratio <= 3.0), (a, e, eJ, n, err_ratio)
        print(f"worst |v(n) - v(4n)| / (tol max(|v|, floor)) = {worst:.3g}, "
              f"/ reported error = {worst_err:.3g}")

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


def tilted_mean_anomaly_vbar(cfg, e, p3, q3, n):
    """Mean of 1/|r - rJ| over n x n mean anomalies, orbit tilted by (p3, q3).

    Positions come from Kepler's equation, so no Jacobian weight enters,
    and the orbital plane is turned by the matrix product Rz(h) Rx(i) Rz(-h)
    with p3 = sqrt(2(G-H)) cos h, q3 = -sqrt(2(G-H)) sin h, H = G cos i.
    """
    G = cfg.G_of(e)
    h = math.atan2(-q3, p3)
    i = math.acos(1.0 - 0.5 * (p3**2 + q3**2) / G)
    l = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    E = solve_kepler(l, e)
    EJ = solve_kepler(l, cfg.e_J)
    plane = np.stack([cfg.a * (np.cos(E) - e),
                      cfg.a * math.sqrt(1.0 - e * e) * np.sin(E),
                      np.zeros(n)])
    x, y, z = rz(h) @ rx(i) @ rz(-h) @ plane
    xJ = np.cos(EJ) - cfg.e_J
    yJ = math.sqrt(1.0 - cfg.e_J**2) * np.sin(EJ)
    r = np.sqrt((x[:, None] - xJ) ** 2 + (y[:, None] - yJ) ** 2 + (z**2)[:, None])
    return float(np.mean(1.0 / r))


class TestDirectAverage3D:
    def test_base_point_equals_rbar(self, quad):
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        e = 0.17
        rbar, _ = averaged_rbar(cfg, e, quad)
        assert validate._tilted_average(cfg, e, 0.0, 0.0, 512) == pytest.approx(
            rbar, rel=1e-10)

    @pytest.mark.parametrize("p3, q3", [(0.05, -0.03), (0.0, 0.08), (0.1, 0.0)])
    def test_matches_kepler_rotation_reference(self, p3, q3):
        # Tilted states off both axes, on the q3 axis and on the p3 axis.
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        got = validate._tilted_average(cfg, 0.17, p3, q3, 256)
        want = tilted_mean_anomaly_vbar(cfg, 0.17, p3, q3, 256)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_near_crossing_refused(self, quad):
        # The aligned gap is about 4e-4, below the 1e-3 threshold.
        cfg = OrbitConfig(a=0.72, e_J=0.3)
        with pytest.raises(OrbitCrossingError) as info:
            spatial_quadratic_oracle(cfg, 0.805, quad)
        assert info.value.separation < 1e-3

    def test_near_crossing_refused_below_sampling_level(self):
        # The midpoint grid first samples that gap at n = 1024; under a
        # cap of 512 the closed-form check still refuses the point as a
        # crossing, not as a non-converged base.
        cfg = OrbitConfig(a=0.72, e_J=0.3)
        with pytest.raises(OrbitCrossingError) as info:
            spatial_quadratic_oracle(cfg, 0.805, QuadratureSpec(max_n=512))
        assert info.value.separation == pytest.approx(
            aligned_separation(0.72, 0.805, 0.3))

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
