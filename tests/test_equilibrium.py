import math

import numpy as np
import pytest

from oracles import (
    PlanarState,
    ninepoint_derivative_oracle,
    one_sided_derivative_oracle,
    rbar_fine,
    richardson_first,
    richardson_second,
)
from secular3bp import kernels
from secular3bp.averaging import DEFAULT_SEPARATION_THRESHOLD, N_START
from secular3bp.equilibrium import (
    POSITIVE_DEFINITE,
    STATUS_FOUND,
    STATUS_NO_ROOT,
    STATUS_ORBIT_CROSSING,
    _derivatives,
    _scan_grid,
    find_equilibrium,
    planar_hessian,
)
from secular3bp.errors import NonConvergedError
from secular3bp.geometry import OrbitConfig, aligned_separation
from secular3bp.sweep import evaluate_cell


def analytic_derivatives(cfg, e, quad, order=1):
    """Converged (R, R_e[, R_ee, R_gg]) and their doubling errors."""
    vals, errs, _ = _derivatives(cfg, e, quad, order=order)
    return vals, errs


class TestDerivative:
    def test_against_ninepoint_oracle(self, quad):
        cfg = OrbitConfig(a=0.3, e_J=0.4)
        (_, got), (_, err) = analytic_derivatives(cfg, 0.2, quad)
        want = ninepoint_derivative_oracle(cfg, 0.2)
        assert got == pytest.approx(want, abs=5e-9)
        assert err < 1e-6

    def test_circular_planet_g_independent(self, quad):
        # For e_J = 0 the averaged function is g-independent, so the
        # derivative can be cross-checked at a rotated configuration.
        cfg = OrbitConfig(a=0.3, e_J=0.0)
        (_, got), _ = analytic_derivatives(cfg, 0.2, quad)
        h = 1e-4
        rotated = (rbar_fine(cfg, 0.2 + h, g=math.pi / 2.0)
                   - rbar_fine(cfg, 0.2 - h, g=math.pi / 2.0)) / (2.0 * h)
        assert got == pytest.approx(rotated, abs=1e-8)

    def test_one_sided_at_zero(self, quad):
        cfg = OrbitConfig(a=0.3, e_J=0.4)
        (_, val), (_, err) = analytic_derivatives(cfg, 0.0, quad)
        assert math.isfinite(val) and math.isfinite(err)
        assert val == pytest.approx(one_sided_derivative_oracle(cfg, 0.0), abs=1e-7)

    def test_domain_error(self, quad):
        cfg = OrbitConfig(a=0.3, e_J=0.4)
        with pytest.raises(ValueError):
            analytic_derivatives(cfg, 1.5, quad)
        for e in (0.0, 1.5):
            with pytest.raises(ValueError):
                planar_hessian(cfg, e, quad)

    @pytest.mark.parametrize("a, eJ, e0", [(0.4, 0.3, 0.22), (2.5, 0.4, 0.18)])
    def test_second_derivatives_against_richardson(self, quad, a, eJ, e0):
        cfg = OrbitConfig(a=a, e_J=eJ)
        (_, _, r_ee, r_gg), _ = analytic_derivatives(cfg, e0, quad, order=2)
        want_ee = richardson_second(lambda e: rbar_fine(cfg, e), e0, 1e-3)
        want_gg = richardson_second(lambda g: rbar_fine(cfg, e0, g=g), 0.0, 1e-3)
        assert r_ee == pytest.approx(want_ee, rel=1e-6)
        assert r_gg == pytest.approx(want_gg, rel=1e-6)

    def test_batch_matches_single_calls(self):
        # At n = 1024 every e spans several kernel chunks.
        a, eJ, n = 0.4, 0.3, 1024
        es = np.array([0.05, 0.12, 0.2, 0.31, 0.44])
        assert n * n > kernels._CHUNK_NODES
        for order in (0, 2):
            batch = kernels.quarter_sums(a, es, eJ, n, n, order=order)
            single = [kernels.quarter_sums(a, float(e), eJ, n, n, order=order)
                      for e in es]
            for k in range(4):
                assert np.array_equal(batch[k], [s[k] for s in single])

    @pytest.mark.parametrize("n", [128, 1024])
    def test_second_leaves_first_rows_unchanged(self, n):
        # find_equilibrium takes the residual from an order=2 call; its
        # R and R_e must be the bytes an order=1 call gives, and its R the
        # bytes of averaged_coefficients' order=0 Rbar.
        a, eJ = 0.4, 0.3
        for e in (0.22, np.array([0.05, 0.22, 0.44])):
            rbar = kernels.quarter_sums(a, e, eJ, n, n)[0]
            first = kernels.quarter_sums(a, e, eJ, n, n, order=1)
            both = kernels.quarter_sums(a, e, eJ, n, n, order=2)
            for k in range(2):
                assert np.asarray(both[k]).tobytes() == np.asarray(first[k]).tobytes()
            assert np.asarray(rbar).tobytes() == np.asarray(first[0]).tobytes()


def grid_scan_oracle(cfg, lo, hi, resolution=1e-4):
    """Dense scan of Rbar(e): returns the interior local-minimum abscissa."""
    es = np.arange(lo, hi, resolution)
    vals = np.array([rbar_fine(cfg, float(e), nodes=256) for e in es])
    k = int(np.argmin(vals))
    assert 0 < k < len(es) - 1, "minimum hit the scan boundary"
    return float(es[k])


class TestFindEquilibrium:
    def test_reference_point(self, quad):
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        rec = find_equilibrium(cfg, quad)
        assert rec.status == STATUS_FOUND
        assert rec.residual < 1e-11
        assert rec.hessian_definite == POSITIVE_DEFINITE
        assert abs(rec.e_star - grid_scan_oracle(cfg, 0.05, 0.4)) <= 1e-4

    def test_small_a(self, quad):
        cfg = OrbitConfig(a=0.08, e_J=0.3)
        rec = find_equilibrium(cfg, quad)
        assert rec.status == STATUS_FOUND
        assert abs(rec.e_star - grid_scan_oracle(cfg, 1e-3, 0.2)) <= 1e-4

    def test_outer_region(self, quad):
        cfg = OrbitConfig(a=2.5, e_J=0.3)
        rec = find_equilibrium(cfg, quad)
        assert rec.status == STATUS_FOUND
        assert rec.hessian_definite == POSITIVE_DEFINITE
        assert rec.residual < 1e-11

    def test_circular_planet_no_root(self, quad):
        # e_J -> 0: the aligned forced eccentricity collapses to 0, below
        # the bracket floor; the documented boundary outcome is NO_ROOT.
        rec = find_equilibrium(OrbitConfig(a=0.3, e_J=0.0), quad)
        assert rec.status == STATUS_NO_ROOT

    def test_crossing_bracket(self, quad):
        rec = find_equilibrium(OrbitConfig(a=1.0, e_J=0.3), quad)
        assert rec.status == STATUS_ORBIT_CROSSING

    def test_near_boundary_cell_survives(self, quad):
        # Low-e scan points sit below the scan margin here (periapsis
        # gap = a*e when a = 1 - e_J); masking must not lose the root.
        rec = find_equilibrium(OrbitConfig(a=0.3, e_J=0.7), quad)
        assert rec.status == STATUS_FOUND
        assert rec.e_star == pytest.approx(0.424, abs=5e-3)

    def test_residual_invariant(self, quad):
        for (a, eJ) in [(0.2, 0.5), (0.45, 0.2), (1.9, 0.4)]:
            rec = find_equilibrium(OrbitConfig(a=a, e_J=eJ), quad)
            assert rec.status == STATUS_FOUND
            assert rec.residual < 1e-11

    def test_root_solved_at_its_own_level(self, quad):
        # The probe converges at n = 128 and the root at n = 256, where the
        # root Brent found at 128 has |dRbar/de| = 2.3e-11; it is solved
        # again at 256.
        cell = evaluate_cell(0.9, 0.8, 0.0, quad)
        assert cell.status == STATUS_FOUND
        assert cell.equilibrium.residual < 1e-11
        assert cell.equilibrium.hessian_definite == POSITIVE_DEFINITE
        assert np.all(np.linalg.eigvalsh(cell.equilibrium.hessian) > 0.0)

    def test_cell_path_stays_clear_of_crossing(self, quad, monkeypatch):
        # The scan mask is the cell's only crossing check: every e the
        # kernels see on the cell path, scalar or batched, must clear the
        # crossing threshold.
        seen = []

        def recording(kernel):
            def wrapped(a, e, eJ, *args, **kwargs):
                seen.extend((a, float(x), eJ) for x in np.ravel(e))
                return kernel(a, e, eJ, *args, **kwargs)
            return wrapped

        for name in ("quarter_sums", "bbar_mean"):
            monkeypatch.setattr(kernels, name, recording(getattr(kernels, name)))
        rng = np.random.default_rng(20261018)
        cells = [(rng.uniform(0.05, 0.55), rng.uniform(0.05, 0.85))
                 for _ in range(10)]
        cells += [(rng.uniform(1.8, 4.0), rng.uniform(0.05, 0.85))
                  for _ in range(10)]
        cells += [(0.3, 0.7), (0.9, 0.8)]
        statuses = [evaluate_cell(float(a), float(eJ), 0.0, quad).status
                    for a, eJ in cells]
        assert statuses.count(STATUS_FOUND) >= 15
        assert seen
        low = [(a, e, eJ) for a, e, eJ in seen
               if aligned_separation(a, e, eJ) < DEFAULT_SEPARATION_THRESHOLD]
        assert low == []

    def test_continuity_along_a(self, quad):
        eJ = 0.3
        a_vals = np.linspace(0.30, 0.34, 5)
        stars = []
        for a in a_vals:
            rec = find_equilibrium(OrbitConfig(a=float(a), e_J=eJ), quad)
            assert rec.status == STATUS_FOUND
            stars.append(rec.e_star)
        diffs = np.abs(np.diff(stars))
        # e*(a) is smooth here; steps of da = 0.01 move e* by O(da).
        assert diffs.max() < 0.05


def sign_changes(values):
    """Indices k where values[k] and values[k + 1] bracket a root."""
    neg = values < 0.0
    return [k for k in range(len(values) - 1)
            if values[k] == 0.0 or neg[k] != neg[k + 1]]


def recording_derivatives(monkeypatch, cfg, alter=None):
    """Record (scan, n, order) for every derivative call of quarter_sums.

    ``scan`` marks a batched call over the cell's admissible scan points,
    as opposed to a call over bracket ends or at a single e.
    ``alter(calls, scan, n, out)`` may return replaced outputs; ``calls``
    holds the calls made before this one.
    """
    scan_grid, mask, _ = _scan_grid(cfg)
    calls = []
    kernel = kernels.quarter_sums

    def wrapped(a, e, eJ, n1, n2, order=0):
        out = kernel(a, e, eJ, n1, n2, order=order)
        if order:
            scan = np.ndim(e) > 0 and np.array_equal(e, scan_grid[mask])
            if alter is not None:
                out = alter(calls, scan, n1, out)
            calls.append((scan, n1, order))
        return out

    monkeypatch.setattr(kernels, "quarter_sums", wrapped)
    return calls


def flip_one(out):
    """Kernel outputs with R_e negated at the third-last scan point.

    For (a, e_J) = (0.4, 0.3) that point lies far above the root, so the
    flip adds two spurious sign changes.
    """
    r_e = out[1].copy()
    r_e[-3] = -r_e[-3]
    return (out[0], r_e) + out[2:]


class TestScanLevel:
    @pytest.mark.parametrize("a, eJ, n_frozen", [(0.4, 0.3, 64), (0.9, 0.8, 128)])
    def test_scan_runs_one_level_below_brent(self, quad, monkeypatch, a, eJ,
                                             n_frozen):
        cfg = OrbitConfig(a=a, e_J=eJ)
        calls = recording_derivatives(monkeypatch, cfg)
        rec = find_equilibrium(cfg, quad)
        assert rec.status == STATUS_FOUND
        scans = [k for k, call in enumerate(calls) if call[0]]
        assert len(scans) == 1
        k = scans[0]
        assert max(n for _, n, _ in calls[:k]) == n_frozen  # the probe
        assert calls[k][1] == max(N_START, n_frozen // 2)
        brent = {n for _, n, order in calls[k + 1:] if order == 1}
        root = {n for _, n, order in calls[k + 1:] if order == 2}
        assert n_frozen in brent
        assert brent <= {n_frozen, max(root)}

    def test_bracket_ends_in_one_batched_call(self, quad, monkeypatch):
        # (0.4, 0.3) has one bracket, solved at n_frozen = 64: its two ends
        # come from one batched call, and Brent reads them from it.
        seen = []
        kernel = kernels.quarter_sums

        def wrapped(a, e, eJ, n1, n2, order=0):
            seen.append((np.atleast_1d(e).tolist(), n1, order))
            return kernel(a, e, eJ, n1, n2, order=order)

        monkeypatch.setattr(kernels, "quarter_sums", wrapped)
        rec = find_equilibrium(OrbitConfig(a=0.4, e_J=0.3), quad)
        assert len(rec.all_roots) == 1
        at_64 = [es for es, n, order in seen if n == 64 and order == 1]
        batches = [es for es in at_64 if len(es) > 1]
        assert len(batches) == 1 and len(batches[0]) == 2
        e1, e2 = batches[0]
        assert e1 < rec.e_star < e2
        assert not any(es in ([e1], [e2]) for es in at_64)

    def test_spurious_scan_sign_change_rescans_at_frozen_level(
            self, quad, monkeypatch):
        # Flip one scan value far from the root at n = 32 only: the two
        # spurious brackets lose their sign change at n_frozen = 64, so the
        # cell scans again at 64 and returns the unpatched record.
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        want = find_equilibrium(cfg, quad)

        def flip(calls, scan, n, out):
            return flip_one(out) if scan and n == 32 else out

        calls = recording_derivatives(monkeypatch, cfg, flip)
        got = find_equilibrium(cfg, quad)
        assert [n for scan, n, _ in calls if scan] == [32, 64]
        assert got.status == want.status == STATUS_FOUND
        assert got.e_star == want.e_star
        assert got.residual == want.residual
        assert got.hessian.tobytes() == want.hessian.tobytes()

    @pytest.mark.parametrize("missing", ["root", "spurious"])
    def test_sign_change_missing_at_frozen_level(self, quad, monkeypatch,
                                                 missing):
        # "root": after the probe, dRbar/de at n_frozen = 64 has no sign
        # change at all, so the rescan finds none.  "spurious": both scans
        # show a sign change that the bracket ends at 64 do not.  Either
        # way the cell must not report a root.
        cfg = OrbitConfig(a=0.4, e_J=0.3)

        def alter(calls, scan, n, out):
            if missing == "root" and n == 64 and any(c[0] for c in calls):
                return (out[0], np.abs(out[1])) + out[2:]
            if missing == "spurious" and scan:
                return flip_one(out)
            return out

        calls = recording_derivatives(monkeypatch, cfg, alter)
        if missing == "root":
            assert find_equilibrium(cfg, quad).status == STATUS_NO_ROOT
        else:
            with pytest.raises(NonConvergedError, match="no sign change"):
                find_equilibrium(cfg, quad)
        assert [n for scan, n, _ in calls if scan] == [32, 64]

    def test_half_level_scan_hides_no_root(self, quad):
        # The 21-point scan one level below n_frozen against a 301-point scan
        # at n_frozen over the same admissible segments: the same number of
        # sign changes, each dense one inside a coarse bracket.  The
        # near-planet cells freeze at n = 128-512; a dense scan at n = 1024
        # alone would take about 6 s, and the near-planet golden window
        # holds cells at that level to the stored statuses and roots.
        rng = np.random.default_rng(20261021)
        cells = [(rng.uniform(0.05, 0.55), rng.uniform(0.05, 0.85))
                 for _ in range(11)]
        cells += [(rng.uniform(1.8, 4.0), rng.uniform(0.05, 0.85))
                  for _ in range(11)]
        cells += [(rng.uniform(0.85, 0.97), rng.uniform(0.1, 0.9))
                  for _ in range(4)]
        found = 0
        for a, eJ in cells:
            cfg = OrbitConfig(a=float(a), e_J=float(eJ))
            scan, mask, e_probe = _scan_grid(cfg)
            n_frozen = _derivatives(cfg, e_probe, quad)[2]
            n_scan = max(N_START, n_frozen // 2)
            coarse = np.full(scan.shape, math.nan)
            coarse[mask] = kernels.quarter_sums(
                cfg.a, scan[mask], cfg.e_J, n_scan, n_scan, order=1)[1]
            brackets = {k for k in sign_changes(coarse)
                        if mask[k] and mask[k + 1]}
            segments = [k for k in range(len(scan) - 1) if mask[k] and mask[k + 1]]
            dense_e = np.concatenate([
                np.linspace(scan[k], scan[k + 1], 16) for k in segments])
            dense = kernels.quarter_sums(cfg.a, dense_e, cfg.e_J, n_frozen,
                                         n_frozen, order=1)[1].reshape(-1, 16)
            dense_changes = [k for k, row in zip(segments, dense)
                             for _ in sign_changes(row)]
            assert len(dense_changes) == len(brackets), (a, eJ)
            assert set(dense_changes) <= brackets, (a, eJ)
            found += len(brackets) > 0
        assert found >= 20


class TestPlanarHessian:
    def test_structure_at_equilibrium(self, quad):
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        rec = find_equilibrium(cfg, quad)
        hess = rec.hessian
        # R is even in g, so the cross term vanishes identically.
        assert hess[0, 1] == 0.0 and hess[1, 0] == 0.0
        assert np.all(np.linalg.eigvalsh(hess) > 0.0)

    def test_root_hessian_is_planar_hessian(self, quad):
        # The search builds the root's Hessian from the quadrature that
        # gives the residual; it must equal a planar_hessian call there.
        for (a, eJ) in [(0.4, 0.3), (2.5, 0.3)]:
            cfg = OrbitConfig(a=a, e_J=eJ)
            rec = find_equilibrium(cfg, quad)
            assert np.array_equal(rec.hessian, planar_hessian(cfg, rec.e_star, quad))

    def test_chain_rule_consistency(self, quad):
        # d2Rbar/dp2^2 must match the chain-rule transform of the e-space
        # derivatives:  f_pp = R_ee (de/dp2)^2 + R_e d2e/dp2^2  at q2 = 0.
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        e0 = 0.22  # generic point, no need to sit at the equilibrium
        hess = planar_hessian(cfg, e0, quad)

        L = cfg.L
        G = cfg.G_of(e0)
        p2 = math.sqrt(2.0 * (L - G))
        de_dp2 = p2 * G / (L**2 * e0)
        # d2e/dp2^2 from differentiating de/dp2 = p2 G / (L^2 e):
        dG_dp2 = -p2
        de2 = (G + p2 * dG_dp2) / (L**2 * e0) - p2 * G * de_dp2 / (L**2 * e0**2)

        # Richardson-extrapolated e-space derivatives: h large enough to
        # dominate rounding, extrapolation killing the h^2 truncation.
        def rbar(e):
            return rbar_fine(cfg, e)

        r_e = richardson_first(rbar, e0, 1e-3)
        r_ee = richardson_second(rbar, e0, 1e-3)
        expected_pp = r_ee * de_dp2**2 + r_e * de2
        assert hess[0, 0] == pytest.approx(expected_pp, rel=1e-6)

    def test_qq_against_canonical_differences(self, quad):
        # d2Rbar/dq2^2 straight from the canonical chart: move q2 at fixed
        # p2, map (p2, q2) back to (e, g) and difference Rbar.
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        e0 = 0.22  # off the equilibrium, so the R_e term counts
        L = cfg.L
        p2 = PlanarState.from_polar(e0, 0.0, L).p2

        def f(q2):
            st = PlanarState.from_canonical(p2, q2, L)
            return rbar_fine(cfg, st.e, g=st.g)

        want = richardson_second(f, 0.0, 1e-3)
        assert planar_hessian(cfg, e0, quad)[1, 1] == pytest.approx(want, rel=1e-6)


class TestPlanarState:
    def test_representation_consistency(self):
        L = math.sqrt(0.4)
        st = PlanarState.from_polar(0.3, 0.0, L)
        assert st.q2 == 0.0 and st.p2 > 0.0
        assert st.consistent_with(L)
        back = PlanarState.from_canonical(st.p2, st.q2, L)
        assert back.e == pytest.approx(0.3, abs=1e-14)
        assert back.g == pytest.approx(0.0, abs=1e-14)

    def test_round_trip_generic(self):
        L = 1.3
        st = PlanarState.from_polar(0.55, 2.1, L)
        back = PlanarState.from_canonical(st.p2, st.q2, L)
        assert back.e == pytest.approx(0.55, abs=1e-13)
        assert back.g == pytest.approx(2.1, abs=1e-13)
        assert st.consistent_with(L)
