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
from secular3bp import equilibrium, kernels
from secular3bp.averaging import (
    _FLOORS,
    DEFAULT_SEPARATION_THRESHOLD,
    N_START,
    _doubling,
    _point_quadrature,
    averaged_coefficients,
)
from secular3bp.equilibrium import (
    _SAFE_SEPARATION,
    POSITIVE_DEFINITE,
    STATUS_FOUND,
    STATUS_NO_ROOT,
    STATUS_ORBIT_CROSSING,
    _certified_scan,
    _scan_grid,
    _slopes,
    find_equilibrium,
    planar_hessian,
)
from secular3bp.errors import NonConvergedError
from secular3bp.geometry import (
    _SCAN_INSET,
    DEFAULT_E_BRACKET,
    OrbitConfig,
    aligned_noncrossing_interval,
    aligned_separation,
)
from secular3bp.sweep import evaluate_cell
from test_averaging import accepted_level


def probe(cfg, e, quad):
    """The cell's probe doubling of (R, R_e) at e: (values, errors, nodes)."""
    at = _slopes(cfg)
    return _doubling(lambda n: at(n, [e])[:, 0], quad, floors=_FLOORS[1])


def analytic_derivatives(cfg, e, quad):
    """Converged (R, R_e) and their doubling errors."""
    vals, errs, _ = probe(cfg, e, quad)
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
        for e in (0.0, 1.5):
            with pytest.raises(ValueError):
                planar_hessian(cfg, e, quad)

    @pytest.mark.parametrize("a, eJ, e0", [(0.4, 0.3, 0.22), (2.5, 0.4, 0.18)])
    def test_second_derivatives_against_richardson(self, quad, a, eJ, e0):
        cfg = OrbitConfig(a=a, e_J=eJ)
        (_, r_ee, r_gg), _, _ = _point_quadrature(cfg, e0, quad, 2)
        want_ee = richardson_second(lambda e: rbar_fine(cfg, e), e0, 1e-3)
        want_gg = richardson_second(lambda g: rbar_fine(cfg, e0, g=g), 0.0, 1e-3)
        assert r_ee == pytest.approx(want_ee, rel=1e-6)
        assert r_gg == pytest.approx(want_gg, rel=1e-6)

    def test_batch_matches_single_calls(self):
        # At n = 1024 every e spans several kernel chunks; on the mapped
        # grid of the near-coincident (0.95, 0.42) one chunk at n = 64
        # holds the whole batch, and at n = 128 a chunk holds 4 e blocks on
        # either grid, the last of 21 a partial one.  The cell's evaluator
        # (_slopes) keeps order-1 values from batches of any size and reads
        # them back for single points, so every order must give the same
        # bytes for a scalar, a one-element array and a batch.
        assert 1024 * 1024 > kernels._CHUNK_NODES
        for a, eJ, es, n in [
                (0.4, 0.3, [0.05, 0.12, 0.2, 0.31, 0.44], 1024),
                (0.95, 0.42, [0.40, 0.42, 0.44, 0.46, 0.48], 1024),
                (0.95, 0.42, [0.40, 0.42, 0.44, 0.46, 0.48], 64),
                (0.4, 0.3, np.linspace(0.02, 0.44, 21), 128),
                (0.95, 0.42, np.linspace(0.30, 0.50, 21), 128)]:
            self.check_batch(a, eJ, np.array(es), n)

    @staticmethod
    def check_batch(a, eJ, es, n):
        for order in (0, 1, 2):
            batch = kernels.quarter_sums(a, es, eJ, n, n, order=order)
            assert len(batch) == (4, 2, 7)[order]
            for j, e in enumerate(es):
                scalar = kernels.quarter_sums(a, float(e), eJ, n, n,
                                              order=order)
                one = kernels.quarter_sums(a, es[j:j + 1], eJ, n, n,
                                           order=order)
                for k, values in enumerate(batch):
                    assert np.float64(scalar[k]).tobytes() == \
                        values[j].tobytes() == one[k].tobytes()

    @pytest.mark.parametrize("n", [128, 1024])
    def test_second_leaves_first_rows_unchanged(self, n):
        # find_equilibrium takes the residual from an order=2 call; its
        # R and R_e must be the bytes an order=1 call gives, and its R the
        # bytes of averaged_coefficients' order=0 Rbar, on the quarter grid
        # and on the mapped grid of (0.95, 0.42).
        cases = [(0.4, 0.3, e) for e in (0.22, np.array([0.05, 0.22, 0.44]))]
        cases += [(0.95, 0.42, e) for e in (0.44, np.array([0.40, 0.44, 0.48]))]
        for a, eJ, e in cases:
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
        # gap = a*e when a = 1 - e_J); leaving them out must not lose the
        # root.
        rec = find_equilibrium(OrbitConfig(a=0.3, e_J=0.7), quad)
        assert rec.status == STATUS_FOUND
        assert rec.e_star == pytest.approx(0.424, abs=5e-3)

    def test_admissible_scan_points_are_one_run(self):
        # The separation is concave in e on the non-crossing interval, so
        # the points of the 21-point scan grid that clear the margin form
        # one run with no hole, and _scan_grid returns that run.  Seeded
        # cells over both regimes, across the planet's orbit (straddle) and
        # on near-crossing columns of a on the 0.01 grid.
        rng = np.random.default_rng(20261022)
        cells = [(rng.uniform(0.05, 4.0), rng.uniform(0.0, 0.99))
                 for _ in range(400)]
        cells += [(rng.uniform(0.85, 1.15), rng.uniform(0.0, 0.99))
                  for _ in range(400)]
        cells += [(a, eJ) for a in np.round(np.arange(0.80, 1.205, 0.01), 2)
                  for eJ in np.linspace(0.0, 0.99, 34)]
        cut = 0
        for a, eJ in cells:
            cfg = OrbitConfig(a=float(a), e_J=float(eJ))
            got = _scan_grid(cfg)
            interval = aligned_noncrossing_interval(cfg.a, cfg.e_J)
            lo, hi = DEFAULT_E_BRACKET
            if interval is not None:
                lo, hi = max(lo, interval[0]), min(hi, interval[1])
            if interval is None or lo + 2.0 * _SCAN_INSET >= hi:
                assert got is None, (a, eJ)
                continue
            grid = np.linspace(lo + _SCAN_INSET, hi - _SCAN_INSET, 21)
            seps = aligned_separation(cfg.a, grid, cfg.e_J)
            keep = np.flatnonzero(seps >= _SAFE_SEPARATION * max(1.0, cfg.a))
            if keep.size == 0:
                assert got is None, (a, eJ)
                continue
            assert np.array_equal(keep, np.arange(keep[0], keep[-1] + 1)), (
                a, eJ)
            points, e_probe = got
            assert points.tobytes() == grid[keep].tobytes(), (a, eJ)
            assert e_probe in points
            cut += keep.size < grid.size
        assert cut >= 1000

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
        # The admissible scan run is the cell's only crossing check: every
        # e the kernels see on the cell path, scalar or batched, must clear
        # the crossing threshold.
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


def recording_requests(monkeypatch, cfg, alter=None):
    """Record the cell's requests at its evaluator and its kernel calls.

    Returns (requests, calls).  A request at ``at`` (see
    ``equilibrium._slopes``) is recorded as (kind, n, points): kind "scan"
    inside the certified scan, "all" outside it for a request over all the
    cell's admissible scan points (the first level before the probe, and
    the rescan), else "other" (the probe, bracket ends and Brent).  A
    derivative call of quarter_sums is recorded as (n, order, points).
    ``alter(requests, kind, n, es, out)`` may replace the rows (R, R_e) a
    request returns; ``requests`` holds the requests made before this one.
    """
    scan, _ = _scan_grid(cfg)
    requests, calls, scanning = [], [], []
    kernel = kernels.quarter_sums
    slopes = equilibrium._slopes
    certified_scan = equilibrium._certified_scan

    def wrapped(a, e, eJ, n1, n2, order=0):
        if order:
            calls.append((n1, order, np.size(e)))
        return kernel(a, e, eJ, n1, n2, order=order)

    def recorded_slopes(cfg):
        at = slopes(cfg)

        def recorded_at(n, es):
            es = np.asarray(es, dtype=float)
            out = at(n, es)
            kind = ("scan" if scanning else "all"
                    if np.array_equal(es, scan) else "other")
            if alter is not None:
                out = alter(requests, kind, n, es, out)
            requests.append((kind, n, es.size))
            return out

        return recorded_at

    def recorded_scan(*args):
        scanning.append(True)
        try:
            return certified_scan(*args)
        finally:
            scanning.pop()

    monkeypatch.setattr(kernels, "quarter_sums", wrapped)
    monkeypatch.setattr(equilibrium, "_slopes", recorded_slopes)
    monkeypatch.setattr(equilibrium, "_certified_scan", recorded_scan)
    return requests, calls


def flip_at(target, es, out):
    """Rows (R, R_e) with R_e negated wherever the request's e is target."""
    out = out.copy()
    out[1, es == target] *= -1.0
    return out


def far_scan_point(cfg):
    """The third-last admissible scan point.

    For (a, e_J) = (0.4, 0.3) it lies far above the root, so negating R_e
    there adds two spurious sign changes.
    """
    scan, _ = _scan_grid(cfg)
    return scan[-3]


def scan_levels(cfg, es, n_frozen):
    """R_e at the scan points on every level the certified scan may visit."""
    levels, n = {}, N_START // 2
    while n <= n_frozen:
        levels[n] = kernels.quarter_sums(cfg.a, es, cfg.e_J, n, n, order=1)[1]
        n *= 2
    return levels


def certified_level(levels, i, n_frozen):
    """The level at which the scan rule certifies point i, or n_frozen."""
    n = max(N_START, n_frozen // 8)
    while n < n_frozen:
        v, below = levels[n][i], levels[n // 2][i]
        if abs(v) > 3.0 * abs(v - below):
            break
        n *= 2
    return n


class TestScanLevel:
    @pytest.mark.parametrize("a, eJ, n_frozen, at_frozen",
                             [(0.4, 0.3, 64, 0), (0.9, 0.8, 128, 1)])
    def test_scan_certifies_each_point_at_its_own_level(
            self, quad, monkeypatch, a, eJ, n_frozen, at_frozen):
        # Each scan point takes its value at the first level no lower than
        # max(N_START, n_frozen / 8) where |R_e| > 3 |change from the level
        # below|, or at n_frozen; the scan makes one request per level over
        # the points not yet certified, and never goes above n_frozen.  At
        # (0.9, 0.8) one point is still uncertified at 64 and takes its
        # value at n_frozen = 128.
        cfg = OrbitConfig(a=a, e_J=eJ)
        es, _ = _scan_grid(cfg)
        levels = scan_levels(cfg, es, n_frozen)
        own = [certified_level(levels, i, n_frozen) for i in range(es.size)]
        got = _certified_scan(_slopes(cfg), es, n_frozen)
        assert got.tobytes() == np.array(
            [levels[n][i] for i, n in enumerate(own)]).tobytes()
        assert own.count(n_frozen) == at_frozen
        requests, calls = recording_requests(monkeypatch, cfg)
        rec = find_equilibrium(cfg, quad)
        assert rec.status == STATUS_FOUND
        scans = [k for k, req in enumerate(requests) if req[0] == "scan"]
        k = scans[0]
        assert scans == list(range(k, k + len(scans)))
        assert requests[0] == ("all", N_START, es.size)
        assert max(n for _, n, _ in requests[1:k]) == n_frozen  # the probe
        assert [(n, size) for _, n, size in requests[k:k + len(scans)]] == [
            (n, sum(m >= n for m in own)) for n in levels if n <= max(own)]
        brent = {n for _, n, _ in requests[k + len(scans):]}
        root = {n for n, order, _ in calls if order == 2}
        assert n_frozen in brent
        assert brent <= {n_frozen, max(root)}

    def test_extrapolated_probe_scans_at_frozen_level(self, quad, monkeypatch):
        # At (0.85, 0.2) the probe stops at n = 128 on an extrapolated
        # estimate, before R_e at n = 64 agrees with it to tol.  The scan
        # needs no level near it: every point's R_e at n = 32 clears three
        # times its change from n = 16, so all are certified there.
        cfg = OrbitConfig(a=0.85, e_J=0.2)
        scan, e_probe = _scan_grid(cfg)
        (_, r_e), _, n_frozen = probe(cfg, e_probe, quad)
        below = kernels.quarter_sums(cfg.a, e_probe, cfg.e_J, 64, 64,
                                     order=1)[1]
        assert n_frozen == 128
        assert abs(below - r_e) > quad.tol * max(abs(r_e), 1.0)
        levels = scan_levels(cfg, scan, 32)
        assert np.all(np.abs(levels[32]) > 3.0 * np.abs(levels[32] - levels[16]))
        got = _certified_scan(_slopes(cfg), scan, n_frozen)
        assert got.tobytes() == levels[32].tobytes()
        requests, _ = recording_requests(monkeypatch, cfg)
        assert find_equilibrium(cfg, quad).status == STATUS_FOUND
        assert [(kind, n) for kind, n, _ in requests if kind != "other"] == [
            ("all", 32), ("scan", 16), ("scan", 32)]

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

    @pytest.mark.parametrize("a, eJ, planted", [
        (0.4, 0.3, False), (0.9, 0.8, False), (0.85, 0.2, False),
        (0.4, 0.3, True)])
    def test_each_slope_reaches_the_kernel_once(self, quad, monkeypatch, a,
                                                eJ, planted):
        # Probe, scan, bracket ends, Brent and rescan share one evaluator:
        # no (n, e) of dRbar/de reaches the kernel twice in a cell.  (0.9,
        # 0.8) is solved again at n = 256, (0.85, 0.2) freezes at 128 on an
        # extrapolated probe, and the planted case negates the certified
        # sign at one far scan point, so its two spurious brackets send the
        # cell to a rescan at n_frozen = 64.
        cfg = OrbitConfig(a=a, e_J=eJ)
        want = find_equilibrium(cfg, quad)
        if planted:
            target = far_scan_point(cfg)
            certified_scan = equilibrium._certified_scan

            def flipped(*args):
                values = certified_scan(*args)
                return np.where(args[1] == target, -values, values)

            monkeypatch.setattr(equilibrium, "_certified_scan", flipped)
        seen = []
        kernel = kernels.quarter_sums

        def wrapped(a, e, eJ, n1, n2, order=0):
            if order == 1:
                seen.extend((n1, x) for x in np.atleast_1d(e).tolist())
            return kernel(a, e, eJ, n1, n2, order=order)

        monkeypatch.setattr(kernels, "quarter_sums", wrapped)
        got = find_equilibrium(cfg, quad)
        assert got.status == want.status == STATUS_FOUND
        assert got.e_star == want.e_star
        assert len(seen) == len(set(seen))
        if planted:
            scan, _ = _scan_grid(cfg)
            assert {e for n, e in seen if n == 64} >= set(scan.tolist())

    def test_spurious_scan_sign_change_rescans_at_frozen_level(
            self, quad, monkeypatch):
        # Negate R_e at one scan point far from the root at n = 16 and 32,
        # so the scan certifies the wrong sign there: the two spurious
        # brackets lose their sign change at n_frozen = 64, so the cell
        # scans again at 64 and returns the unpatched record.
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        want = find_equilibrium(cfg, quad)
        target = far_scan_point(cfg)

        def flip(requests, kind, n, es, out):
            if kind == "scan" and n <= 32:
                return flip_at(target, es, out)
            return out

        requests, _ = recording_requests(monkeypatch, cfg, flip)
        got = find_equilibrium(cfg, quad)
        assert [(kind, n) for kind, n, _ in requests if kind != "other"] == [
            ("all", 32), ("scan", 16), ("scan", 32), ("all", 64)]
        assert got.status == want.status == STATUS_FOUND
        assert got.e_star == want.e_star
        assert got.residual == want.residual
        assert got.hessian.tobytes() == want.hessian.tobytes()

    @pytest.mark.parametrize("missing", ["root", "spurious"])
    def test_sign_change_missing_at_frozen_level(self, quad, monkeypatch,
                                                 missing):
        # "root": after the scan starts, dRbar/de at n_frozen = 64 has no
        # sign change at all, so the rescan finds none.  "spurious": both
        # scans show a sign change that the bracket ends at 64 do not.
        # Either way the cell must not report a root.
        cfg = OrbitConfig(a=0.4, e_J=0.3)
        target = far_scan_point(cfg)

        def alter(requests, kind, n, es, out):
            if missing == "root" and n == 64 and any(
                    r[0] == "scan" for r in requests):
                return np.array([out[0], np.abs(out[1])])
            if missing == "spurious" and kind != "other":
                return flip_at(target, es, out)
            return out

        requests, _ = recording_requests(monkeypatch, cfg, alter)
        if missing == "root":
            assert find_equilibrium(cfg, quad).status == STATUS_NO_ROOT
        else:
            with pytest.raises(NonConvergedError, match="no sign change"):
                find_equilibrium(cfg, quad)
        assert [(kind, n) for kind, n, _ in requests if kind != "other"] == [
            ("all", 32), ("scan", 16), ("scan", 32), ("all", 64)]

    def test_certified_scan_hides_no_root(self, quad):
        # The 21-point certified scan against a 301-point scan at n_frozen
        # over the same admissible run: the same number of sign changes,
        # each dense one inside a coarse bracket.  The near-planet cells
        # freeze at n = 128-512; a dense scan at n = 1024 alone would take
        # about 6 s, and the near-planet golden window holds cells at that
        # level to the stored statuses and roots.
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
            scan, e_probe = _scan_grid(cfg)
            _, _, n_frozen = probe(cfg, e_probe, quad)
            coarse = _certified_scan(_slopes(cfg), scan, n_frozen)
            brackets = set(sign_changes(coarse))
            segments = range(len(scan) - 1)
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

    def test_plateau_point_certifies_below_it(self):
        # On the quarter grid at (0.97, 0.5), e = 0.50005, R_e sits on a
        # positive plateau before it settles negative; these are its values
        # at n = 16 to 256.  A rule on the change alone would certify
        # +0.264 at n = 32; with n_frozen = 512, as the quarter grid froze
        # this cell, the first level the scan may certify at is 64, and the
        # sign it certifies is the n = 256 value's.
        e = 0.50005
        recorded = [0.3374, 0.2643, 0.0095, -0.1629, -0.174]
        levels = dict(zip((16, 32, 64, 128, 256), recorded))
        assert [round(kernels._grid_sums(0.97, e, 0.5, n, n, 1, None)[1], 4)
                for n in levels] == recorded
        assert abs(levels[32]) > 3.0 * abs(levels[32] - levels[16])

        def at(n, es):
            return np.array([np.zeros(len(es)), np.full(len(es), levels[n])])

        got = _certified_scan(at, np.array([e]), 512)
        assert got[0] == levels[256] < 0.0

    def test_plateau_is_gone_on_the_mapped_grid(self, quad):
        # The cell is near-coincident, and on its mapped grid R_e at the
        # plateau point is negative from n = 16 and settled at -0.17405 from
        # n = 64; the probe freezes the cell at n = 128.
        cfg = OrbitConfig(a=0.97, e_J=0.5)
        scan, e_probe = _scan_grid(cfg)
        e = 0.50005
        assert e in scan
        assert probe(cfg, e_probe, quad)[2] == 128
        levels = scan_levels(cfg, np.array([e]), 256)
        assert round(float(levels[32][0]), 4) == -0.1746
        assert all(round(float(levels[n][0]), 5) == -0.17405
                   for n in (64, 128, 256))
        got = _certified_scan(_slopes(cfg), np.array([e]), 128)
        assert got[0] < 0.0

    def test_slow_point_takes_the_sign_of_a_fine_level(self, quad):
        # At (0.473, 0.52), e = 2e-4 (separation 0.0068), R_e at n = 32 is
        # 28% off its n = 1024 value; the scan certifies the sign of that
        # value.
        cfg = OrbitConfig(a=0.473, e_J=0.52)
        scan, e_probe = _scan_grid(cfg)
        e = 2e-4
        assert e in scan
        fine = kernels.quarter_sums(cfg.a, e, cfg.e_J, 1024, 1024, order=1)[1]
        coarse = kernels.quarter_sums(cfg.a, e, cfg.e_J, 32, 32, order=1)[1]
        assert 0.27 < abs(coarse - fine) / abs(fine) < 0.29
        _, _, n_frozen = probe(cfg, e_probe, quad)
        got = _certified_scan(_slopes(cfg), np.array([e]), n_frozen)
        assert np.sign(got[0]) == np.sign(fine)


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


class TestFoldedCoefficients:
    @pytest.mark.parametrize("a, eJ", [(0.4, 0.3), (2.5, 0.4), (0.9, 0.8),
                                       (0.95, 0.42)])
    def test_bytes_of_averaged_coefficients(self, quad, monkeypatch, a, eJ):
        # The root's quadrature and averaged_coefficients at e_star accept
        # one level here; the record then carries the latter's bytes.  The
        # near-coincident (0.95, 0.42) runs on the mapped grid.
        cfg = OrbitConfig(a=a, e_J=eJ)
        rec = find_equilibrium(cfg, quad)
        want = averaged_coefficients(cfg, rec.e_star, quad)
        assert accepted_level(
            monkeypatch, lambda: _point_quadrature(cfg, rec.e_star, quad, 2)) == \
            accepted_level(
                monkeypatch, lambda: averaged_coefficients(cfg, rec.e_star, quad))
        assert rec.coefficients == want
        for name in ("Rbar", "Abar", "Bbar", "Cbar"):
            assert getattr(rec.coefficients, name).hex() == \
                getattr(want, name).hex()

    @pytest.mark.parametrize("order, index, match", [
        pytest.param(2, 6, "went negative", id="6-went negative"),  # min_factor
        # a_mean, giving Abar >= 0
        pytest.param(2, 4, "is not negative", id="4-is not negative"),
        pytest.param(0, 3, "went negative", id="order0-3-went negative"),
        pytest.param(0, 1, "is not negative", id="order0-1-is not negative"),
    ])
    def test_planted_sign_defects_raise(self, quad, monkeypatch, order, index,
                                        match):
        # Both orders of the point quadrature keep the two sign checks: the
        # root's order 2 through find_equilibrium, order 0 through
        # averaged_coefficients; on the quarter grid and on the mapped grid
        # of the near-coincident (0.95, 0.42).
        kernel = kernels.quarter_sums

        def planted(*args, **kwargs):
            out = kernel(*args, **kwargs)
            if kwargs.get("order", 0) == order:
                out = out[:index] + (-abs(out[index]) - 1.0,) + out[index + 1:]
            return out

        monkeypatch.setattr(kernels, "quarter_sums", planted)
        for a, eJ, e in [(0.4, 0.3, 0.17), (0.95, 0.42, 0.44)]:
            cfg = OrbitConfig(a=a, e_J=eJ)
            with pytest.raises(RuntimeError, match=match):
                if order == 2:
                    find_equilibrium(cfg, quad)
                else:
                    averaged_coefficients(cfg, e, quad)


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
