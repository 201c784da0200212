import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    ellipse_nodes,
    orbit_min_separation,
    solve_kepler,
    support_separation,
)
from secular3bp.geometry import (
    COINCIDENT_GAP,
    OrbitConfig,
    aligned_noncrossing_interval,
    aligned_separation,
    near_coincident,
)

TWO_PI = 2.0 * math.pi

# Semi-major axes within 0.01 of the planet's, a = 1 itself excluded.
NEAR_UNITY_A = st.floats(0.99, 1.01).filter(lambda a: a != 1.0)


def kepler_bisection_oracle(l, e, width=1e-14):
    """Independent bisection on [l-e, l+e] down to the requested bracket."""
    lo, hi = l - e, l + e
    f = lambda E: E - e * math.sin(E) - l
    assert f(lo) <= 0.0 <= f(hi)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveKepler:
    def test_zero_mean_anomaly(self):
        assert solve_kepler(0.0, 0.5) == 0.0

    def test_apoapsis_symmetry(self):
        assert solve_kepler(math.pi, 0.7) == pytest.approx(math.pi, abs=1e-14)

    def test_against_bisection_oracle(self):
        expected = kepler_bisection_oracle(1.0, 0.3)
        assert solve_kepler(1.0, 0.3) == pytest.approx(expected, abs=5e-14)

    def test_residual_property_bulk(self):
        rng = np.random.default_rng(42)
        ls = rng.uniform(0.0, TWO_PI, 10_000)
        es = rng.uniform(0.0, 0.999, 10_000)
        worst = 0.0
        for l, e in zip(ls, es):
            E = solve_kepler(l, e)
            worst = max(worst, abs(E - e * math.sin(E) - l))
        assert worst < 1e-13

    def test_branch_continuity(self):
        # E - l is 2*pi periodic in l; E itself follows the branch of l.
        e = 0.6
        assert solve_kepler(1.0 + TWO_PI, e) == pytest.approx(
            solve_kepler(1.0, e) + TWO_PI, abs=1e-12
        )
        for l in (0.0, 1e-9, TWO_PI - 1e-9, TWO_PI):
            E1 = solve_kepler(l, e)
            E2 = solve_kepler(l + 1e-9, e)
            assert abs(E2 - E1) < 1e-7

    def test_domain_error(self):
        with pytest.raises(ValueError):
            solve_kepler(1.0, 1.2)
        with pytest.raises(ValueError):
            solve_kepler(math.inf, 0.3)

    @given(st.floats(-50.0, 50.0), st.floats(0.0, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_residual_property(self, l, e):
        E = solve_kepler(l, e)
        assert abs(E - e * math.sin(E) - l) < 1e-13


def ellipse_node(E, a, e):
    """One node (x, y, w) of the kernels' shared ellipse sampler."""
    x, y, w = ellipse_nodes(np.array([E]), a, e)
    return float(x[0]), float(y[0]), float(w[0])


class TestPlanetPosition:
    """The planet's ellipse is the kernels' node sampler, ``_ellipse_at``,
    with a = 1."""

    def test_periapsis(self):
        xJ, yJ, wJ = ellipse_node(0.0, 1.0, 0.2)
        assert (xJ, yJ, wJ) == (0.8, 0.0, 0.8)

    def test_apoapsis(self):
        xJ, yJ, _ = ellipse_node(math.pi, 1.0, 0.2)
        assert xJ == pytest.approx(-1.2, abs=1e-15)
        assert yJ == pytest.approx(0.0, abs=1e-15)

    def test_quarter(self):
        xJ, yJ, _ = ellipse_node(math.pi / 2.0, 1.0, 0.5)
        assert xJ == pytest.approx(-0.5, abs=1e-15)
        assert yJ == pytest.approx(math.sqrt(0.75), abs=1e-15)

    def test_focus_distance_identity(self):
        # The Kepler weight w = 1 - eJ cos EJ is the distance to the focus.
        rng = np.random.default_rng(3)
        EJ = rng.uniform(0.0, TWO_PI, 200)
        for eJ in rng.uniform(0.0, 0.95, 5):
            xJ, yJ, wJ = ellipse_nodes(EJ, 1.0, eJ)
            assert np.max(np.abs(np.hypot(xJ, yJ) - wJ)) < 1e-13

    def test_ellipse_equation(self):
        rng = np.random.default_rng(4)
        EJ = rng.uniform(0.0, TWO_PI, 100)
        for eJ in rng.uniform(0.0, 0.9, 5):
            xJ, yJ, _ = ellipse_nodes(EJ, 1.0, eJ)
            lhs = (xJ + eJ) ** 2 + yJ**2 / (1.0 - eJ**2)
            assert np.max(np.abs(lhs - 1.0)) < 1e-12


class TestAsteroidPlanePosition:
    def test_trivials(self):
        assert ellipse_node(0.0, 2.0, 0.5)[:2] == (1.0, 0.0)
        xp, yp, _ = ellipse_node(math.pi / 2.0, 1.0, 0.0)
        assert xp == pytest.approx(0.0, abs=1e-15)
        assert yp == pytest.approx(1.0, abs=1e-15)
        xp, yp, w = ellipse_node(math.pi, 0.3, 0.1)
        assert xp == pytest.approx(-0.33, abs=1e-15)
        assert yp == pytest.approx(0.0, abs=1e-15)
        assert w == pytest.approx(1.1, abs=1e-15)


class TestTypes:
    def test_orbit_config_validation(self):
        with pytest.raises(ValueError):
            OrbitConfig(a=-0.1, e_J=0.2)
        with pytest.raises(ValueError):
            OrbitConfig(a=0.5, e_J=1.0)
        with pytest.raises(ValueError):
            OrbitConfig(a=0.5, e_J=0.2, mu=1.0)
        cfg = OrbitConfig(a=0.25, e_J=0.1)
        assert cfg.L == pytest.approx(0.5)


class TestSeparation:
    def test_concentric_circles(self):
        assert orbit_min_separation(0.2, 0.0, 0.0) == pytest.approx(0.8, abs=1e-9)
        assert orbit_min_separation(3.0, 0.0, 0.0) == pytest.approx(2.0, abs=1e-9)

    def test_identical_ellipses(self):
        assert orbit_min_separation(1.0, 0.3, 0.3) < 1e-6

    def test_support_form_matches_sampling(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 25:
            a = rng.uniform(0.05, 0.95) if rng.random() < 0.5 else \
                rng.uniform(1.05, 4.0)
            e = rng.uniform(0.0, 0.9)
            eJ = rng.uniform(0.0, 0.9)
            sep_exact = aligned_separation(a, e, eJ)
            if sep_exact < 1e-3:
                continue
            checked += 1
            assert orbit_min_separation(a, e, eJ) == pytest.approx(
                sep_exact, abs=1e-8)

    def test_crossing_is_zero(self):
        assert aligned_separation(1.0, 0.3, 0.3) == 0.0
        # periapsis inside, apoapsis outside: a transversal crossing
        assert aligned_separation(0.9, 0.8, 0.5) == 0.0
        assert orbit_min_separation(0.9, 0.8, 0.5) < 1e-6

    def test_noncrossing_interval_consistency(self):
        rng = np.random.default_rng(12)
        for _ in range(75):
            # The strip within 0.01 of a = 1 holds the smallest apsidal gaps.
            u = rng.random()
            a = rng.uniform(0.1, 0.95) if u < 1 / 3 else \
                rng.uniform(1.05, 3.5) if u < 2 / 3 else rng.uniform(0.99, 1.01)
            eJ = rng.uniform(0.0, 0.9)
            interval = aligned_noncrossing_interval(a, eJ)
            if interval is None:
                continue
            lo, hi = interval
            e_in = 0.5 * (lo + hi)
            assert aligned_separation(a, e_in, eJ) > 0.0
            if hi < 1.0:
                e_out = min(0.999, hi + 0.05)
                assert aligned_separation(a, e_out, eJ) == 0.0

    @given(st.one_of(st.floats(0.01, 8.0), NEAR_UNITY_A), st.floats(0.0, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_apsidal_gap_matches_support_form(self, a, eJ):
        # Dense e over [0, 0.999], crossing eccentricities included (both
        # forms return 0 there), plus the non-crossing interval itself,
        # which is narrow near a = 1.  The absolute floor is the rounding
        # of the oracle's support-function difference, whose terms are of
        # size max(1, a): at separations that small no relative agreement
        # is defined.
        es = [np.linspace(0.0, 0.999, 200)]
        interval = aligned_noncrossing_interval(a, eJ)
        if interval is not None:
            es.append(np.linspace(*interval, 64))
        e = np.concatenate(es)
        sep = aligned_separation(a, e, eJ)
        ref = support_separation(a, e, eJ)
        floor = 1e-14 * max(1.0, a)
        assert np.all(np.abs(sep - ref) <= 1e-9 * sep + floor)
        # A numpy scalar a gives the same bytes.
        assert aligned_separation(np.float64(a), e, eJ).tobytes() == sep.tobytes()

    def test_batch_matches_scalar(self):
        # One batched evaluation gives each e the bytes of a scalar call.
        es = np.array([0.1, 0.2, 0.2, 0.45])
        seps = aligned_separation(0.4, es, 0.3)
        assert seps.tolist() == [aligned_separation(0.4, float(e), 0.3) for e in es]

    @given(st.one_of(st.floats(0.02, 0.99), st.floats(1.01, 5.0), NEAR_UNITY_A),
           st.floats(0.0, 0.97))
    @settings(max_examples=200, deadline=None)
    def test_quasi_concave_on_noncrossing_interval(self, a, eJ):
        # sep(e) >= min(sep(e1), sep(e2)) for every e1 < e < e2: the
        # equilibrium scan certifies each bracket from its two ends.
        interval = aligned_noncrossing_interval(a, eJ)
        assume(interval is not None)
        seps = aligned_separation(a, np.linspace(*interval, 256), eJ)
        left = np.maximum.accumulate(seps)
        right = np.maximum.accumulate(seps[::-1])[::-1]
        assert np.all(seps[1:-1] >= np.minimum(left[:-2], right[2:]) - 1e-12)

    def test_a_equal_one_always_crosses(self):
        assert aligned_noncrossing_interval(1.0, 0.3) is None


class TestNearCoincident:
    @pytest.mark.parametrize("a, eJ", [(0.95, 0.42), (1.05, 0.36), (0.97, 0.5)])
    def test_mapped(self, a, eJ):
        # e_J / a lies inside the scan grid: both gaps there are |a - 1|.
        assert near_coincident(a, eJ) == pytest.approx(math.sqrt(abs(a - 1.0)),
                                                   rel=1e-12)

    @pytest.mark.parametrize("a, eJ", [
        (0.9, 0.8), (0.047, 0.95), (0.93, 0.9), (0.4, 0.3), (2.5, 0.4),
        (1.0, 0.3)])
    def test_not_mapped(self, a, eJ):
        # At a = 1 the orbits touch at e* = e_J: no map has lambda = 0.
        assert near_coincident(a, eJ) is None

    def test_clipped_e_star(self):
        # e_J = 0 clips e* to the scan grid's low end; both gaps stay near
        # |a - 1| and lambda takes the smaller one.
        lam = near_coincident(0.95, 0.0)
        e = 2e-4
        assert lam == math.sqrt(min(abs(0.95 * (1.0 - e) - 1.0),
                                    abs(0.95 * (1.0 + e) - 1.0)))

    def test_threshold_is_off_the_window_grids(self):
        # No column of a 0.01 grid sits within rounding of the threshold.
        cols = np.round(np.arange(0.0, 2.0, 0.01), 2)
        assert np.min(np.abs(np.abs(cols - 1.0) - COINCIDENT_GAP)) > 1e-3
