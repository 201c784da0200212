"""The in-package Brent solver against scipy.optimize.brentq as an oracle.

The port must evaluate the same points in the same order and return the
same root, at both tolerances the package solves with, and raise what
scipy raises.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from secular3bp.equilibrium import brentq

# The two xtol values the package passes: the equilibrium root and the
# resonance edge (_PARAM_TOL / 2).
XTOLS = (1e-15, 5e-5)


def run(solver, f, xa, xb, xtol):
    """(root or exception type, evaluated points) of one solve."""
    xs = []

    def recorded(x):
        xs.append(x)
        return f(x)

    try:
        out = solver(recorded, xa, xb, xtol)
    except (ValueError, RuntimeError) as exc:
        out = type(exc)
    return out, xs


def oracle(f, xa, xb, xtol):
    return scipy_brentq(f, xa, xb, xtol=xtol)


def assert_same_solve(f, xa, xb, xtol):
    got, got_xs = run(brentq, f, xa, xb, xtol)
    want, want_xs = run(oracle, f, xa, xb, xtol)
    assert got_xs == want_xs
    assert got == want
    return got


@st.composite
def bracketed(draw):
    """A smooth function and an interval whose ends it gives opposite signs.

    A tanh step of random steepness at r, plus a sine and a cubic, at a
    random scale; steep steps, wiggles and several roots in the bracket
    drive every branch: interpolation, extrapolation, bisection and the
    minimum step.
    """
    xa = draw(st.floats(-5.0, 5.0))
    xb = xa + draw(st.floats(1e-6, 5.0))
    r = draw(st.floats(xa, xb))
    k = draw(st.floats(0.1, 200.0))
    s = draw(st.floats(-1.0, 1.0))
    w = draw(st.floats(0.0, 30.0))
    p = draw(st.floats(0.0, 2.0 * math.pi))
    c = draw(st.floats(-2.0, 2.0))
    scale = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-8.0, 8.0))

    def f(x):
        u = x - r
        return scale * (math.tanh(k * u) + s * math.sin(w * x + p) + c * u ** 3)

    fa, fb = f(xa), f(xb)
    assume(fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0))
    return f, xa, xb


class TestAgainstScipy:
    @given(bracketed())
    @settings(max_examples=400, deadline=None)
    def test_same_root_and_iterates(self, case):
        f, xa, xb = case
        for xtol in XTOLS:
            root = assert_same_solve(f, xa, xb, xtol)
            assert isinstance(root, float)
            assert xa <= root <= xb

    @pytest.mark.parametrize("xtol", XTOLS)
    def test_same_sign_ends_raise(self, xtol):
        assert assert_same_solve(lambda x: x * x + 1.0, -1.0, 2.0, xtol) is ValueError

    @pytest.mark.parametrize("nan_at", ["end", "interior"])
    def test_nan_raises(self, nan_at):
        def f(x):
            if nan_at == "end":
                return math.nan if x == 2.0 else x - 0.25
            return x - 0.25 if x in (-1.0, 2.0) else math.nan

        assert assert_same_solve(f, -1.0, 2.0, 1e-15) is ValueError

    def test_iteration_cap_raises(self):
        # A jump at 0 with a tolerance of 1e-300 there needs about a
        # thousand halvings; both solvers stop after 100 iterations.
        def step(x):
            return 1.0 if x > 0.0 else -1.0

        assert assert_same_solve(step, -1.0, 3.0, 1e-300) is RuntimeError

    @pytest.mark.parametrize("xa, xb, root", [(1.0, 3.0, 1.0), (-1.0, 1.0, 1.0)])
    def test_zero_at_an_end_is_the_root(self, xa, xb, root):
        got = assert_same_solve(lambda x: x - 1.0, xa, xb, 1e-15)
        assert got == root
