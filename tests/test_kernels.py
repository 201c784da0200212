"""Row-reduced coefficient kernels: agreement with whole-grid references,
the per-node Abar-factor check, and the working set of one call."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import bbar_mean_reference, quarter_sums_reference, vbar_mean_reference
from secular3bp import kernels
from secular3bp.averaging import averaged_coefficients
from secular3bp.geometry import OrbitConfig, aligned_separation, rotation_matrix
from secular3bp.validate import sample_noncrossing_points

# (a, e, eJ): inner, outer, and an inner orbit whose aligned separation
# from the planet's is about 5e-3.
NEAR_PLANET = (0.7, 0.707, 0.2)
TRIPLES = [(0.4, 0.17, 0.3), (2.5, 0.2, 0.4), NEAR_PLANET]
TRIPLE_IDS = ["inner", "outer", "near-planet"]
SIZES = [64, 128, 1024]


def test_near_planet_triple_is_near():
    a, e, eJ = NEAR_PLANET
    assert 4e-3 < aligned_separation(a, e, eJ) < 6e-3


def test_largest_size_spans_chunks():
    assert 1024 * 1024 // kernels._CHUNK_NODES == 16


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("a, e, eJ", TRIPLES, ids=TRIPLE_IDS)
class TestAgainstReference:
    def test_quarter_sums(self, a, e, eJ, n):
        got = kernels.quarter_sums(a, e, eJ, n, n)
        want = quarter_sums_reference(a, e, eJ, n, n)
        assert all(type(v) is float for v in got)
        assert got[:3] == pytest.approx(want[:3], rel=1e-12, abs=0.0)
        # The kernel samples 1/r1^3 - 1/r2^3, the reference the Abar
        # integrand factor (r2^3 - r1^3) y yJ; both are non-negative.
        assert got[3] >= 0.0 and want[3] >= 0.0

    def test_bbar_mean(self, a, e, eJ, n):
        # The exact sum vanishes by symmetry, so both values are rounding
        # noise of the large cancelling terms (about 1e-13 next to the
        # planet).  The bound is on Bbar = -bbar_mean / (4 G), the
        # coefficient averaged_coefficients reports.
        got = kernels.bbar_mean(a, e, eJ, n, n)
        assert type(got) is float
        four_g = 4.0 * OrbitConfig(a=a, e_J=eJ).G_of(e)
        assert abs(got - bbar_mean_reference(a, e, eJ, n, n)) / four_g <= 1e-14

    def test_vbar_mean(self, a, e, eJ, n):
        m = rotation_matrix(0.7, 0.3, 1.1)
        orient = (m[0, 0], m[0, 1], m[1, 0], m[1, 1], m[2, 0], m[2, 1])
        got = kernels.vbar_mean(a, e, eJ, *orient, n, n)
        want = vbar_mean_reference(a, e, eJ, *orient, n, n)
        assert all(type(v) is float for v in got)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        cg, sg = math.cos(0.3), math.sin(0.3)
        got = kernels.rbar_rotated_mean(a, e, eJ, cg, sg, n, n)
        want = vbar_mean_reference(a, e, eJ, cg, -sg, sg, cg, 0.0, 0.0, n, n)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestAbarFactorCheck:
    def test_negative_factor_is_internal_error(self, monkeypatch, quad):
        real = kernels.quarter_sums

        def negative_factor(*args):
            return real(*args)[:3] + (-1e-3,)

        monkeypatch.setattr(kernels, "quarter_sums", negative_factor)
        with pytest.raises(RuntimeError, match="^internal error: "):
            averaged_coefficients(OrbitConfig(a=0.4, e_J=0.3), 0.17, quad)

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_no_false_alarm(self, n):
        for a, e, eJ in sample_noncrossing_points(64) + [NEAR_PLANET]:
            assert kernels.quarter_sums(a, e, eJ, n, n)[3] >= 0.0, (a, e, eJ)


def _peak_bytes(fn, *args, **kwargs):
    """Peak traced memory during one call, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn, args, kwargs", [
    (kernels.quarter_sums, (0.4, 0.17, 0.3, 1024, 1024), {}),
    (kernels.bbar_mean, (0.4, 0.17, 0.3, 1024, 1024), {}),
    (kernels.rbar_rotated_mean,
     (0.4, 0.17, 0.3, math.cos(0.1), math.sin(0.1), 1024, 1024), {}),
    (kernels.quarter_sums,
     (0.4, np.linspace(0.02, 0.44, 21), 0.3, 1024, 1024), {"order": 1}),
    (kernels.quarter_sums,
     (0.4, np.linspace(0.02, 0.44, 21), 0.3, 1024, 1024), {"order": 2}),
], ids=["quarter_sums", "bbar_mean", "rbar_rotated_mean",
        "quarter_sums-order1", "quarter_sums-order2"])
def test_working_set_below_8_mib(fn, args, kwargs):
    # One call at n = 1024 keeps its temporaries in cache-sized chunks.
    assert _peak_bytes(fn, *args, **kwargs) < 8 * 2**20
