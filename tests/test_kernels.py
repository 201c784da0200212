"""Row-reduced coefficient kernels: agreement with whole-grid references,
the per-node Abar-factor check, and the working set of one call."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    bbar_mean_reference,
    quarter_sums_reference,
    vbar_mean_reference,
)
from secular3bp import kernels
from secular3bp.averaging import _FLOORS, QuadratureSpec, averaged_coefficients
from secular3bp.geometry import OrbitConfig, aligned_separation, near_coincident
from secular3bp.validate import (
    DEFAULT_SEED,
    sample_coincident_points,
    sample_noncrossing_points,
)

# (a, e, eJ): inner, outer, and an inner orbit whose aligned separation
# from the planet's is about 5e-3.
NEAR_PLANET = (0.7, 0.707, 0.2)
TRIPLES = [(0.4, 0.17, 0.3), (2.5, 0.2, 0.4), NEAR_PLANET]
TRIPLE_IDS = ["inner", "outer", "near-planet"]
SIZES = [64, 128, 1024]
# A near-coincident inner cell: its kernels run on the mapped grid.
COINCIDENT = (0.95, 0.44, 0.42)


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
        # rbar_rotated_mean is the reference's spatial mean of w / r with
        # the planar rotation by g as its orientation matrix.
        for g in (0.0, 0.3, 2.0):
            cg, sg = math.cos(g), math.sin(g)
            got = kernels.rbar_rotated_mean(a, e, eJ, cg, sg, n, n)
            want = vbar_mean_reference(a, e, eJ, cg, -sg, sg, cg, 0.0, 0.0,
                                       n, n)
            assert all(type(v) is float for v in got)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_mapped_grid_matches_quarter_grid(order):
    # On near-coincident cells the mapped grid at n = 256 agrees with the
    # quarter grid at n = 1024 to the doubling's tolerance and floors.
    tol, floors = QuadratureSpec().tol, np.array(_FLOORS[order][:(3, 2, 6)[order]])
    for a, e, eJ in sample_coincident_points(12, seed=20261025):
        assert near_coincident(a, eJ) is not None
        got = kernels.quarter_sums(a, e, eJ, 256, 256, order=order)
        want = kernels._grid_sums(a, e, eJ, 1024, 1024, order, None)
        got, want = (np.array(v[:len(floors)]) for v in (got, want))
        bound = tol * np.maximum(np.abs(want), floors)
        assert np.all(np.abs(got - want) <= bound), (a, e, eJ, got - want)


class TestAbarFactorCheck:
    def test_negative_factor_is_internal_error(self, monkeypatch, quad):
        real = kernels.quarter_sums

        def negative_factor(*args, **kwargs):
            return real(*args, **kwargs)[:3] + (-1e-3,)

        monkeypatch.setattr(kernels, "quarter_sums", negative_factor)
        with pytest.raises(RuntimeError, match="^internal error: "):
            averaged_coefficients(OrbitConfig(a=0.4, e_J=0.3), 0.17, quad)

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_no_false_alarm(self, n):
        for a, e, eJ in (sample_noncrossing_points(64, DEFAULT_SEED)
                         + [NEAR_PLANET, COINCIDENT]
                         + sample_coincident_points(8, DEFAULT_SEED)):
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


CACHES = [kernels._planet_nodes, kernels._row_anomalies, kernels._mapped_nodes]


def _all_kernels(e):
    """Every kernel's output at a near-planet (a, eJ), as bytes, and
    quarter_sums' on the mapped grid of a near-coincident one."""
    a, _, eJ = NEAR_PLANET
    outs = [kernels.quarter_sums(a, e, eJ, 64, 64, order=order)
            for order in (0, 1, 2)]
    outs += [kernels.quarter_sums(COINCIDENT[0], e, COINCIDENT[2], 64, 64,
                                  order=order) for order in (0, 1, 2)]
    if np.ndim(e) == 0:
        outs.append((kernels.bbar_mean(a, e, eJ, 64, 64),))
        outs.append(kernels.rbar_rotated_mean(a, e, eJ, 0.6, 0.8, 64, 64))
    return [np.asarray(v).tobytes() for out in outs for v in out]


class TestNodeTableCache:
    def test_tables_are_read_only(self):
        tables = (*kernels._planet_nodes(64, np.pi, 0.3),
                  *kernels._row_anomalies(64, 2.0 * np.pi))
        assert all(not t.flags.writeable for t in tables)
        with pytest.raises(ValueError, match="read-only"):
            tables[0][0] = 1.0

    @pytest.mark.parametrize("e", [NEAR_PLANET[1], np.linspace(0.02, 0.75, 21)],
                             ids=["scalar", "batch-21"])
    def test_cold_and_warm_cache_give_the_same_bytes(self, e):
        for cache in CACHES:
            cache.cache_clear()
        cold = _all_kernels(e)
        assert all(cache.cache_info().currsize > 0 for cache in CACHES)
        warm = _all_kernels(e)
        assert all(cache.cache_info().hits > 0 for cache in CACHES)
        assert warm == cold

    def test_caches_are_bounded(self):
        for eJ in np.linspace(0.0, 0.9, 3 * kernels._TABLE_CACHE_SIZE):
            kernels.quarter_sums(0.4, 0.17, float(eJ), 16, 16)
            kernels.quarter_sums(COINCIDENT[0], 0.17, float(eJ), 16, 16)
        for cache in CACHES:
            info = cache.cache_info()
            assert info.maxsize == kernels._TABLE_CACHE_SIZE
            assert info.currsize <= info.maxsize

    def test_mapped_tables_are_read_only(self):
        a, e, eJ = COINCIDENT
        kernels.quarter_sums(a, e, eJ, 64, 64)
        table = kernels._mapped_nodes(near_coincident(a, eJ), eJ, 32, 128,
                                      0, 32)
        assert table.shape == (5, 32, 128) and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 1.0

    def test_mapped_cache_holds_a_cell(self):
        # A mapped cell's doubling visits levels 16 to 1024: every row
        # chunk's table stays cached, and none is above one chunk's nodes.
        a, e, eJ = COINCIDENT
        lam, levels = near_coincident(a, eJ), [16 << k for k in range(7)]
        kernels._mapped_nodes.cache_clear()
        for n in levels:
            kernels.quarter_sums(a, e, eJ, n, n, order=1)
        built = kernels._mapped_nodes.cache_info().misses
        assert built <= kernels._TABLE_CACHE_SIZE
        for n in levels:
            for (_, rb), _ in kernels._row_blocks(1, n // 2, 2 * n, 0):
                table = kernels._mapped_nodes(lam, eJ, n // 2, 2 * n,
                                              rb.start, rb.stop)
                assert table.nbytes <= 5 * 8 * kernels._CHUNK_NODES
        assert kernels._mapped_nodes.cache_info().misses == built
