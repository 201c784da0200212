"""Seeded inputs, operations and correctness checks of the four workloads.

All load is a closed loop with one client: the next operation starts when
the previous one has returned.  Only ``sweep_wide`` uses a process pool,
with two workers.

* ``cells``: ``sweep.evaluate_cell`` at seeded points of the two
  acceptance windows, alternating inner and outer.  The ``point`` path and
  the bulk of the acceptance sweeps; about 90% of a cell is the
  equilibrium scan and refinement at a frozen node count of 128.
* ``sweep_wide``: ``run_sweep(jobs=2)`` plus CSV and metadata writing on a
  jittered 10x10 window that mixes FOUND, NO_ROOT (the circular-planet
  row) and ORBIT_CROSSING cells; its near-planet column needs 512-1024
  nodes, so kernel temporaries outgrow the L2 cache, the pool sees skewed
  cells and the typed-failure paths run.
* ``resonance``: the focus sweep of the acceptance tests, jittered by a
  fraction of a cell, then ``trace_resonance(k=2)``.  The only workload
  that re-runs the pipeline at neighbouring points sharing most of their
  work.
* ``coefficients``: ``averaged_coefficients`` at
  ``validate.sample_noncrossing_points`` triples.  The library path for
  Rbar/Abar/Bbar/Cbar; it runs no equilibrium search.
"""

import hashlib
import itertools
import os
import time
from functools import partial

import numpy as np

INNER_A = (0.05, 0.55)
OUTER_A = (1.8, 4.0)
EJ_RANGE = (0.05, 0.85)

# Window corners before jitter, and the largest jitter of each corner
# (a_min, a_max, eJ_min, eJ_max).  The jitter stays small against the cell
# spacing, so every seed keeps the same status mix and resonance edges.
# sweep_wide keeps its last column (a = 0.95) and its rows fixed: the
# near-planet cells change node count in steps, and moving a_max by 0.002
# moves the sweep's cost by 15%.  e_J = 0 is the circular-planet row.
SWEEP_WIDE = ((0.05, 0.95, 10), (0.0, 0.95, 10))
SWEEP_WIDE_JITTER = (0.004, 0.0, 0.0, 0.0)
# Status of the sweep_wide cells that have no equilibrium, by (a column,
# e_J row); every other cell is FOUND.  The bottom row is the circular
# planet.  In the top row (e_J = 0.95) the cells from a = 0.35 have no
# root, and the one next to the planet crosses its orbit.
SWEEP_WIDE_NO_EQUILIBRIUM = {
    **{(i, 0): "NO_ROOT" for i in range(10)},
    **{(i, 9): "NO_ROOT" for i in range(3, 9)},
    (9, 9): "ORBIT_CROSSING",
}
RESONANCE = ((0.45, 0.65, 5), (0.84, 0.90, 4))
RESONANCE_JITTER = (0.002, 0.002, 0.0008, 0.0008)
RESONANCE_K = 2.0
# Curve points that trace_resonance finds on every seed's window.
RESONANCE_MIN_POINTS = 7

# Cells per timed run; the run cycles through them if it outlasts them.
# One stratified pass (2 * 10 * 10 cells) is about one 20 s run.
CELL_POINTS = 2048
CELL_STRATA = 10

# Distinct coefficient triples per timed run.  About 1% of the triples
# sit near the separation floor and need 1024-2048 nodes (up to 1 s each);
# a large set keeps their share of the run about the same from seed to
# seed.  The peak RSS they set still depends on the seed (161 or 401 MB
# measured), which is why it stays off the result line.
COEFFICIENT_TRIPLES = 4096

# Fixed amount of work per traced run, so that its counters repeat exactly.
TRACED_CELLS = 32
TRACED_COEFFICIENTS = 512

# Statuses of a cell that has an equilibrium and a stability verdict.
EQUILIBRIUM = ("FOUND", "MULTIPLE_ROOTS")


class Tally:
    """Operation latencies, item counts and failures of one run."""

    def __init__(self):
        self.latencies = []
        self.items = 0
        self.failed = 0
        self.failures = []
        self.wall = 0.0

    def add(self, latency, problems_per_item):
        """Record one operation; one list of problems per item it produced."""
        self.latencies.append(latency)
        self.items += len(problems_per_item)
        for problems in problems_per_item:
            self.failed += bool(problems)
            self.failures.extend(problems)


# -- inputs ------------------------------------------------------------------

def cell_points(seed, n):
    """``n`` seeded (a, e_J) points, alternating inner and outer window.

    Stratified: each run of 2 * CELL_STRATA**2 points holds one point in
    every one of the CELL_STRATA x CELL_STRATA strata of both windows, in
    a seeded order, so the cost mix of a run changes little between seeds.
    """
    rng = np.random.default_rng(seed)
    k = CELL_STRATA
    points = []
    while len(points) < n:
        passes = []
        for lo, hi in (INNER_A, OUTER_A):
            strata = rng.permutation(k * k)
            u = rng.uniform(size=(k * k, 2))
            a = lo + (hi - lo) * (strata // k + u[:, 0]) / k
            e_J = EJ_RANGE[0] + (EJ_RANGE[1] - EJ_RANGE[0]) * (strata % k + u[:, 1]) / k
            passes.append(list(zip(a.tolist(), e_J.tolist())))
        points += [p for pair in zip(*passes) for p in pair]
    return points[:n]


def coefficient_points(validate, seed, n):
    return validate.sample_noncrossing_points(n, seed=seed)


def _jitter(window, amounts, rng):
    (a0, a1, na), (e0, e1, ne) = window
    shift = [float(d * u) for d, u in zip(amounts, rng.uniform(-1.0, 1.0, size=4))]
    return ((a0 + shift[0], a1 + shift[1], na), (e0 + shift[2], e1 + shift[3], ne))


def sweep_wide_window(seed):
    return _jitter(SWEEP_WIDE, SWEEP_WIDE_JITTER, np.random.default_rng(seed))


def resonance_window(seed):
    return _jitter(RESONANCE, RESONANCE_JITTER, np.random.default_rng(seed))


# -- correctness checks ------------------------------------------------------

def check_cell(cell, label, expected):
    """Problems with one cell result; an empty list when it is correct.

    ``expected`` holds the statuses the cell may have; a cell with an
    equilibrium must also pass the residual, Hessian and margin checks.
    """
    if cell.status not in expected:
        return [f"{label}: status {cell.status}, expected {'/'.join(expected)} "
                f"{cell.message}"]
    if cell.status not in EQUILIBRIUM:
        return []
    eq, st = cell.equilibrium, cell.stability
    problems = []
    if not eq.residual < 1e-11:
        problems.append(f"{label}: residual {eq.residual:.3e}")
    if not np.all(np.linalg.eigvalsh(eq.hessian) > 0.0):
        problems.append(f"{label}: planar Hessian not positive definite")
    c = st.coefficients
    if st.spatial_verdict != "LINEARLY_STABLE":
        problems.append(f"{label}: verdict {st.spatial_verdict}")
    elif not (c.Abar < -3.0 * c.err["Abar"] and c.Cbar < -3.0 * c.err["Cbar"]):
        problems.append(f"{label}: sign margins below 3x error")
    return problems


def check_coefficients(c, label):
    problems = []
    if not c.Abar < 0.0:
        problems.append(f"{label}: Abar {c.Abar}")
    if not c.Cbar < 0.0:
        problems.append(f"{label}: Cbar {c.Cbar}")
    if not abs(c.Bbar) < 1e-9:
        problems.append(f"{label}: |Bbar| {abs(c.Bbar):.3e}")
    if not all(np.isfinite(v) for v in c.err.values()):
        problems.append(f"{label}: non-finite error estimate {c.err}")
    return problems


def check_resonance(points, label):
    if len(points) < RESONANCE_MIN_POINTS:
        return [f"{label}: {len(points)} curve points, "
                f"expected at least {RESONANCE_MIN_POINTS}"]
    return [f"{label}: ratio {p.ratio!r} at ({p.a!r}, {p.e_J!r})"
            for p in points if not abs(p.ratio - RESONANCE_K) < 1e-3]


# -- operations --------------------------------------------------------------
#
# An operation is a callable that returns one list of problems per item it
# produced (one per cell of a sweep, else one): empty when the item is
# correct.  Each one looks its package function up at call time, so the
# tracer's wrappers are seen.

def _clock():
    return time.perf_counter()


def _attempt(label, fn, *args):
    """(result, problems) of one call; an exception is a failed operation."""
    try:
        return fn(*args), []
    except Exception as exc:  # counted in fail_share, never fatal to the run
        return None, [f"{label}: raised {type(exc).__name__}: {exc}"]


def sweep_op(pkg, window, jobs, out_dir):
    """One sweep with CSV and metadata written; returns (grid, csv path)."""
    sweep = pkg["sweep"]
    grid = sweep.run_sweep(window[0], window[1], mu=0.0,
                           quad=pkg["QuadratureSpec"](), jobs=jobs)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    sweep.write_sweep_csv(grid, csv_path)
    sweep.write_metadata_json(grid, os.path.join(out_dir, "sweep_meta.json"))
    return grid, csv_path


def resonance_op(pkg, window):
    """The focus sweep and its traced curve; returns (grid, points)."""
    grid = pkg["sweep"].run_sweep(window[0], window[1], mu=0.0,
                                  quad=pkg["QuadratureSpec"](), jobs=1)
    return grid, pkg["stability"].trace_resonance(grid, k=RESONANCE_K)


def _cell(pkg, quad, a, e_J):
    label = f"cell ({a!r}, {e_J!r})"
    cell, problems = _attempt(label, pkg["sweep"].evaluate_cell, a, e_J, 0.0, quad)
    return [problems or check_cell(cell, label, EQUILIBRIUM)]


def _coefficients(pkg, quad, cfg, e):
    label = f"coefficients ({cfg.a!r}, {e!r}, {cfg.e_J!r})"
    c, problems = _attempt(label, pkg["averaging"].averaged_coefficients, cfg, e, quad)
    return [problems or check_coefficients(c, label)]


def _resonance(pkg, window):
    """One item for the curve, then one per cell of the focus sweep."""
    label = f"resonance {window}"
    done, problems = _attempt(label, resonance_op, pkg, window)
    if problems:
        return [problems] * (1 + window[0][2] * window[1][2])
    grid, points = done
    return [check_resonance(points, label)] + [
        check_cell(c, f"resonance cell ({c.a!r}, {c.e_J!r})", EQUILIBRIUM)
        for c in grid.cells]


def _sweep_wide(pkg, window, jobs, out_dir):
    done, problems = _attempt(f"sweep {window}", sweep_op, pkg, window, jobs, out_dir)
    if problems:
        return [problems] * (window[0][2] * window[1][2])
    n_eJ = window[1][2]  # run_sweep orders the cells by a, then e_J
    return [check_cell(c, f"sweep cell ({c.a!r}, {c.e_J!r})",
                       _sweep_wide_expected(divmod(k, n_eJ)))
            for k, c in enumerate(done[0].cells)]


def _sweep_wide_expected(column_row):
    status = SWEEP_WIDE_NO_EQUILIBRIUM.get(column_row)
    return (status,) if status else EQUILIBRIUM


def operations(pkg, name, seed, out_dir, fixed):
    """The seeded operations of workload ``name``, inputs already built."""
    quad = pkg["QuadratureSpec"]()
    if name == "cells":
        points = cell_points(seed, TRACED_CELLS if fixed else CELL_POINTS)
        return [partial(_cell, pkg, quad, a, e_J) for a, e_J in points]
    if name == "coefficients":
        OrbitConfig = pkg["OrbitConfig"]
        triples = coefficient_points(pkg["validate"], seed,
                                     TRACED_COEFFICIENTS if fixed else COEFFICIENT_TRIPLES)
        return [partial(_coefficients, pkg, quad, OrbitConfig(a=a, e_J=eJ, mu=0.0), e)
                for a, e, eJ in triples]
    if name == "resonance":
        return [partial(_resonance, pkg, resonance_window(seed))]
    if name == "sweep_wide":
        # The traced run sweeps serially; its CSV must match the jobs=2 one.
        return [partial(_sweep_wide, pkg, sweep_wide_window(seed),
                        1 if fixed else 2, out_dir)]
    raise ValueError(f"unknown workload {name!r}")


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run(pkg, name, seed, out_dir, seconds):
    """Run workload ``name`` as a closed loop and return its Tally.

    The operations repeat in order until ``seconds`` have passed since the
    first one started.
    """
    ops = operations(pkg, name, seed, out_dir, fixed=False)
    tally = Tally()
    start = _clock()
    for k in itertools.count():
        t0 = _clock()
        problems = ops[k % len(ops)]()
        tally.add(_clock() - t0, problems)
        if _clock() - start >= seconds:
            break
    tally.wall = _clock() - start
    return tally
