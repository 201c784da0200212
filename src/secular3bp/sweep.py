"""Parameter-plane sweeps with deterministic output.

A sweep evaluates the full pipeline (equilibrium -> spatial classification
-> frequencies) on a rectangular (a, e_J) grid.  Cells are independent and
may be dispatched to a process pool; results are assembled in row-major
cell order regardless of completion order, and every float is written with
shortest round-trip formatting, so identical inputs produce byte-identical
CSV no matter how many workers ran.

``evaluate_cell`` is the one code path from a parameter point to a cell
record; the point query, the sweep, resonance tracing and ``validate`` all
run it.  It maps the typed numerical failures (orbit crossing,
non-convergence) to cell statuses and lets any other exception, a defect,
propagate.  The sweep's worker isolates defects: it records one as
INTERNAL_ERROR "unexpected ..." so a single bad cell never aborts a sweep.
"""

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from ._version import __version__ as _pkg_version
from .averaging import (
    DEFAULT_SEPARATION_THRESHOLD,
    N_START,
    QuadratureSpec,
)
from .equilibrium import (
    _SAFE_SEPARATION,
    EQUILIBRIUM_STATUSES,
    STATUS_ORBIT_CROSSING,
    find_equilibrium,
)
from .errors import NonConvergedError, OrbitCrossingError
from .geometry import COINCIDENT_GAP, OrbitConfig, near_coincident
from .stability import LINEARLY_STABLE, classify_spatial

__all__ = [
    "CSV_COLUMNS",
    "CellResult",
    "SweepGrid",
    "evaluate_cell",
    "run_sweep",
    "sweep_csv_text",
    "write_sweep_csv",
    "write_metadata_json",
    "resonance_csv_text",
]

CSV_COLUMNS = (
    "a", "e_J", "status", "e_star", "Rbar", "Abar", "Bbar", "Cbar",
    "hess_pp", "hess_qq", "hess_pq", "omega_plane", "omega_z", "ratio",
    "err_R", "err_A", "err_C",
)

CSV_SCHEMA_VERSION = "1"

STATUS_NON_CONVERGED = "NON_CONVERGED"
STATUS_INTERNAL_ERROR = "INTERNAL_ERROR"


@dataclass(frozen=True, eq=False)
class CellResult:
    """Outcome of one (a, e_J) cell: a stability record or a typed failure."""

    a: float
    e_J: float
    status: str
    equilibrium: object = None
    stability: object = None
    message: str = ""

    def csv_row(self):
        eq, st = self.equilibrium, self.stability
        values = {"a": self.a, "e_J": self.e_J}
        if eq is not None:
            values["e_star"] = eq.e_star
            if eq.hessian is not None:
                hess = eq.hessian
                values.update(hess_pp=hess[0, 0], hess_qq=hess[1, 1],
                              hess_pq=hess[0, 1])
        if st is not None:
            coeffs = st.coefficients
            values.update(
                Rbar=coeffs.Rbar, Abar=coeffs.Abar, Bbar=coeffs.Bbar,
                Cbar=coeffs.Cbar, omega_plane=st.omega_plane,
                omega_z=st.omega_z, ratio=st.ratio, err_R=coeffs.err["Rbar"],
                err_A=coeffs.err["Abar"], err_C=coeffs.err["Cbar"])
        # One rule for every number: missing or non-finite is an empty field.
        fields = {name: _fmt(x) if math.isfinite(x) else ""
                  for name, x in values.items()}
        fields["status"] = self.status
        return ",".join(fields.get(name, "") for name in CSV_COLUMNS)


def _fmt(x):
    return repr(float(x))


@dataclass(eq=False)
class SweepGrid:
    """Rectangular (a, e_J) grid with per-cell results and sweep metadata."""

    a_min: float
    a_max: float
    n_a: int
    eJ_min: float
    eJ_max: float
    n_eJ: int
    mu: float
    quad: QuadratureSpec
    cells: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def a_values(self):
        return np.linspace(self.a_min, self.a_max, self.n_a)

    def eJ_values(self):
        return np.linspace(self.eJ_min, self.eJ_max, self.n_eJ)

    def ratio_array(self):
        """(n_a, n_eJ) array of frequency ratios, NaN where unavailable."""
        stabs = [c.stability for c in self.cells]
        ratios = [st.ratio if st is not None and math.isfinite(st.ratio)
                  else math.nan for st in stabs]
        return np.array(ratios).reshape(self.n_a, self.n_eJ)

    def found_cells(self):
        return [c for c in self.cells if c.status in EQUILIBRIUM_STATUSES]


def evaluate_cell(a, e_J, mu, quad: QuadratureSpec) -> CellResult:
    """Full pipeline at one parameter point, mapped to a typed cell result.

    Invalid parameters raise ValueError.  An orbit crossing, a
    non-converged quadrature or a spatial verdict other than
    LINEARLY_STABLE becomes the cell's status; any other exception is a
    defect and propagates (the sweep's worker records it).
    """
    cfg = OrbitConfig(a=a, e_J=e_J, mu=mu)
    try:
        eq = find_equilibrium(cfg, quad)
        if eq.status not in EQUILIBRIUM_STATUSES:
            return CellResult(a=a, e_J=e_J, status=eq.status,
                              equilibrium=eq, message=eq.message)
        stab = classify_spatial(cfg, eq, quad)
    except OrbitCrossingError as exc:
        return CellResult(a=a, e_J=e_J, status=STATUS_ORBIT_CROSSING,
                          message=str(exc))
    except NonConvergedError as exc:
        return CellResult(a=a, e_J=e_J, status=STATUS_NON_CONVERGED,
                          message=str(exc))
    verdict = stab.spatial_verdict
    status = eq.status if verdict == LINEARLY_STABLE else verdict
    return CellResult(a=a, e_J=e_J, status=status, equilibrium=eq,
                      stability=stab)


def _cell_worker(args):
    a, e_J, mu, quad = args
    try:
        return evaluate_cell(a, e_J, mu, quad)
    except Exception as exc:  # crash isolation: record, never poison the sweep
        return CellResult(a=a, e_J=e_J, status=STATUS_INTERNAL_ERROR,
                          message=f"unexpected {type(exc).__name__}: {exc}")


def run_sweep(a_range, eJ_range, mu=0.0, *, quad: QuadratureSpec,
              jobs=1) -> SweepGrid:
    """Populate a SweepGrid over a rectangular parameter window.

    Args:
        a_range: (a_min, a_max, n_a).
        eJ_range: (eJ_min, eJ_max, n_eJ).
        mu: Planet mass fraction.
        quad: Quadrature control.
        jobs: Requested process count, at least 1; at most one worker per
            cell is started, and one worker runs in-process.  Output is
            byte-identical for any worker count.

    Returns:
        SweepGrid with row-major cells and reproducibility metadata.

    Raises:
        ValueError: For an empty grid, jobs below 1, or a window corner
            outside the model's parameter domain.  Nothing has run then.
    """
    a_min, a_max, n_a = a_range
    eJ_min, eJ_max, n_eJ = eJ_range
    if n_a < 1 or n_eJ < 1:
        raise ValueError("grid needs at least one point per axis")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    # The worker records any exception as a cell, so a bad window is
    # refused here, before a cell runs.
    OrbitConfig(a=a_min, e_J=eJ_min, mu=mu)
    OrbitConfig(a=a_max, e_J=eJ_max, mu=mu)

    grid = SweepGrid(a_min=float(a_min), a_max=float(a_max), n_a=int(n_a),
                     eJ_min=float(eJ_min), eJ_max=float(eJ_max),
                     n_eJ=int(n_eJ), mu=float(mu), quad=quad)
    jobs_list = [
        (float(av), float(ev), float(mu), quad)
        for av in grid.a_values()
        for ev in grid.eJ_values()
    ]

    t0 = time.perf_counter()
    workers = min(jobs, len(jobs_list))
    if workers == 1:
        cells = [_cell_worker(j) for j in jobs_list]
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=workers) as pool:
            cells = pool.map(_cell_worker, jobs_list, chunksize=4)
    wall = time.perf_counter() - t0

    grid.cells = cells
    grid.metadata = {
        "schema": f"secular3bp-sweep-v{CSV_SCHEMA_VERSION}",
        "csv_columns": list(CSV_COLUMNS),
        "package_version": _pkg_version,
        "kernel_backend": kernels.BACKEND,
        "a_min": grid.a_min, "a_max": grid.a_max, "n_a": grid.n_a,
        "eJ_min": grid.eJ_min, "eJ_max": grid.eJ_max, "n_eJ": grid.n_eJ,
        "mu": grid.mu,
        "quad_n_ast": N_START, "quad_n_pl": N_START,
        "quad_tol": quad.tol, "quad_max_n": quad.max_n,
        "separation_threshold": DEFAULT_SEPARATION_THRESHOLD,
        # A cell is ORBIT_CROSSING when no scan point clears this margin,
        # scaled by max(1, a).
        "scan_separation_margin": _SAFE_SEPARATION,
        # Cells whose kernels run on the mapped grid, and the apsidal gap
        # that sets them (geometry.near_coincident).
        "coincident_gap": COINCIDENT_GAP,
        "mapped_cells": sum(near_coincident(a, e_J) is not None
                            for a, e_J, _, _ in jobs_list),
        "cell_order": "row-major (a outer, e_J inner)",
        "jobs": jobs,
        "wall_time_s": wall,
    }
    return grid


def sweep_csv_text(grid: SweepGrid) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(cell.csv_row() for cell in grid.cells)
    return "\n".join(lines) + "\n"


def write_sweep_csv(grid: SweepGrid, path):
    with open(path, "w", newline="") as fh:
        fh.write(sweep_csv_text(grid))


def write_metadata_json(grid: SweepGrid, path):
    with open(path, "w") as fh:
        json.dump(grid.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def resonance_csv_text(points) -> str:
    lines = ["a,e_J,ratio"]
    lines.extend(f"{_fmt(p.a)},{_fmt(p.e_J)},{_fmt(p.ratio)}" for p in points)
    return "\n".join(lines) + "\n"
