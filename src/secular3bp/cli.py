"""Command-line driver: point queries, sweeps, validation, resonance curves.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 numerical
failure, 4 orbit crossing (single-point mode only).

Option precedence is CLI flag > config file > built-in default.  The config
file is a flat ``key = value`` text format using the long option names with
underscores (e.g. ``max_nodes = 2048``); lines starting with ``#`` are
comments.
"""

import argparse
import json
import math
import os
import sys

from ._version import __version__
from .averaging import N_START, QuadratureSpec
from .equilibrium import EQUILIBRIUM_STATUSES, STATUS_ORBIT_CROSSING
from .errors import OrbitCrossingError, Secular3bpError
from .sweep import (
    evaluate_cell,
    resonance_csv_text,
    run_sweep,
    write_metadata_json,
    write_sweep_csv,
)
from .stability import LINEARLY_STABLE, trace_resonance
from .validate import DEFAULT_SEED, run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CROSSING = 4

_DEFAULTS = {
    "mu": 0.0,
    "tol": QuadratureSpec.tol,
    "max_nodes": QuadratureSpec.max_n,
    "jobs": 1,
    "k": 2.0,
    "out": ".",
    "points": 20,
    "seed": DEFAULT_SEED,
}


class InputError(Exception):
    pass


def _parse_range(text, name):
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise InputError(f"--{name} must be MIN:MAX:N, got {text!r}")
    if n < 1:
        raise InputError(f"--{name}: N must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"--{name}: MIN and MAX must be finite")
    if not (lo <= hi):
        raise InputError(f"--{name}: need MIN <= MAX")
    return lo, hi, n


def _read_config(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve(args, key, cast):
    """CLI flag > config file > built-in default."""
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    config = getattr(args, "_config_values", {})
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise InputError(f"config value for {key!r} is not valid: "
                             f"{config[key]!r}")
    return _DEFAULTS.get(key)


def _quad_from(args):
    tol = _resolve(args, "tol", float)
    max_nodes = _resolve(args, "max_nodes", int)
    if not (tol > 0 and math.isfinite(tol)):
        raise InputError(f"--tol must be positive and finite, got {tol}")
    if max_nodes < N_START:
        raise InputError(f"--max-nodes must be >= {N_START}, got {max_nodes}")
    return QuadratureSpec(tol=tol, max_n=max_nodes)


def _validate_params(a, ej, mu):
    if a is None or ej is None:
        raise InputError("point mode requires --a and --ej")
    if not (a > 0 and math.isfinite(a)):
        raise InputError(f"--a must be positive, got {a}")
    if not (0.0 <= ej < 1.0):
        raise InputError(f"--ej must be in [0, 1), got {ej}")
    if not (0.0 <= mu < 1.0):
        raise InputError(f"--mu must be in [0, 1), got {mu}")


def _cell_json(cell):
    eq, st = cell.equilibrium, cell.stability
    doc = {
        "a": cell.a,
        "e_J": cell.e_J,
        "status": cell.status,
        "message": cell.message,
    }
    if eq is not None and math.isfinite(eq.e_star):
        doc["e_star"] = eq.e_star
        doc["residual"] = eq.residual
        doc["hessian"] = [[eq.hessian[0, 0], eq.hessian[0, 1]],
                          [eq.hessian[1, 0], eq.hessian[1, 1]]]
        doc["hessian_definite"] = eq.hessian_definite
        doc["all_roots"] = list(eq.all_roots)
    if st is not None:
        doc["verdict"] = st.spatial_verdict
        doc["Abar"] = st.coefficients.Abar
        doc["Cbar"] = st.coefficients.Cbar
        doc["Rbar"] = st.coefficients.Rbar
        doc["Bbar"] = st.coefficients.Bbar
        doc["err"] = st.coefficients.err
        if math.isfinite(st.ratio):
            doc["omega_plane_over_mu"] = st.omega_plane
            doc["omega_z_over_mu"] = st.omega_z
            doc["ratio"] = st.ratio
    return doc


def _print_point_table(cell):
    eq, st = cell.equilibrium, cell.stability
    rows = [("status", cell.status)]
    if eq is not None and math.isfinite(eq.e_star):
        rows.append(("e_star", f"{eq.e_star:.12f}"))
        rows.append(("residual |dRbar/de|", f"{eq.residual:.3e}"))
        rows.append(("hessian_definite", eq.hessian_definite))
        rows.append(("hess (pp, qq, pq)",
                     f"{eq.hessian[0, 0]:.9f}, {eq.hessian[1, 1]:.9f}, "
                     f"{eq.hessian[0, 1]:.2e}"))
    if st is not None:
        coeffs = st.coefficients
        rows.append(("Rbar", f"{coeffs.Rbar:.12f} (err {coeffs.err['Rbar']:.1e})"))
        rows.append(("Abar", f"{coeffs.Abar:.12f} (err {coeffs.err['Abar']:.1e})"))
        rows.append(("Bbar", f"{coeffs.Bbar:.3e} (err {coeffs.err['Bbar']:.1e})"))
        rows.append(("Cbar", f"{coeffs.Cbar:.12f} (err {coeffs.err['Cbar']:.1e})"))
        rows.append(("spatial verdict", st.spatial_verdict))
        if math.isfinite(st.ratio):
            rows.append(("omega_plane / mu", f"{st.omega_plane:.9f}"))
            rows.append(("omega_z / mu", f"{st.omega_z:.9f}"))
            rows.append(("omega_z / omega_plane", f"{st.ratio:.9f}"))
    if cell.message:
        rows.append(("note", cell.message))
    print(f"point  a={cell.a:g}  e_J={cell.e_J:g}")
    for key, val in rows:
        print(f"  {key:<22s} {val}")


def cmd_point(args):
    mu = _resolve(args, "mu", float)
    _validate_params(args.a, args.ej, mu)
    quad = _quad_from(args)
    cell = evaluate_cell(args.a, args.ej, mu, quad)
    if args.json:
        print(json.dumps(_cell_json(cell), indent=2, sort_keys=True))
    else:
        _print_point_table(cell)
    out = getattr(args, "out", None)
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "point.json"), "w") as fh:
            json.dump(_cell_json(cell), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if cell.status == STATUS_ORBIT_CROSSING:
        return EXIT_CROSSING
    if cell.status in EQUILIBRIUM_STATUSES:
        if cell.stability is not None and \
                cell.stability.spatial_verdict == LINEARLY_STABLE:
            return EXIT_OK
    return EXIT_NUMERICAL


def _grid_inputs(args, mode):
    """The checked (a_range, ej_range, mu) of a sweep or resonance run."""
    if args.a_range is None or args.ej_range is None:
        raise InputError(f"{mode} mode requires --a-range and --ej-range")
    a_range = _parse_range(args.a_range, "a-range")
    ej_range = _parse_range(args.ej_range, "ej-range")
    mu = _resolve(args, "mu", float)
    if not (0.0 <= ej_range[0] and ej_range[1] < 1.0):
        raise InputError("--ej-range must stay inside [0, 1)")
    if a_range[0] <= 0.0:
        raise InputError("--a-range must be positive")
    if not (0.0 <= mu < 1.0):
        raise InputError(f"--mu must be in [0, 1), got {mu}")
    return a_range, ej_range, mu


def cmd_sweep(args):
    a_range, ej_range, mu = _grid_inputs(args, "sweep")
    quad = _quad_from(args)
    jobs = _resolve(args, "jobs", int)
    out = _resolve(args, "out", str)
    grid = run_sweep(a_range, ej_range, mu=mu, quad=quad, jobs=jobs)
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "sweep.csv")
    write_sweep_csv(grid, csv_path)
    write_metadata_json(grid, os.path.join(out, "sweep_meta.json"))
    n_found = len(grid.found_cells())
    print(f"sweep: {grid.n_a}x{grid.n_eJ} cells -> {csv_path} "
          f"({n_found} with equilibria)")
    return EXIT_OK


def cmd_validate(args):
    points = _resolve(args, "points", int)
    if points == 0:
        raise InputError("empty validation refused (--points must be >= 1)")
    if points < 0:
        raise InputError(f"--points must be >= 1, got {points}")
    seed = _resolve(args, "seed", int)
    quad = _quad_from(args)
    results, ok = run_validation(points=points, seed=seed, quad=quad,
                                 inject=args.inject_fault)
    for res in results:
        print(res.line())
    print("validation", "PASSED" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_resonance(args):
    a_range, ej_range, mu = _grid_inputs(args, "resonance")
    quad = _quad_from(args)
    jobs = _resolve(args, "jobs", int)
    k = _resolve(args, "k", float)
    out = _resolve(args, "out", str)
    if not (k > 0 and math.isfinite(k)):
        raise InputError(f"--k must be positive and finite, got {k}")
    grid = run_sweep(a_range, ej_range, mu=mu, quad=quad, jobs=jobs)
    points = trace_resonance(grid, k=k)
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "resonance.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(resonance_csv_text(points))
    print(f"resonance k={k:g}: {len(points)} curve points -> {csv_path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="secular3bp",
        description="Doubly averaged restricted elliptic three-body problem: "
                    "planar equilibria and out-of-plane linear stability.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ranges=False, point=False, jobs=False, k=False):
        p.add_argument("--mu", type=float, default=None,
                       help="planet mass fraction (default 0)")
        p.add_argument("--tol", type=float, default=None,
                       help="quadrature relative tolerance "
                            f"(default {QuadratureSpec.tol:g})")
        p.add_argument("--max-nodes", type=int, default=None, dest="max_nodes",
                       help="quadrature node cap per anomaly "
                            f"(default {QuadratureSpec.max_n})")
        p.add_argument("--config", type=str, default=None,
                       help="flat key = value config file")
        p.add_argument("--out", type=str, default=None,
                       help="output directory")
        if ranges:
            p.add_argument("--a-range", type=str, default=None, dest="a_range",
                           help="asteroid semi-major axis grid MIN:MAX:N")
            p.add_argument("--ej-range", type=str, default=None, dest="ej_range",
                           help="planet eccentricity grid MIN:MAX:N")
        if point:
            p.add_argument("--a", type=float, default=None,
                           help="asteroid semi-major axis (a_J = 1 units)")
            p.add_argument("--ej", type=float, default=None,
                           help="planet eccentricity")
        if jobs:
            p.add_argument("--jobs", type=int, default=None,
                           help="worker processes (default 1)")
        if k:
            p.add_argument("--k", type=float, default=None,
                           help="target frequency ratio (default 2)")

    p_point = sub.add_parser("point", help="single (a, e_J) query")
    common(p_point, point=True)
    p_point.add_argument("--json", action="store_true",
                         help="print machine-readable JSON instead of the table")
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="parameter-plane sweep to CSV")
    common(p_sweep, ranges=True, jobs=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the oracle checks")
    common(p_val)
    p_val.add_argument("--points", type=int, default=None,
                       help="number of random non-crossing samples (default 20)")
    p_val.add_argument("--seed", type=int, default=None,
                       help="sample seed (default fixed)")
    p_val.add_argument("--inject-fault", type=str, default=None,
                       dest="inject_fault", choices=["abar-sign"],
                       help="test mode: corrupt a value to prove detection")
    p_val.set_defaults(func=cmd_validate)

    p_res = sub.add_parser("resonance", help="trace a frequency-ratio curve")
    common(p_res, ranges=True, jobs=True, k=True)
    p_res.set_defaults(func=cmd_resonance)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = getattr(args, "config", None)
        args._config_values = _read_config(config_path) if config_path else {}
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OrbitCrossingError as exc:
        print(f"orbit crossing: {exc}", file=sys.stderr)
        return EXIT_CROSSING
    except Secular3bpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
