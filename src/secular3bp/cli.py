"""Command-line driver: point queries, sweeps, validation, resonance curves.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 numerical
failure, 4 orbit crossing (single-point mode only).

The parser holds every default and every check.  Option precedence is CLI
flag > config file > built-in default: the config file's values become the
subcommand's parser defaults.  The file is a flat ``key = value`` text
format whose keys are CONFIG_KEYS, the long option names with underscores
(e.g. ``max_nodes = 2048``); lines starting with ``#`` are comments, and
a ``#`` anywhere else is part of the value.  Each value passes its flag's
check as the file is read, also where a flag overrides it or only another
subcommand reads it.
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


class InputError(Exception):
    pass


def _checked(cast, ok, what):
    """An argparse type: ``cast(text)``, refused unless ``ok`` holds for it."""
    def parse(text):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


def _split_range(text):
    lo, hi, n = text.split(":")
    return float(lo), float(hi), int(n)


def _positive(x):
    return x > 0.0 and math.isfinite(x)


def _unit(x):
    return 0.0 <= x < 1.0


def _window(end_ok):
    return lambda r: r[2] >= 1 and r[0] <= r[1] and end_ok(r[0]) and end_ok(r[1])


POSITIVE = _checked(float, _positive, "positive and finite")
UNIT = _checked(float, _unit, "in [0, 1)")
COUNT = _checked(int, lambda n: n >= 1, "at least 1")
NODES = _checked(int, lambda n: n >= N_START, f"at least {N_START}")
SEED = _checked(int, lambda n: n >= 0, "a non-negative integer")
A_RANGE = _checked(_split_range, _window(_positive),
                   "MIN:MAX:N with 0 < MIN <= MAX finite and N >= 1")
EJ_RANGE = _checked(_split_range, _window(_unit),
                    "MIN:MAX:N with 0 <= MIN <= MAX < 1 and N >= 1")
# Config key -> the argument type of its flag.
CONFIG_KEYS = {"mu": UNIT, "tol": POSITIVE, "max_nodes": NODES, "jobs": COUNT,
               "k": POSITIVE, "out": str, "points": COUNT, "seed": SEED}


def _read_config(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file: {exc}")
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](val.strip())
        except argparse.ArgumentTypeError as exc:
            raise InputError(f"{path}:{lineno}: {key} {exc}") from None
    return values


def _quad(args):
    return QuadratureSpec(tol=args.tol, max_n=args.max_nodes)


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
    if args.a is None or args.ej is None:
        raise InputError("point mode requires --a and --ej")
    cell = evaluate_cell(args.a, args.ej, args.mu, _quad(args))
    if args.json:
        print(json.dumps(_cell_json(cell), indent=2, sort_keys=True))
    else:
        _print_point_table(cell)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "point.json"), "w") as fh:
            json.dump(_cell_json(cell), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if cell.status == STATUS_ORBIT_CROSSING:
        return EXIT_CROSSING
    if cell.status in EQUILIBRIUM_STATUSES:
        if cell.stability is not None and \
                cell.stability.spatial_verdict == LINEARLY_STABLE:
            return EXIT_OK
    return EXIT_NUMERICAL


def _run_grid(args):
    """The swept grid of a sweep or resonance run."""
    if args.a_range is None or args.ej_range is None:
        raise InputError(f"{args.command} mode requires --a-range and --ej-range")
    return run_sweep(args.a_range, args.ej_range, mu=args.mu, quad=_quad(args),
                     jobs=args.jobs)


def cmd_sweep(args):
    grid = _run_grid(args)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    write_sweep_csv(grid, csv_path)
    write_metadata_json(grid, os.path.join(args.out, "sweep_meta.json"))
    n_found = len(grid.found_cells())
    print(f"sweep: {grid.n_a}x{grid.n_eJ} cells -> {csv_path} "
          f"({n_found} with equilibria)")
    return EXIT_OK


def cmd_validate(args):
    results, ok = run_validation(points=args.points, seed=args.seed,
                                 quad=_quad(args), inject=args.inject_fault)
    for res in results:
        print(res.line())
    print("validation", "PASSED" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_resonance(args):
    grid = _run_grid(args)
    points = trace_resonance(grid, k=args.k)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "resonance.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(resonance_csv_text(points))
    print(f"resonance k={args.k:g}: {len(points)} curve points -> {csv_path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="secular3bp",
        description="Doubly averaged restricted elliptic three-body problem: "
                    "planar equilibria and out-of-plane linear stability.",
        exit_on_error=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary, exit_on_error=False)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--config", help="flat key = value file of option "
                                        "defaults; a flag still wins")
        p.add_argument("--tol", type=POSITIVE, default=QuadratureSpec.tol,
                       help="quadrature relative tolerance (default %(default)g)")
        p.add_argument("--max-nodes", dest="max_nodes", type=NODES,
                       default=QuadratureSpec.max_n,
                       help="quadrature node cap per anomaly (default %(default)d)")
        return p

    p_point = command("point", cmd_point, "single (a, e_J) query")
    p_sweep = command("sweep", cmd_sweep, "parameter-plane sweep to CSV")
    p_val = command("validate", cmd_validate, "run the oracle checks")
    p_res = command("resonance", cmd_resonance, "trace a frequency-ratio curve")
    p_point.add_argument("--a", type=POSITIVE,
                         help="asteroid semi-major axis (a_J = 1 units)")
    p_point.add_argument("--ej", type=UNIT, help="planet eccentricity")
    p_point.add_argument("--json", action="store_true",
                         help="print machine-readable JSON instead of the table")
    p_point.add_argument("--out", help="also write point.json to this directory")

    for p in (p_point, p_sweep, p_res):
        p.add_argument("--mu", type=UNIT, default=0.0,
                       help="planet mass fraction (default %(default)g)")
    for p in (p_sweep, p_res):
        p.add_argument("--a-range", dest="a_range", type=A_RANGE,
                       help="asteroid semi-major axis grid MIN:MAX:N")
        p.add_argument("--ej-range", dest="ej_range", type=EJ_RANGE,
                       help="planet eccentricity grid MIN:MAX:N")
        p.add_argument("--jobs", type=COUNT, default=1,
                       help="worker processes (default %(default)d)")
        p.add_argument("--out", default=".",
                       help="output directory (default %(default)s)")
    p_res.add_argument("--k", type=POSITIVE, default=2.0,
                       help="target frequency ratio (default %(default)g)")
    p_val.add_argument("--points", type=COUNT, default=20,
                       help="number of random non-crossing samples "
                            "(default %(default)d)")
    p_val.add_argument("--seed", type=SEED, default=DEFAULT_SEED,
                       help="sample seed (default %(default)d)")
    p_val.add_argument("--inject-fault", dest="inject_fault", choices=["abar-sign"],
                       help="test mode: corrupt a value to prove detection")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args.parser.set_defaults(**_read_config(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, InputError) as exc:
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
