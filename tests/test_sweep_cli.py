import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from secular3bp import sweep
from secular3bp.averaging import N_START, QuadratureSpec
from secular3bp.cli import main
from secular3bp.stability import _PARAM_TOL, point_ratio, trace_resonance
from secular3bp.sweep import (
    CSV_COLUMNS,
    evaluate_cell,
    run_sweep,
    sweep_csv_text,
    write_metadata_json,
    write_sweep_csv,
)

DATA = pathlib.Path(__file__).parent / "data"
# Stored sweep.csv files and the windows that made them.  Each file is
# rebuilt byte for byte by the command beside it.
GOLDEN_WINDOWS = {
    # secular3bp sweep --a-range 0.05:0.95:10 --ej-range 0:0.95:10
    "golden_wide_10x10": ((0.05, 0.95, 10), (0.0, 0.95, 10)),
    # secular3bp sweep --a-range 0.85:0.97:7 --ej-range 0.1:0.9:5
    "golden_near_planet": ((0.85, 0.97, 7), (0.1, 0.9, 5)),
}

HEADER = ("a,e_J,status,e_star,Rbar,Abar,Bbar,Cbar,hess_pp,hess_qq,hess_pq,"
          "omega_plane,omega_z,ratio,err_R,err_A,err_C")


class TestSweep:
    def test_crossing_region_grid(self, quad):
        # Near a = 1 the non-crossing eccentricity sliver is thinner than
        # the separation floor, so every cell is a crossing cell.
        grid = run_sweep((0.9995, 1.0005, 2), (0.1, 0.2, 2), quad=quad)
        assert len(grid.cells) == 4
        assert all(c.status == "ORBIT_CROSSING" for c in grid.cells)
        rows = sweep_csv_text(grid).strip().split("\n")
        assert rows[0] == HEADER
        assert len(rows) == 5
        for row in rows[1:]:
            assert row.split(",")[2] == "ORBIT_CROSSING"

    def test_csv_header_exact(self):
        assert ",".join(CSV_COLUMNS) == HEADER

    def test_worker_count_determinism(self, quad):
        grid1 = run_sweep((0.1, 0.5, 3), (0.1, 0.5, 3), quad=quad, jobs=1)
        grid2 = run_sweep((0.1, 0.5, 3), (0.1, 0.5, 3), quad=quad, jobs=2)
        assert sweep_csv_text(grid1) == sweep_csv_text(grid2)

    def test_metadata_counts_mapped_cells(self, quad):
        # The a = 0.95 column is near-coincident and runs on the mapped
        # grid; the count and the threshold do not depend on --jobs.
        grids = [run_sweep((0.3, 0.95, 2), (0.2, 0.5, 2), quad=quad, jobs=jobs)
                 for jobs in (1, 2)]
        for grid in grids:
            assert grid.metadata["mapped_cells"] == 2
            assert grid.metadata["coincident_gap"] == 0.075
        assert sweep_csv_text(grids[0]) == sweep_csv_text(grids[1])

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused(self, jobs, quad):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep((0.9995, 1.0005, 2), (0.1, 0.2, 2), quad=quad, jobs=jobs)

    def test_pool_capped_at_cell_count(self, quad, monkeypatch):
        # A stand-in pool records the worker count it is asked for and maps
        # in-process, so no real processes start.
        import multiprocessing

        requested = []

        class FakePool:
            def __init__(self, processes):
                requested.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, iterable, chunksize=1):
                return [func(item) for item in iterable]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        window = ((0.9995, 1.0005, 2), (0.1, 0.2, 2))
        grid = run_sweep(*window, quad=quad, jobs=64)
        assert requested == [4]
        assert grid.metadata["jobs"] == 64
        assert sweep_csv_text(grid) == sweep_csv_text(
            run_sweep(*window, quad=quad, jobs=1))
        run_sweep((0.9995, 0.9995, 1), (0.1, 0.1, 1), quad=quad, jobs=64)
        assert requested == [4]  # one cell runs in-process

    def test_csv_round_trip(self, quad, tmp_path):
        grid = run_sweep((0.2, 0.4, 2), (0.2, 0.3, 2), quad=quad)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(grid, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == HEADER
        row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert row["status"] == "FOUND"
        # shortest-repr floats must round-trip exactly
        cell = grid.cells[0]
        assert float(row["e_star"]) == cell.equilibrium.e_star
        assert float(row["Abar"]) == cell.stability.coefficients.Abar
        assert float(row["ratio"]) == cell.stability.ratio

    def test_csv_row_without_frequencies(self, quad):
        # A stability record with NaN frequencies, the shape of an
        # INCONCLUSIVE cell: the coefficients and their errors are written,
        # the frequencies and the ratio are empty fields.
        cell = evaluate_cell(0.4, 0.3, 0.0, quad)
        st = dataclasses.replace(cell.stability, spatial_verdict="INCONCLUSIVE",
                                 omega_plane=math.nan, omega_z=math.nan,
                                 ratio=math.nan)
        cell = dataclasses.replace(cell, status="INCONCLUSIVE", stability=st)
        row = dict(zip(CSV_COLUMNS, cell.csv_row().split(",")))
        assert row["status"] == "INCONCLUSIVE"
        coeffs = st.coefficients
        for name, value in (("Rbar", coeffs.Rbar), ("Abar", coeffs.Abar),
                            ("Bbar", coeffs.Bbar), ("Cbar", coeffs.Cbar),
                            ("err_R", coeffs.err["Rbar"]),
                            ("err_A", coeffs.err["Abar"]),
                            ("err_C", coeffs.err["Cbar"])):
            assert float(row[name]) == value
        assert row["omega_plane"] == row["omega_z"] == row["ratio"] == ""

    def test_metadata_sidecar(self, quad, tmp_path):
        grid = run_sweep((0.2, 0.2, 1), (0.2, 0.2, 1), quad=quad)
        path = tmp_path / "meta.json"
        write_metadata_json(grid, path)
        meta = json.loads(path.read_text())
        assert meta["quad_tol"] == quad.tol
        assert meta["quad_max_n"] == quad.max_n
        assert meta["separation_threshold"] == 1e-3
        assert meta["scan_separation_margin"] == 4e-3
        assert meta["n_a"] == 1 and meta["n_eJ"] == 1
        assert "wall_time_s" in meta

    def test_failure_isolation(self, quad):
        # A column straddling a = 1: crossing cells must not poison the rest.
        grid = run_sweep((0.9, 1.1, 3), (0.3, 0.3, 1), quad=quad)
        statuses = [c.status for c in grid.cells]
        assert statuses[1] == "ORBIT_CROSSING"
        assert len(grid.cells) == 3

    def test_defect_isolated_by_worker_only(self, quad, monkeypatch):
        # A defect (an exception that is not a typed failure) propagates
        # out of the one cell path; only the sweep's worker records it.
        def defect(*args):
            raise RuntimeError("planted defect")

        monkeypatch.setattr(sweep, "classify_spatial", defect)
        with pytest.raises(RuntimeError, match="planted defect"):
            evaluate_cell(0.4, 0.3, 0.0, quad)
        with pytest.raises(RuntimeError, match="planted defect"):
            point_ratio(0.4, 0.3, 0.0, quad)
        [cell] = run_sweep((0.4, 0.4, 1), (0.3, 0.3, 1), quad=quad, jobs=1).cells
        assert cell.status == "NON_CONVERGED"
        assert cell.message.startswith("unexpected RuntimeError")

        # The worker records every exception, so a window outside the
        # parameter domain is refused before any cell runs.
        calls = []
        monkeypatch.setattr(sweep, "find_equilibrium",
                            lambda *args: calls.append(args))
        for a_min in (-1.0, 0.0):
            with pytest.raises(ValueError, match="semi-major axis"):
                run_sweep((a_min, 0.4, 3), (0.3, 0.3, 1), quad=quad, jobs=1)
        assert calls == []

    @pytest.mark.parametrize("name", sorted(GOLDEN_WINDOWS))
    def test_golden_window_equivalence(self, quad, name):
        # A window against its stored sweep.csv, under the refactor
        # equivalence rule: same statuses and empty cells, e_star and the
        # Hessian to 1e-9 relative, Rbar/Abar/Cbar within 3x their reported
        # error.  The 10x10 window holds NO_ROOT, FOUND and ORBIT_CROSSING
        # cells; the near-planet one freezes at n = 128-1024.  A change that
        # moves these numbers regenerates the file.
        golden = [line.split(",") for line in
                  (DATA / f"{name}.csv").read_text().strip().split("\n")]
        a_range, ej_range = GOLDEN_WINDOWS[name]
        grid = run_sweep(a_range, ej_range, quad=quad)
        rows = [row.split(",") for row in sweep_csv_text(grid).strip().split("\n")]
        assert rows[0] == golden[0]
        assert len(rows) == len(golden) == a_range[2] * ej_range[2] + 1
        col = {name: k for k, name in enumerate(CSV_COLUMNS)}
        eps = np.finfo(float).eps
        for got, want in zip(rows[1:], golden[1:]):
            cell = f"{name}.csv cell (a, e_J) = ({want[0]}, {want[1]})"
            assert got[:3] == want[:3], f"{cell}: {got[:3]} != {want[:3]}"
            assert [x == "" for x in got] == [x == "" for x in want], (
                f"{cell}: empty fields differ")
            for column in ("e_star", "hess_pp", "hess_qq", "hess_pq"):
                if want[col[column]]:
                    value, moved = float(want[col[column]]), float(got[col[column]])
                    move = moved - value
                    assert math.isclose(moved, value, rel_tol=1e-9), (
                        f"{cell} {column}: moved {move:.3e}, bound 1e-9 "
                        f"relative ({1e-9 * abs(value):.3e})")
            for column, err in (("Rbar", "err_R"), ("Abar", "err_A"),
                                ("Cbar", "err_C")):
                if want[col[column]]:
                    value = float(want[col[column]])
                    bound = 3.0 * max(float(want[col[err]]), 4.0 * eps * abs(value))
                    move = float(got[col[column]]) - value
                    assert abs(move) <= bound, (
                        f"{cell} {column}: moved {move:.3e}, bound {bound:.3e}")

    def test_golden_resonance_trace(self, quad):
        # The k = 2 trace of a focus window against its stored resonance.csv,
        # rebuilt byte for byte by
        #   secular3bp resonance --a-range 0.45:0.65:8 --ej-range 0.84:0.92:6 --k 2
        # Its points lie on both kinds of edge.  Each keeps its grid
        # coordinate exactly and its solved one within _PARAM_TOL.
        golden = [tuple(map(float, line.split(","))) for line in
                  (DATA / "golden_focus_resonance.csv").read_text()
                  .strip().split("\n")[1:]]
        grid = run_sweep((0.45, 0.65, 8), (0.84, 0.92, 6), quad=quad)
        points = trace_resonance(grid, k=2.0)
        assert len(points) == len(golden) == 11
        a_grid, eJ_grid = grid.a_values().tolist(), grid.eJ_values().tolist()
        kinds = set()
        for p, (a, e_J, _ratio) in zip(points, golden):
            if e_J in eJ_grid:  # on an edge to the next a
                kinds.add("a")
                assert p.e_J == e_J and abs(p.a - a) <= _PARAM_TOL
            else:
                kinds.add("e_J")
                assert a in a_grid
                assert p.a == a and abs(p.e_J - e_J) <= _PARAM_TOL
        assert kinds == {"a", "e_J"}

    def test_evaluate_cell_smoke(self, quad):
        cell = evaluate_cell(0.4, 0.3, 0.0, quad)
        assert cell.status == "FOUND"
        assert cell.stability.spatial_verdict == "LINEARLY_STABLE"
        assert cell.equilibrium.residual < 1e-11


class TestPointCommand:
    def test_stable_point_exit_zero(self, capsys):
        code = main(["point", "--a", "0.4", "--ej", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "LINEARLY_STABLE" in out
        assert "e_star" in out

    def test_crossing_exit_four(self, capsys):
        assert main(["point", "--a", "1.0", "--ej", "0.3"]) == 4

    def test_invalid_eccentricity_exit_two(self, capsys):
        assert main(["point", "--a", "0.4", "--ej", "1.2"]) == 2

    def test_missing_argument_exit_two(self, capsys):
        assert main(["point", "--a", "0.4"]) == 2

    def test_json_output(self, capsys):
        code = main(["point", "--a", "0.4", "--ej", "0.3", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "FOUND"
        assert doc["verdict"] == "LINEARLY_STABLE"
        assert doc["Abar"] < 0.0 and doc["Cbar"] < 0.0
        assert math.isfinite(doc["ratio"])

    def test_point_json_file(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        code = main(["point", "--a", "0.4", "--ej", "0.3", "--out", out])
        assert code == 0
        doc = json.loads((tmp_path / "res" / "point.json").read_text())
        assert doc["e_star"] == pytest.approx(0.1575, abs=1e-3)

    def test_no_root_exit_three(self, capsys):
        assert main(["point", "--a", "0.3", "--ej", "0.0"]) == 3


class TestSweepCommand:
    def test_sweep_writes_files(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        code = main(["sweep", "--a-range", "0.2:0.4:2",
                     "--ej-range", "0.2:0.3:2", "--out", out])
        assert code == 0
        csv_lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().split("\n")
        assert csv_lines[0] == HEADER
        assert len(csv_lines) == 5
        meta = json.loads((tmp_path / "sw" / "sweep_meta.json").read_text())
        assert meta["csv_columns"] == list(CSV_COLUMNS)

    def test_max_nodes_floor_is_n_start(self, tmp_path, capsys):
        # The --max-nodes floor follows the doubling's start level.
        window = ["--a-range", "0.9995:0.9995:1", "--ej-range", "0.1:0.1:1"]
        out = tmp_path / "sw"
        assert main(["sweep", *window, "--max-nodes", str(N_START),
                     "--out", str(out)]) == 0
        meta = json.loads((out / "sweep_meta.json").read_text())
        assert meta["quad_max_n"] == N_START
        capsys.readouterr()
        assert main(["sweep", *window, "--max-nodes", str(N_START - 1),
                     "--out", str(tmp_path / "low")]) == 2
        assert f"at least {N_START}" in capsys.readouterr().err
        assert not (tmp_path / "low").exists()

    def test_bad_range_exit_two(self, capsys):
        assert main(["sweep", "--a-range", "0.2:0.4", "--ej-range",
                     "0.2:0.3:2", "--out", "/tmp/x"]) == 2

    def test_ej_range_validation(self, capsys):
        assert main(["sweep", "--a-range", "0.2:0.4:2", "--ej-range",
                     "0.2:1.5:2", "--out", "/tmp/x"]) == 2


class TestValidateCommand:
    def test_small_run_passes(self, capsys):
        assert main(["validate", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "validation PASSED" in out

    def test_fault_injection_detected(self, capsys):
        assert main(["validate", "--points", "2",
                     "--inject-fault", "abar-sign"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "spatial-hessian" in out

    def test_zero_points_refused(self, capsys):
        assert main(["validate", "--points", "0"]) == 2

    @pytest.mark.parametrize("option", [["--mu", "0.5"], ["--out", "."]])
    def test_unread_options_refused(self, option, capsys):
        # validate reads neither mu nor an output directory, so neither flag
        # exists: argparse refuses it with its usage error.
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--points", "1"] + option)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestResonanceCommand:
    def test_empty_curve_ok(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        # ratio stays ~1 here, far from k = 2: empty curve, exit 0.
        code = main(["resonance", "--a-range", "0.2:0.3:2",
                     "--ej-range", "0.2:0.3:2", "--k", "2", "--out", out])
        assert code == 0
        text = (tmp_path / "res" / "resonance.csv").read_text()
        assert text == "a,e_J,ratio\n"


class TestGridInputChecks:
    @pytest.mark.parametrize("argv", [
        ["resonance", "--a-range", "0.2:0.3:2", "--ej-range", "0.1:1.5:2"],
        ["resonance", "--a-range=-0.5:0.5:2", "--ej-range", "0.2:0.3:2"],
        ["sweep", "--a-range", "0.2:0.3:2", "--ej-range", "0.2:0.3:2",
         "--mu", "1.5"],
        ["resonance", "--a-range", "0.2:0.3:2", "--ej-range", "0.2:0.3:2",
         "--mu", "1.5"],
        ["sweep", "--a-range", "0.4:inf:2", "--ej-range", "0.2:0.3:2"],
        ["resonance", "--a-range", "0.4:inf:2", "--ej-range", "0.2:0.3:2"],
        ["resonance", "--a-range", "0.4:0.5:2", "--ej-range", "0.2:0.3:2",
         "--k", "nan"],
        ["resonance", "--a-range", "0.4:0.5:2", "--ej-range", "0.2:0.3:2",
         "--k", "inf"],
        ["sweep", "--a-range", "0.4:0.5:2", "--ej-range", "0.2:0.3:2",
         "--tol", "nan"],
        ["sweep", "--a-range", "0.4:0.5:2", "--ej-range", "0.2:0.3:2",
         "--tol", "inf"],
        ["sweep", "--a-range", "0.2:0.2:1", "--ej-range", "0.2:0.2:1",
         "--jobs", "0"],
        ["sweep", "--a-range", "0.2:0.2:1", "--ej-range", "0.2:0.2:1",
         "--jobs", "-3"],
        ["resonance", "--a-range", "0.2:0.2:1", "--ej-range", "0.2:0.2:1",
         "--jobs", "0"],
        ["resonance", "--a-range", "0.2:0.2:1", "--ej-range", "0.2:0.2:1",
         "--jobs", "-3"],
    ])
    def test_bad_window_or_mu_exit_two(self, argv, tmp_path, capsys):
        # Both grid commands check their window, mu, tol and k before any
        # work, so a bad or non-finite value is an input error and no CSV
        # is written.
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


SWEEP_ONE = ["sweep", "--a-range", "0.2:0.2:1", "--ej-range", "0.2:0.2:1"]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# sweep settings\nmax_nodes = 2048\nmu = 0.0\n")
        out = str(tmp_path / "out")
        code = main(["sweep", "--a-range", "0.2:0.2:1", "--ej-range",
                     "0.2:0.2:1", "--config", str(cfg_file), "--out", out])
        assert code == 0
        meta = json.loads((tmp_path / "out" / "sweep_meta.json").read_text())
        assert meta["quad_max_n"] == 2048

    def test_cli_overrides_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("max_nodes = 2048\n")
        out = str(tmp_path / "out")
        code = main(["sweep", "--a-range", "0.2:0.2:1", "--ej-range",
                     "0.2:0.2:1", "--config", str(cfg_file),
                     "--max-nodes", "1024", "--out", out])
        assert code == 0
        meta = json.loads((tmp_path / "out" / "sweep_meta.json").read_text())
        assert meta["quad_max_n"] == 1024

    def test_malformed_config_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("max_nodes 2048\n")
        assert main(["point", "--a", "0.4", "--ej", "0.3",
                     "--config", str(cfg_file)]) == 2

    def test_missing_config_exit_two(self, capsys):
        assert main(["point", "--a", "0.4", "--ej", "0.3",
                     "--config", "/nonexistent.cfg"]) == 2

    @pytest.mark.parametrize("text, argv", [
        ("max_node = 2048\n", SWEEP_ONE),
        ("tol = abc\n", SWEEP_ONE),
        ("jobs = 0\n", SWEEP_ONE),
        ("tol = abc\n", ["point", "--tol", "1e-10", "--a", "0.4", "--ej", "0.3"]),
        ("k = abc\n", ["point", "--a", "0.4", "--ej", "0.3"]),
        ("max_nodes = 2048  # more nodes\n", SWEEP_ONE),
    ], ids=["misspelt-key", "tol-abc", "jobs-0", "point-tol-abc-flag-given",
            "point-k-abc", "inline-comment"])
    def test_bad_config_exit_two(self, text, argv, tmp_path, capsys):
        # A config value passes the same check as its flag, also where the
        # flag is given or only another command reads the key; an unknown
        # key is refused, and the error names the file and line.  Nothing
        # is written.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg_file), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith(f"error: {cfg_file}:1: ") and err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_unreadable_config_exit_two(self, tmp_path, capsys):
        assert main(["point", "--a", "0.4", "--ej", "0.3",
                     "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name, extra", [
        ("res", ""),
        ("res", "jobs = 2\n"),
        ("run#3", ""),
    ], ids=["out", "out-and-jobs", "out-with-hash"])
    def test_point_reads_shared_config(self, name, extra, tmp_path, capsys):
        # point writes point.json to the file's out; a key only another
        # command reads (jobs) is accepted, so one file serves every command.
        # A "#" inside a value is part of it: only a line starting with "#"
        # is a comment.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"out = {tmp_path / name}\n{extra}")
        assert main(["point", "--a", "0.4", "--ej", "0.3",
                     "--config", str(cfg_file)]) == 0
        doc = json.loads((tmp_path / name / "point.json").read_text())
        assert doc["status"] == "FOUND"


class TestHelp:
    def test_help_renders(self, capsys):
        # A bad %(default) format in a help string fails only at help time.
        pages = {}
        for command in ["", "point", "sweep", "validate", "resonance"]:
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"] if command else ["--help"])
            assert exc.value.code == 0
            pages[command] = " ".join(capsys.readouterr().out.split())
        for command in ["point", "sweep", "validate", "resonance"]:
            assert f"(default {QuadratureSpec.tol:g})" in pages[command]
            assert f"(default {QuadratureSpec.max_n})" in pages[command]
        assert "--mu" not in pages["validate"]
        assert "--out" not in pages["validate"]
