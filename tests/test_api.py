import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import secular3bp
from secular3bp import kernels


def test_public_names_resolve():
    modules = [secular3bp] + [
        importlib.import_module(f"secular3bp.{info.name}")
        for info in pkgutil.iter_modules(secular3bp.__path__)
        if info.name != "__main__"
    ]
    missing = [f"{module.__name__}.{name}"
               for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
    # The sweep metadata and the benchmark harness read these two.
    assert kernels.BACKEND == "numpy"
    assert kernels.quarter_sums_numpy is kernels.quarter_sums


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench/run.py --trace 1 wraps these module attributes and times
    # these kernels; a deleted name would break it only at benchmark time.
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    pkg = {name: importlib.import_module(f"secular3bp.{name}")
           for name in ("kernels", "averaging", "equilibrium", "stability", "sweep")}
    tracer = tracing.Tracer()
    try:
        layers.instrument(tracer, pkg)
        patched = tracer.patched()
        assert patched
        assert all(getattr(m, attr) is not original for m, attr, original in patched)
    finally:
        tracer.restore()
    assert all(getattr(m, attr) is original for m, attr, original in patched)
    assert all(callable(getattr(kernels, name)) for name in layers.KERNELS)


def test_benchmark_selftest_passes():
    # The traced benchmark run restores every wrapped name and counts the
    # same work twice; a broken hook fails here rather than at benchmark time.
    selftest = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"
    proc = subprocess.run([sys.executable, str(selftest)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# Settable values in the package: parameters with a default plus dataclass
# fields with a default.  A value only one caller ever passes belongs in a
# module constant; adding an option means raising this number on purpose.
MAX_SETTABLE_VALUES = 14

# Names in secular3bp.__all__.  Oracles live in validate.py or tests/, not
# in the public API; adding a public name means raising this on purpose.
MAX_PUBLIC_NAMES = 21

# Lines in src/secular3bp/*.py, as ``wc -l`` counts them.  Adding lines means
# raising this on purpose; a change that removes lines may lower it.
MAX_SRC_LINES = 2577


def _settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_settable_values_ratchet():
    src = pathlib.Path(secular3bp.__file__).resolve().parent
    total = sum(_settable_values(ast.parse(path.read_text()))
                for path in sorted(src.glob("*.py")))
    assert total <= MAX_SETTABLE_VALUES


def test_public_names_ratchet():
    assert len(secular3bp.__all__) <= MAX_PUBLIC_NAMES


def test_src_lines_ratchet():
    src = pathlib.Path(secular3bp.__file__).resolve().parent
    total = sum(path.read_text().count("\n") for path in sorted(src.glob("*.py")))
    assert total <= MAX_SRC_LINES


def test_package_import_leaves_out_validate():
    # The oracles stay off the pipeline's import path.
    src = pathlib.Path(secular3bp.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, secular3bp; print('secular3bp.validate' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_import_leaves_out_scipy():
    # scipy is a test-only dependency; Brent's method is ported in-package.
    src = pathlib.Path(secular3bp.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, secular3bp, secular3bp.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
