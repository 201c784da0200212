#!/usr/bin/env python3
"""Benchmark of the secular3bp pipeline, end to end and module by module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cells --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src/`` (never from an
installed copy); without it the benchmark exits with code 2.

``--trace 0`` runs the workload as a closed loop for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed amount of the
workload with spans around the package's module attributes (see
tracing.py and layers.py), plus a kernel micro-run in a fresh interpreter,
and reports the per-module metrics.  Either way
every output is checked, the metrics named in ``BENCHMARK.json`` go into
the JSON object on the last line of standard output, and every other
figure is printed above it, one ``name = value unit`` line each.  The
full record (and, traced, the spans) is written under ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3
NOTE = "numpy backend, numba not installable offline"
# Just under glibc's 32 MiB cap on its dynamic mmap threshold; see
# warm_allocator.
WARMUP_BLOCK_BYTES = 32 * 2**20 - 2**16

_IMPORT_TIMER = (
    "import time; t0 = time.perf_counter(); import secular3bp; "
    "print(repr(time.perf_counter() - t0))"
)


def measure_setup():
    """Median over fresh interpreters of the time ``import secular3bp`` takes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def import_package():
    sys.path.insert(0, SRC)
    import secular3bp
    from secular3bp import averaging, equilibrium, kernels, stability, sweep, validate

    origin = os.path.dirname(os.path.abspath(secular3bp.__file__))
    if origin != os.path.join(SRC, "secular3bp"):
        raise RuntimeError(f"secular3bp imported from {origin}, not {SRC}")
    return {
        "kernels": kernels, "averaging": averaging, "equilibrium": equilibrium,
        "stability": stability, "sweep": sweep, "validate": validate,
        "QuadratureSpec": secular3bp.QuadratureSpec,
        "OrbitConfig": secular3bp.OrbitConfig,
    }


def warm_allocator():
    """Put malloc in the state a long-running process ends up in.

    glibc raises its mmap threshold to the size of the largest mapped block
    freed so far, up to 32 MiB.  Until a process frees one, every kernel
    temporary of 128 KiB or more (n >= 128) is mapped and faulted in
    afresh, which about doubles kernel time.  When a workload first frees
    such a block depends on its seeded inputs, so without this step the
    timed loop runs in one state or the other from seed to seed.  Freeing
    one block just under the cap first sets the threshold for good.  The
    first state is measured on its own by the kernel micro-run
    (``kernels.quarter_sums.ns_per_node.n128_cold``).  Pool workers are
    forked and inherit the state.
    """
    block = np.empty(WARMUP_BLOCK_BYTES, dtype=np.uint8)
    del block


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(pkg, args):
    import scipy

    backend = pkg["kernels"].BACKEND
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "kernel_backend": backend, "commit": git_commit(),
        "note": NOTE if backend == "numpy" else "",
    }


_MICRORUN = ("import json, layers, run; "
             "print(json.dumps(layers.kernel_microrun(run.import_package())))")


def kernel_microrun():
    """layers.kernel_microrun in a fresh interpreter.

    It must start from a fresh allocator state, and must not leave its own
    to the traced workload, which runs in the state it reaches untraced.
    """
    done = subprocess.run([sys.executable, "-c", _MICRORUN], cwd=HERE,
                          capture_output=True, text=True, timeout=120, check=True)
    return {k: tuple(v) for k, v in json.loads(done.stdout.splitlines()[-1]).items()}


def peak_rss_mb():
    """Peak resident set of this process or any child it has waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# Name of each end-to-end figure in the terms of its workload.
_ALIASES = {
    "cells": {"op_ms_p50": "cell_ms_p50", "op_ms_p90": "cell_ms_p90",
              "items_per_s": "cells_per_s"},
    "sweep_wide": {"op_ms_p50": "sweep_ms", "items_per_s": "cells_per_s"},
    "resonance": {"ops_per_s": "traces_per_s"},
    "coefficients": {"op_ms_p50": "coeff_ms_p50", "op_ms_p90": "coeff_ms_p90",
                     "items_per_s": "coeffs_per_s"},
}


def end_to_end(pkg, args, setup_s, setup_all):
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    tally = workloads.run(pkg, args.workload, args.seed, out_dir, args.seconds)
    wall = tally.wall
    ms = [1e3 * t for t in tally.latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "items_per_s": (tally.items / wall, "1/s"),
        "ops_per_s": (len(ms) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "operations": (len(ms), "count"),
        "items": (tally.items, "count"),
        "wall_s": (wall, "s"),
        "setup_s.samples": (setup_all, "s"),
    }
    if args.workload == "resonance":
        extra["trace_s"] = (statistics.median(ms) / 1e3, "s")
    for name, alias in _ALIASES[args.workload].items():
        extra[alias] = metrics[name]
    return metrics, extra, tally


def traced(pkg, args):
    extra = {}
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-traced")
    parallel_wall = None
    problems = []
    if args.workload == "sweep_wide":
        window = workloads.sweep_wide_window(args.seed)
        t0 = time.perf_counter()
        _, parallel_csv = workloads.sweep_op(pkg, window, 2, out_dir + "-jobs2")
        parallel_wall = time.perf_counter() - t0

    # Each operation runs untraced and then traced, back to back, so that
    # a change of machine speed during the run hits both sides alike.
    tracer = Tracer()
    tally = workloads.Tally()
    untraced_s = traced_s = 0.0
    for op in workloads.operations(pkg, args.workload, args.seed, out_dir, fixed=True):
        t0 = time.perf_counter()
        op()
        untraced_s += time.perf_counter() - t0
        layers.instrument(tracer, pkg)
        patched = tracer.patched()
        try:
            span = tracer.open(f"workload.{args.workload}")
            outcome = op()
            tracer.close(span)
        finally:
            tracer.restore()
        latency = span.duration
        traced_s += latency
        tally.add(latency, outcome)
        # Self-test: every wrapped attribute is the original object again.
        problems += [f"{module.__name__}.{attr} was not restored"
                     for module, attr, original in patched
                     if getattr(module, attr) is not original]
    kernels = pkg["kernels"]
    if kernels.BACKEND == "numpy" and kernels.quarter_sums is not kernels.quarter_sums_numpy:
        problems.append("kernels.quarter_sums is not kernels.quarter_sums_numpy")

    if args.workload == "sweep_wide":
        serial_csv = os.path.join(out_dir, "sweep.csv")
        with open(parallel_csv, "rb") as a, open(serial_csv, "rb") as b:
            identical = a.read() == b.read()
        if not identical:
            problems.append("sweep.csv differs between jobs=2 and traced jobs=1")
        extra["determinism.identical"] = (int(identical), "bool")
        extra["determinism.sha256"] = workloads.sha256_of(serial_csv)
        extra["sweep.cells_per_s.jobs2"] = (
            tally.items / parallel_wall, "1/s")
    extra["trace.items_per_s"] = (tally.items / traced_s, "1/s")
    extra["untraced.items_per_s"] = (tally.items / untraced_s, "1/s")

    metrics = layers.layer_metrics(tracer, traced_s, untraced_s, parallel_wall)
    return metrics, extra, tally, problems, tracer.to_json()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "secular3bp", "__init__.py")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {names}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    if args.trace:
        pkg = import_package()
        warm_allocator()
        metrics, extra, tally, problems, spans = traced(pkg, args)
        metrics.update(kernel_microrun())
        wanted = spec["per_layer"]
    else:
        setup_s, setup_all = measure_setup()
        pkg = import_package()
        warm_allocator()
        metrics, extra, tally = end_to_end(pkg, args, setup_s, setup_all)
        problems, spans = [], None
        wanted = spec["end_to_end"]
    meta = metadata(pkg, args)

    failures = tally.failures + problems
    failed = tally.failed + len(problems)
    attempted = tally.items + len(problems)
    extra["fail_share"] = (failed / attempted, "fraction")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"meta": meta, "failures": failures,
              "metrics": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in {**metrics, **extra}.items()}}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(spans, fh)

    print("meta " + json.dumps(meta, sort_keys=True))
    for problem in failures[:20]:
        print(f"FAIL {problem}")
    for name, value in sorted({**metrics, **extra}.items()):
        if isinstance(value, tuple):
            print(f"{name} = {value[0]!r} {value[1]}")
        else:
            print(f"{name} = {value}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
