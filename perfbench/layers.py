"""Per-module instrumentation of secular3bp and the metrics derived from it.

``instrument`` installs the spans (see tracing.py); ``layer_metrics`` turns
the recorded spans into per-module figures; ``kernel_microrun`` times the
three quadrature kernels at fixed arguments, outside any workload.

Which per-module figure should move which end-to-end metric (op_ms_* is
a cell on ``cells``, a whole sweep on ``sweep_wide``, a sweep plus trace on
``resonance`` and one call on ``coefficients``):

* kernels.quarter_sums.ns_per_node.n128 -> ``cells`` (frozen n = 128;
  the workloads run with a warmed allocator, see kernel_microrun);
  n1024 -> ``sweep_wide`` (near-planet column); kernels.bbar_mean.* ->
  ``coefficients``.  n128_cold is the first ``point`` call of a fresh
  process, which no workload times.
* geometry.* -> ``sweep_wide``.
* averaging.* (doubling_levels_mean) -> ``coefficients``.
* equilibrium.* -> ``cells``, ``resonance`` and ``sweep_wide``; no change
  on ``coefficients``.
* stability.* -> ``resonance``.
* sweep.* -> ``sweep_wide``.
"""

import math
import statistics
import time
import tracemalloc
from collections import Counter

import numpy as np

from tracing import has_ancestor

KERNELS = ("quarter_sums", "bbar_mean", "rbar_rotated_mean")
MICRO_SIZES = (64, 128, 256, 1024)
# Each micro-run timing: calls for at least this long, and this many.
MICRO_BUDGET_S = 0.1
MICRO_MIN_CALLS = 3
STATUSES = ("FOUND", "MULTIPLE_ROOTS", "NO_ROOT", "ORBIT_CROSSING",
            "NON_CONVERGED", "INCONCLUSIVE")


def _record_nodes(span, args, kwargs):
    # Every kernel takes (..., n1, n2) as its last two positional arguments.
    span.attrs["nodes"] = int(args[-2]) * int(args[-1])
    return args, kwargs


def _count_phi(span, args, kwargs):
    f = args[0]
    span.attrs["phi_calls"] = 0

    def phi(x, *rest):
        span.attrs["phi_calls"] += 1
        return f(x, *rest)

    return (phi,) + tuple(args[1:]), kwargs


def _record_roots(span, record):
    span.attrs["roots"] = len(record.all_roots)


def _record_status(span, cell):
    span.attrs["status"] = cell.status


def _record_points(span, points):
    span.attrs["points"] = len(points)


def instrument(tracer, pkg):
    """Wrap the call boundaries of the package modules in ``pkg``.

    ``pkg`` maps module names (kernels, averaging, equilibrium, stability,
    sweep) to the imported modules.  A function is wrapped in every
    namespace it is called through, under one span name.
    """
    kernels, averaging = pkg["kernels"], pkg["averaging"]
    equilibrium, stability, sweep = pkg["equilibrium"], pkg["stability"], pkg["sweep"]
    for name in KERNELS:
        tracer.wrap(kernels, name, f"kernels.{name}", on_args=_record_nodes)
    tracer.wrap(averaging, "aligned_separation", "geometry.aligned_separation")
    tracer.wrap(equilibrium, "aligned_noncrossing_interval",
                "geometry.aligned_noncrossing_interval")
    for module in (averaging, stability):
        tracer.wrap(module, "averaged_coefficients", "averaging.averaged_coefficients")
    for module in (sweep, stability):
        tracer.wrap(module, "find_equilibrium", "equilibrium.find_equilibrium",
                    on_result=_record_roots)
        tracer.wrap(module, "classify_spatial", "stability.classify_spatial")
    tracer.wrap(equilibrium, "brentq", "equilibrium.brent", on_args=_count_phi)
    tracer.wrap(equilibrium, "planar_hessian", "equilibrium.planar_hessian")
    tracer.wrap(stability, "point_ratio", "stability.point_ratio")
    tracer.wrap(stability, "trace_resonance", "stability.trace_resonance",
                on_result=_record_points)
    tracer.wrap(sweep, "evaluate_cell", "sweep.evaluate_cell", on_result=_record_status)
    for name in ("write_sweep_csv", "write_metadata_json"):
        tracer.wrap(sweep, name, "sweep.write")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, work_s, untraced_s, parallel_wall_s=None):
    """Per-module metrics from the spans of one traced run.

    Args:
        tracer: The closed Tracer.
        work_s: Wall time of the traced work.
        untraced_s: Wall time of the same work with tracing off.
        parallel_wall_s: Untraced ``jobs=2`` sweep wall (sweep_wide only).

    Returns:
        dict name -> (value, unit).
    """
    out = {}
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    children = Counter((id(s.parent), s.name) for s in tracer.spans if s.parent)

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in spans(name))

    def self_total(name):
        return sum(s.self_s for s in spans(name))

    kernel_self = 0.0
    for name in KERNELS:
        ks = spans(f"kernels.{name}")
        nodes = sum(s.attrs["nodes"] for s in ks)
        self_s = sum(s.self_s for s in ks)
        kernel_self += self_s
        out[f"kernels.{name}.calls"] = (len(ks), "count")
        out[f"kernels.{name}.nodes"] = (nodes, "count")
        out[f"kernels.{name}.self_s"] = (self_s, "s")
        out[f"kernels.{name}.self_share"] = (_ratio(self_s, work_s), "fraction")
        out[f"kernels.{name}.ns_per_node"] = (_ratio(1e9 * self_s, nodes), "ns")

    for name in ("aligned_separation", "aligned_noncrossing_interval"):
        key = f"geometry.{name}"
        out[f"{key}.calls"] = (len(spans(key)), "count")
        out[f"{key}.self_s"] = (self_total(key), "s")
        out[f"{key}.self_share"] = (_ratio(self_total(key), work_s), "fraction")

    key = "averaging.averaged_coefficients"
    coeff = spans(key)
    # One quarter_sums call per doubling level.
    levels = [children[id(c), "kernels.quarter_sums"] for c in coeff]
    out[f"{key}.calls"] = (len(coeff), "count")
    out[f"{key}.self_s"] = (self_total(key), "s")
    out["averaging.doubling_levels_mean"] = (
        statistics.fmean(levels) if levels else 0.0, "count")

    eq = spans("equilibrium.find_equilibrium")
    quarter_in_eq = [q for q in spans("kernels.quarter_sums")
                     if has_ancestor(q, "equilibrium.find_equilibrium")]
    for name in ("find_equilibrium", "brent", "planar_hessian"):
        key = f"equilibrium.{name}"
        out[f"{key}.s"] = (total(key), "s")
        out[f"{key}.share"] = (_ratio(total(key), work_s), "fraction")
    out["equilibrium.brent.phi_calls"] = (
        sum(s.attrs["phi_calls"] for s in spans("equilibrium.brent")), "count")
    out["equilibrium.quarter_calls_per_cell"] = (
        _ratio(len(quarter_in_eq), len(eq)), "count")
    out["equilibrium.nodes_per_cell"] = (
        _ratio(sum(q.attrs["nodes"] for q in quarter_in_eq), len(eq)), "count")
    out["equilibrium.roots_per_cell"] = (
        _ratio(sum(s.attrs.get("roots", 0) for s in eq), len(eq)), "count")

    classify = spans("stability.classify_spatial")
    # A second averaged_coefficients call is the tol/10 refinement.
    refined = sum(1 for c in classify
                  if children[id(c), "averaging.averaged_coefficients"] > 1)
    trace = spans("stability.trace_resonance")
    curve_points = sum(s.attrs.get("points", 0) for s in trace)
    out["stability.classify_spatial.s"] = (total("stability.classify_spatial"), "s")
    out["stability.classify_spatial.share"] = (
        _ratio(total("stability.classify_spatial"), work_s), "fraction")
    out["stability.refined_share"] = (_ratio(refined, len(classify)), "fraction")
    out["stability.trace_resonance.self_s"] = (
        self_total("stability.trace_resonance"), "s")
    out["stability.trace_resonance.self_share"] = (
        _ratio(self_total("stability.trace_resonance"), work_s), "fraction")
    out["stability.point_ratio.calls_per_point"] = (
        _ratio(len(spans("stability.point_ratio")), curve_points), "count")

    cells = spans("sweep.evaluate_cell")
    cell_s = sorted(s.duration for s in cells)
    cell_total = sum(cell_s)
    tail = cell_s[len(cell_s) - math.ceil(0.1 * len(cell_s)):]
    out["sweep.evaluate_cell.calls"] = (len(cells), "count")
    for label, q in (("p50", 50), ("p90", 90)):
        value = float(np.percentile(cell_s, q)) * 1e3 if cell_s else 0.0
        out[f"sweep.evaluate_cell.ms_{label}"] = (value, "ms")
    out["sweep.evaluate_cell.ms_max"] = (1e3 * cell_s[-1] if cell_s else 0.0, "ms")
    for status in STATUSES:
        out[f"sweep.status.{status}"] = (
            sum(1 for s in cells if s.attrs["status"] == status), "count")
    out["sweep.tail_share"] = (_ratio(sum(tail), cell_total), "fraction")
    out["sweep.parallel_speedup"] = (
        _ratio(cell_total, parallel_wall_s), "x")
    out["sweep.write_s"] = (total("sweep.write"), "s")
    out["sweep.write.share"] = (_ratio(total("sweep.write"), work_s), "fraction")

    eq_self = sum(self_total(f"equilibrium.{n}")
                  for n in ("find_equilibrium", "brent", "planar_hessian"))
    out["trace.kernels_equilibrium_share"] = (
        _ratio(kernel_self + eq_self, work_s), "fraction")
    # How far the traced throughput falls short of the untraced one.
    out["trace.overhead"] = (1.0 - _ratio(untraced_s, work_s), "fraction")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def _kernel_args(name, n):
    a, e, eJ = 0.4, 0.17, 0.3
    if name == "rbar_rotated_mean":
        return (a, e, eJ, math.cos(0.1), math.sin(0.1), n, n)
    return (a, e, eJ, n, n)


def _median_call_s(fn, args):
    fn(*args)
    times = []
    t_end = time.perf_counter() + MICRO_BUDGET_S
    while len(times) < MICRO_MIN_CALLS or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_microrun(pkg):
    """Fixed-argument kernel timings and computed working-set bytes.

    Meant for a fresh interpreter (run.py starts one).  glibc malloc raises
    its mmap and trim thresholds once a large block has been freed; until
    then every temporary of an n >= 128 call is mapped and faulted in
    afresh.  ``quarter_sums.ns_per_node.n128_cold`` is timed in that first
    state, every other figure after one n = 1024 call.  A process reaches
    the second state at its first large-n quadrature; the workloads are
    put in it before timing (run.warm_allocator), so that the seed does
    not pick the state.

    ``ns_per_node.n<N>`` is the median call time over n*n nodes.
    ``peak_bytes.n<N>`` is the peak of Python-traced memory (numpy
    allocations included) during one call: the size of the temporaries the
    call holds at once, to set against the cache sizes of the machine.
    """
    kernels = pkg["kernels"]
    cold = _median_call_s(kernels.quarter_sums, _kernel_args("quarter_sums", 128))
    out = {"kernels.quarter_sums.ns_per_node.n128_cold": (1e9 * cold / 128**2, "ns")}
    kernels.quarter_sums(*_kernel_args("quarter_sums", 1024))
    for name in KERNELS:
        fn = getattr(kernels, name)
        for n in MICRO_SIZES:
            args = _kernel_args(name, n)
            median_s = _median_call_s(fn, args)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fn(*args)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            out[f"kernels.{name}.ns_per_node.n{n}"] = (1e9 * median_s / (n * n), "ns")
            out[f"kernels.{name}.peak_bytes.n{n}"] = (peak, "B")
    return out
