#!/usr/bin/env python3
"""Self-test of the traced run.

Runs the traced run twice per workload with one seed, in this process, and
checks that

* every module attribute the tracer wrapped is the original object again
  afterwards (for example ``kernels.quarter_sums is
  kernels.quarter_sums_numpy`` on the numpy backend), and
* both runs give identical counters: every per-module metric counted in
  unit ``count`` (calls, nodes, ``sweep.status.*``, ...).

    python3 perfbench/selftest.py [--seed N] [--workloads cells coefficients]

Exits 0 when every check holds and 1 otherwise.
"""

import argparse
import sys
from types import SimpleNamespace

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=["cells", "coefficients"])
    args = parser.parse_args(argv)

    pkg = run.import_package()
    modules = [pkg[m] for m in ("kernels", "averaging", "equilibrium", "stability", "sweep")]
    originals = {(module.__name__, name): getattr(module, name)
                 for module in modules for name in dir(module)}
    errors = []
    for workload in args.workloads:
        ns = SimpleNamespace(workload=workload, seed=args.seed, trace=1)
        counters = []
        for attempt in (1, 2):
            metrics, _, tally, problems, _ = run.traced(pkg, ns)
            errors += [f"{workload} run {attempt}: {p}" for p in problems + tally.failures]
            counters.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
        for key in sorted(counters[0]):
            if counters[0][key] != counters[1][key]:
                errors.append(f"{workload}: {key} = {counters[0][key]} then {counters[1][key]}")
        print(f"{workload}: {len(counters[0])} counters compared, "
              f"kernels.quarter_sums.calls = {counters[0]['kernels.quarter_sums.calls']}")

    for (module_name, name), original in originals.items():
        module = sys.modules[module_name]
        if getattr(module, name) is not original:
            errors.append(f"{module_name}.{name} is not the original object")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "FAILED" if errors else "PASSED")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
