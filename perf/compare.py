#!/usr/bin/env python3
"""Compare two benchmark results files.

    python3 perf/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``bench.py --out`` (each
may hold several runs).  For each workload and end-to-end metric this
prints both medians, B's change relative to A, and whether a worsening
stays within the metric's bound in ``BENCHMARK.json``.  The exact
metrics (cycles, code size, allocations) must be identical between all
runs of one workload and seed.  Exits 1 on a regression or an exact
mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import median, quartile_spread

EXACT = ("norm_cycles_geomean", "code_bytes", "allocations")


def load_runs(path: str) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def samples(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run["workloads"][workload]["e2e"][metric]
        for run in runs
        if workload in run["workloads"] and metric in run["workloads"][workload]["e2e"]
    ]


def exact_mismatches(a_runs: list[dict], b_runs: list[dict]) -> list[str]:
    """Exact metrics that differ between runs of one (workload, seed)."""
    seen: dict[tuple, object] = {}
    problems = []
    for run in a_runs + b_runs:
        for workload, result in run["workloads"].items():
            for metric in EXACT:
                if metric not in result["extra"]:
                    continue
                key = (workload, run["seed"], run["scale"], metric)
                value = result["extra"][metric][0]
                if seen.setdefault(key, value) != value:
                    problems.append(f"{workload} seed {run['seed']} {metric}: "
                                    f"{seen[key]} != {value}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    workloads = [w for w in a_runs[0]["workloads"] if w in b_runs[0]["workloads"]]
    failed = False
    print(f"{'workload':14} {'metric':18} {'A median':>12} {'B median':>12} "
          f"{'delta':>8} {'bound':>6} {'A spread':>8} {'B spread':>8}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = samples(a_runs, workload, metric["name"])
            b = samples(b_runs, workload, metric["name"])
            if not a or not b:
                continue
            a_med, b_med = median(a), median(b)
            delta = (b_med - a_med) / a_med
            worse = delta if metric["better"] == "lower" else -delta
            if worse > metric["bound"]:
                verdict, failed = "REGRESSED", True
            elif -worse > metric["bound"]:
                verdict = "improved"
            else:
                verdict = "within bound"
            print(f"{workload:14} {metric['name']:18} {a_med:12.5g} {b_med:12.5g} "
                  f"{delta:+8.2%} {metric['bound']:6.2f} {quartile_spread(a):8.2%} "
                  f"{quartile_spread(b):8.2%}  {verdict}")
    mismatches = exact_mismatches(a_runs, b_runs)
    for problem in mismatches:
        print(f"exact metric differs: {problem}")
    if not mismatches:
        print("exact metrics: identical")
    print(f"runs: A {len(a_runs)}, B {len(b_runs)}")
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
