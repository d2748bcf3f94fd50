"""Steadiness of the benchmark: run each workload repeatedly, each time in
a fresh process with another seed, and print per end-to-end metric the
median, the quartiles and their distance as a share of the median next
to the metric's bound in BENCHMARK.json.

    python3 cogbench/steady.py --runs 10 --seconds 30
    python3 cogbench/steady.py --runs 5 --workload sensing-n3

A metric is steady when its spread is below a third of its bound (set-up
time is exempt: only its median is compared between sets of runs).  The
share of failed operations must be the same in every run.  The summary is
also written to cogbench/results/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import bench_setup
from run import RESULTS, declared, run_child


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=declared()["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=list(bench_setup.WORKLOAD_CONFIGS))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    summary = {}
    steady = True
    for workload in args.workload or bench_setup.WORKLOAD_CONFIGS:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_child(workload, seed, args.seconds, 0)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: "
                      f"{'no result' if result is None else 'incorrect'}")
                steady = False
                continue
            results.append(result)
        if len(results) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, failed share "
              f"{sorted(shares)}")
        steady &= len(shares) == 1
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            ok = name == "setup_s" or share < bound / 3
            steady &= ok
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": share, "bound": bound, "values": values}
            print(f"  {name:<18} median {median:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} spread {share:8.4f}  bound {bound:<6g}"
                  f"{'' if ok else '  NOT STEADY'}")
        summary[workload] = rows
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "steady.json").write_text(json.dumps(summary, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
