"""Run one workload of the cogrelay benchmark, or every workload.

    python3 cogbench/run.py --workload optimize-perfect --seed 1 \\
        --seconds 30 --trace 0
    python3 cogbench/run.py --seed 1     # every workload, each in its
                                         # own fresh process

A one-workload run sets up (timed), then repeats whole rounds of the
workload's operations until the next round would end after `--seconds`,
then checks the outputs.  Its last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: every
end-to-end metric of BENCHMARK.json with `--trace 0`, every per-layer
metric with `--trace 1`.  A traced run alternates plain and traced
rounds, so that the tracing overhead is measured in the same process.
Results and traces are also written under cogbench/results/.

The run uses one process and no worker threads of its own.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import bench_setup

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
DECLARATION = bench_setup.ROOT / "BENCHMARK.json"
# value of an end-to-end metric on a workload that does not run the
# operations it measures: every result carries every end-to-end metric,
# and none may read 0
NOT_EXERCISED = 1.0
DRAW_CHUNK = 1 << 16   # slots per block of pre-drawn uniforms in sim.run
DRAW_SLOTS = 1 << 20


def declared() -> dict:
    return json.loads(DECLARATION.read_text())


def timed_round(workload, tracer=None):
    from bench_workloads import Round

    rnd = Round(tracer)
    if tracer is not None:
        tracer.install()
    try:
        rnd.outputs = workload.run_round(rnd)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rnd


def draw_floor_ns_per_slot(n_relays: int, repeats: int = 5) -> float:
    """Nanoseconds per slot to draw the uniforms `sim.run` draws for
    `n_relays` relays, in the same layout and with nothing else done: the
    floor a simulator that consumes those draws cannot go below."""
    width = max(n_relays, 1)
    best = float("inf")
    for seed in range(repeats):
        rng = np.random.default_rng(seed)
        start = perf_counter()
        for _ in range(DRAW_SLOTS // DRAW_CHUNK):
            rng.random((9, DRAW_CHUNK))
            rng.random((DRAW_CHUNK, width))
            rng.random((DRAW_CHUNK, width))
        best = min(best, perf_counter() - start)
    return best / DRAW_SLOTS * 1e9


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = declared()
    setup_s, specs, load_spec_us = bench_setup.measure_setup(name)
    import bench_checks
    import bench_trace
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[name](specs, seed)
    tracer = bench_trace.Tracer() if trace else None
    plain, traced = [], []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        plain.append(timed_round(workload))
        if tracer is not None:
            traced.append(timed_round(workload, tracer))
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rounds = plain + traced
    failures = workload.check(plain[0].outputs)
    reference = workload.digest(plain[0].outputs)
    for k, rnd in enumerate(rounds[1:], start=2):
        diff = bench_checks.first_difference(reference,
                                             workload.digest(rnd.outputs))
        if diff is not None:
            failures.append(f"round {k} differs from round 1: {diff}")
    for rnd in rounds:
        for error in rnd.errors[:1]:
            print(error, file=sys.stderr)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    walls = [r.wall for r in plain]
    if tracer is None:
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "peak_rss_mib": peak_rss_mib}
        values.update(workload.metrics(plain[0].outputs, plain))
        names = spec["end_to_end"]
        for metric in names:
            values.setdefault(metric["name"], NOT_EXERCISED)
    else:
        values = bench_trace.layer_metrics(tracer, len(traced))
        values["experiments.load_spec_us"] = load_spec_us
        for n in (2, 3, 5):
            values[f"sim.rng_ns_per_slot.n{n}"] = draw_floor_ns_per_slot(n)
        values["trace.overhead_s"] = (
            statistics.median(r.wall for r in traced)
            - statistics.median(walls))
        names = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in names}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           f"differ from BENCHMARK.json")
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
    }
    _write(name, trace, result, plain, traced, failures, tracer)
    return result


def _write(name, trace, result, plain, traced, failures, tracer) -> None:
    RESULTS.mkdir(exist_ok=True)
    detail = {"result": result, "failures": failures,
              "plain_walls_s": [r.wall for r in plain],
              "plain_raw_walls_s": [r.raw_wall for r in plain],
              "plain_raw_phases_s": [r.raw_phases for r in plain],
              "traced_walls_s": [r.wall for r in traced]}
    suffix = ".trace" if trace else ""
    if tracer is not None:
        detail["spans"] = tracer.summary()
        name_id, parent, start, end = tracer.arrays()
        np.savez(RESULTS / f"{name}.spans.npz", names=np.array(tracer.names),
                 name_id=name_id, parent=parent, start_ns=start, end_ns=end)
    (RESULTS / f"{name}{suffix}.json").write_text(json.dumps(detail,
                                                             indent=1))


def run_child(workload: str, seed: int, seconds: int, trace: int,
              timeout: float = 900) -> dict | None:
    """One workload in a fresh process; its result, or None when it
    printed none."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def run_all(seed: int, seconds: int, trace: int) -> int:
    status = 0
    for workload in bench_setup.WORKLOAD_CONFIGS:
        result = run_child(workload, seed, seconds, trace)
        if result is None:
            print(f"{workload}: no result")
            status = 1
            continue
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<40} {v['value']:>16.6g} {v['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *bench_setup.WORKLOAD_CONFIGS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (ImportError, OSError) as err:
        print(f"error: cannot run the benchmark here: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
