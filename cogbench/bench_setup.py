"""Set-up of a benchmark run: where the checkout's sources are, which
bundled configs each workload parses, and the timed set-up itself.

Set-up is what a user of the `cogrelay` command pays before any verb
runs: importing the package, parsing the spec files and deriving the
outage table of every strategy a spec names.  It is timed several times
per run, each time from a fresh import of `cogrelay` (numpy stays
loaded, as the benchmark itself needs it), and reported as the median.

This module imports nothing from `cogrelay` at load time, so that the
first timed import is a real one.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401  - loaded before the timed imports, see above

import bench_speed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"     # the exhaustive slot-outcome oracle lives here
CONFIGS = ROOT / "configs"

WORKLOAD_CONFIGS = {
    "compare-perfect": ("fig3_od_n2", "table1_n5"),
    "optimize-perfect": ("fig3_od_n2",),
    "sensing-n3": ("fig11_minrelays_n3",),
}

SETUP_REPEATS = 7


def add_paths() -> None:
    """Put the checkout's `src/` and `tests/` first on the import path:
    the package is not installed, and the benchmark must test this
    checkout's code, not another copy."""
    for path in (TESTS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _forget_package() -> None:
    for name in [m for m in sys.modules
                 if m == "cogrelay" or m.startswith("cogrelay.")]:
        del sys.modules[name]


def setup_once(configs) -> tuple[float, dict, list[float]]:
    """Import `cogrelay` afresh, parse each spec and derive each strategy's
    outage table.  Returns (seconds, specs by config name, seconds per
    `load_spec` call)."""
    _forget_package()
    start = perf_counter()
    experiments = importlib.import_module("cogrelay.experiments")
    specs = {}
    spec_times = []
    for name in configs:
        t0 = perf_counter()
        spec = experiments.load_spec(CONFIGS / f"{name}.cfg")
        spec_times.append(perf_counter() - t0)
        for kind in spec.strategies:
            spec.network.outages(kind)
        specs[name] = spec
    elapsed = perf_counter() - start
    origin = Path(experiments.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"cogrelay was imported from {origin}, "
                          f"not from {SRC}")
    return elapsed, specs, spec_times


def measure_setup(workload: str) -> tuple[float, dict, float]:
    """Median set-up seconds (at the reference speed, see bench_speed)
    over SETUP_REPEATS fresh imports, the specs of the last one, and the
    median raw `load_spec` time in microseconds."""
    add_paths()
    configs = WORKLOAD_CONFIGS[workload]
    samples = [bench_speed.calibration_s()]
    times = []
    spec_times = []
    specs = {}
    for _ in range(SETUP_REPEATS):
        elapsed, specs, per_spec = setup_once(configs)
        times.append(elapsed)
        spec_times.extend(per_spec)
        samples.append(bench_speed.calibration_s())
    return (statistics.median(times) * bench_speed.scale(samples), specs,
            statistics.median(spec_times) * 1e6)
