"""Spans recorded from the benchmark's own code, around calls into each
`cogrelay` module's public functions.

A traced round replaces each public name with a wrapper that records a
span -- name, parent span, start and end -- and restores the originals
afterwards.  A module that imported a function by name looks it up in
its own namespace, so the wrapper replaces the name in every loaded
`cogrelay` module that holds it, not only where it is defined.  Spans
stay in memory until the run ends; a span's self time is its duration
minus the durations of its children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# span name -> (defining module, attribute); classes are traced through
# their constructor or the named method
FUNCTIONS = {
    "experiments.compare_point": ("cogrelay.experiments", "compare_point"),
    "sim.run": ("cogrelay.sim", "run"),
    "rates.rate_report": ("cogrelay.rates", "rate_report"),
    "rates.end_to_end_delays": ("cogrelay.rates", "end_to_end_delays"),
    "rates.apply_sensing_errors": ("cogrelay.rates", "apply_sensing_errors"),
    "qos.maximize": ("cogrelay.qos", "maximize_secondary_throughput"),
    "qos.min_relays": ("cogrelay.qos", "minimize_relay_count"),
}
METHODS = {
    "rates.strategy_params": ("cogrelay.rates", "StrategyParams", "__init__"),
    "orders.order_distribution": ("cogrelay.orders", "OrderDistribution",
                                  "__init__"),
    "network.outages": ("cogrelay.network", "NetworkConfig", "outages"),
}
# spans whose time is not the search's own (qos self time)
EVALUATION_LAYERS = ("rates.", "orders.")


class Tracer:
    """In-memory span store plus the per-call records a few spans keep:
    the simulated case and slots of `sim.run`, the convergence counts of
    each QoS search."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.sim_runs: list[tuple[str, int, int]] = []   # (case, slots, span)
        # (evaluations, restarts_used, budget_exhausted, span)
        self.searches: list[tuple[int, int, bool, int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(index, args, kwargs, result)
            return result
        return traced

    def _after_sim(self, index, args, kwargs, result):
        cfg, params = args[0], args[1]
        sensing = kwargs.get("sensing") or getattr(cfg, "sensing", None)
        case = (f"n{params.n_relays}_"
                f"{'perfect' if sensing is None else 'sensing'}")
        self.sim_runs.append((case, kwargs["slots"], index))

    def _after_search(self, index, args, kwargs, result):
        self.searches.append((result.evaluations, result.restarts_used,
                              result.budget_exhausted, index))

    def install(self) -> None:
        """Replace every traced name in the loaded `cogrelay` modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "cogrelay" or n.startswith("cogrelay.")]
        hooks = {"sim.run": self._after_sim,
                 "qos.maximize": self._after_search}
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(original, name, hooks.get(name))
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def self_seconds(self) -> np.ndarray:
        """Each span's duration minus its children's, in seconds."""
        _, parent, start, end = self.arrays()
        duration = (end - start).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=duration.size)
        return duration - child

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        name_id, _, start, end = self.arrays()
        duration = (end - start).astype(float) * 1e-9
        own = self.self_seconds()
        table = {}
        for i, name in enumerate(self.names):
            mask = name_id == i
            table[name] = {"calls": int(mask.sum()),
                           "total_s": float(duration[mask].sum()),
                           "self_s": float(own[mask].sum())}
        return table

    def evaluation_time_under_searches(self) -> float:
        """Seconds of rates/orders spans inside QoS searches, counting a
        span only when no rates/orders span encloses it."""
        name_id, parent, start, end = self.arrays()
        duration = (end - start).astype(float) * 1e-9
        is_eval = np.array([n.startswith(EVALUATION_LAYERS)
                            for n in self.names], dtype=bool)[name_id]
        is_search = np.array([n == "qos.maximize" for n in self.names],
                             dtype=bool)[name_id]
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)
        under_search = np.zeros(name_id.size, dtype=bool)
        under_eval = np.zeros(name_id.size, dtype=bool)
        while True:  # one pass per level of nesting
            next_search = has_parent & (is_search[up] | under_search[up])
            next_eval = has_parent & (is_eval[up] | under_eval[up])
            if (np.array_equal(next_search, under_search)
                    and np.array_equal(next_eval, under_eval)):
                break
            under_search, under_eval = next_search, next_eval
        return float(duration[is_eval & under_search & ~under_eval].sum())


SIM_CASES = ("n2_perfect", "n5_perfect", "n3_sensing")
CALL_METRICS = {  # metric prefix -> span name
    "orders.order_distribution": "orders.order_distribution",
    "rates.strategy_params": "rates.strategy_params",
    "rates.rate_report": "rates.rate_report",
    "rates.end_to_end_delays": "rates.end_to_end_delays",
    "rates.apply_sensing_errors": "rates.apply_sensing_errors",
}


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics from the spans of `rounds` traced rounds: counts
    per round, microseconds per call, simulator nanoseconds per slot by
    case, and the QoS search's time per evaluation with and without the
    rate evaluations under it.  0 where the workload has no such span."""
    table = tracer.summary()

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def per_call(name, scale):
        return total(name) / calls(name) * scale if calls(name) else 0.0

    out = {
        "experiments.compare_point_s": per_call("experiments.compare_point",
                                                1.0),
        "network.outages_us": per_call("network.outages", 1e6),
        "sim.run_calls": calls("sim.run") / rounds,
        "sim.slots": sum(slots for _, slots, _ in tracer.sim_runs) / rounds,
        "sim.run_s": total("sim.run") / rounds,
    }
    own = tracer.self_seconds()
    for case in SIM_CASES:
        spans = [(slots, i) for c, slots, i in tracer.sim_runs if c == case]
        slots = sum(s for s, _ in spans)
        out[f"sim.ns_per_slot.{case}"] = (
            sum(own[i] for _, i in spans) / slots * 1e9 if slots else 0.0)
    for prefix, name in CALL_METRICS.items():
        out[f"{prefix}_calls"] = calls(name) / rounds
        out[f"{prefix}_us"] = per_call(name, 1e6)

    evaluations = sum(e for e, _, _, _ in tracer.searches)
    search_s = total("qos.maximize")
    name_id, parent, _, _ = tracer.arrays()
    nested = sum(1 for *_, i in tracer.searches if parent[i] >= 0
                 and tracer.names[name_id[parent[i]]] == "qos.min_relays")
    out.update({
        "qos.evaluations": evaluations / rounds,
        "qos.restarts_used": sum(r for _, r, _, _ in tracer.searches) / rounds,
        "qos.budget_exhausted": sum(b for _, _, b, _ in tracer.searches)
        / rounds,
        "qos.us_per_evaluation": (search_s / evaluations * 1e6
                                  if evaluations else 0.0),
        "qos.self_us_per_evaluation": (
            (search_s - tracer.evaluation_time_under_searches())
            / evaluations * 1e6 if evaluations else 0.0),
        "qos.searches_per_min_relay_call": (
            nested / calls("qos.min_relays") if calls("qos.min_relays")
            else 0.0),
    })
    return out
