"""The benchmark's workloads.

Each workload is a fixed list of operations made from the bundled
configs and the run's seed.  A round is one pass over that list; every
round of a run repeats the same operations on the same inputs, so its
outputs must be bit-identical to the first round's.  The workloads call
the package only through the public functions the `cogrelay` verbs call,
and look each one up on its module at call time, so that a traced round
goes through the tracing wrappers.

Import this module only after set-up has imported `cogrelay`.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import replace
from time import perf_counter

import numpy as np

import bench_checks
import bench_speed
from cogrelay import experiments, qos, rates, sim
from cogrelay.channel import StrategyKind
from cogrelay.errors import NoFeasibleRelayCount
from cogrelay.network import TrafficParams


def derived_seed(seed: int, stream: int) -> int:
    """A seed for one input stream of a run, fixed by the run's seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def shuffled(items: list, seed: int, stream: int) -> list:
    """`items` in an order fixed by the run's seed."""
    order = np.random.default_rng(derived_seed(seed, stream)).permutation(
        len(items))
    return [items[i] for i in order]


class Round:
    """One pass over a workload's operations.  Counts the operations
    attempted and failed, times each one (raw seconds, in total and per
    label), takes a speed sample before the round and after each
    operation (see bench_speed), and records a span around each operation
    when a tracer is given."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.raw_phases: dict[str, float] = {}
        self.samples = [bench_speed.calibration_s()]

    def op(self, label: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None when it raises."""
        self.attempted += 1
        span = self.tracer.open("bench.op") if self.tracer else None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted; the round goes on
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None
        finally:
            raw = perf_counter() - start
            if span is not None:
                self.tracer.close(span)
            self.raw_phases[label] = self.raw_phases.get(label, 0.0) + raw
            self.samples.append(bench_speed.calibration_s())

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_phases.values())

    @property
    def wall(self) -> float:
        """Seconds of the round's operations at the reference speed."""
        return self.raw_wall * bench_speed.scale(self.samples)

    def phase(self, label: str) -> float:
        return self.raw_phases[label] * bench_speed.scale(self.samples)


class ComparePerfect:
    """The `compare` verb on fig3_od_n2 (N=2; od, rd, rr at lambda_p
    0.1..0.5) and table1_n5 (N=5; rd, rr at lambda_p 0.1, 0.3, 0.5), with
    perfect sensing: per point a saturated-source run and a true-queue
    run.  Nearly all the time is the simulator's slot loop.  The run's
    seed fixes each spec's simulation seed and orders the 21 points."""

    name = "compare-perfect"
    slots = 10_000

    def __init__(self, specs: dict, seed: int):
        # one operation per (strategy, load): the verb's own loop, cut at
        # each point, so that a round takes a speed sample after every
        # point (see bench_speed)
        points = []
        for stream, spec in enumerate(specs.values()):
            spec.sim = replace(spec.sim, slots=self.slots, replications=1,
                               seed=derived_seed(seed, stream))
            for value in spec.sweep_values:
                for kind in spec.strategies:
                    points.append(replace(spec, strategies=[kind],
                                          sweep_values=[value]))
        self.points = shuffled(points, seed, 2)
        self.slots_per_round = 2 * self.slots * len(self.points)

    def run_round(self, rnd: Round):
        return [rnd.op("compare", experiments.compare_analytic_sim, point)
                for point in self.points]

    def digest(self, outputs):
        return [(c.strategy, c.sweep_value, c.quantity, c.simulated,
                 c.ci_half_width)
                for comparisons in outputs if comparisons is not None
                for c in comparisons]

    def check(self, outputs) -> list[str]:
        points = []
        for point, comparisons in zip(self.points, outputs):
            if comparisons is None:
                continue
            (value,), (kind,) = point.sweep_values, point.strategies
            network = point.network_at(value)
            expected = bench_checks.oracle_quantities(
                network.outages(kind), point.params_for(kind),
                network.traffic)
            points.append((f"{point.scenario} {kind.value} "
                           f"lambda_p={value:g}", expected,
                           [(c.quantity, c.simulated, c.ci_half_width)
                            for c in comparisons]))
        return bench_checks.check_compare(points)

    def metrics(self, outputs, rounds) -> dict:
        return {"sim_slots_per_s": self.slots_per_round * len(rounds)
                / sum(r.wall for r in rounds)}


class OptimizePerfect:
    """The `optimize` verb on fig3_od_n2: od, rd and rr at lambda_p
    0.1..0.5 under the spec's ceilings (1.6, 3), with the spec's budget,
    restarts and seed.  No simulation; the time is the QoS search and the
    rate evaluations it makes.  The run's seed orders the 15 searches."""

    name = "optimize-perfect"

    def __init__(self, specs: dict, seed: int):
        (spec,) = specs.values()
        self.spec = spec
        points = []
        for value in spec.sweep_values:
            network = spec.network_at(value)
            target = qos.QosSpec(spec.qos.d_p_max, spec.qos.d_s_max,
                                 network.traffic)
            for kind in spec.strategies:
                points.append((value, kind, network, target))
        self.points = shuffled(points, seed, 0)

    def run_round(self, rnd: Round):
        opt = self.spec.optimizer
        return [rnd.op("optimize", qos.maximize_secondary_throughput,
                       network, kind, target, budget=opt.budget,
                       restarts=opt.restarts, seed=self.spec.sim.seed)
                for _, kind, network, target in self.points]

    def digest(self, outputs):
        return [(value, kind.value, r.feasible, r.best_mu_s, r.evaluations,
                 r.restarts_used, r.budget_exhausted, r.first_violation)
                for (value, kind, _, _), r in zip(self.points, outputs)
                if r is not None]

    def check(self, outputs) -> list[str]:
        points = []
        for (value, kind, network, target), r in zip(self.points, outputs):
            if r is None:
                continue
            outages = network.outages(kind)
            points.append({
                "label": f"{kind.value} lambda_p={value:g}",
                "outages": outages, "traffic": network.traffic,
                "d_p_max": target.d_p_max, "d_s_max": target.d_s_max,
                "ceiling": bench_checks.delay_limited_secondary_ceiling(
                    outages, network.traffic, target.d_p_max,
                    target.d_s_max),
                "feasible": r.feasible, "best_mu_s": r.best_mu_s,
                "best_params": r.best_params,
                "first_violation": r.first_violation})
        return bench_checks.check_optimize(points)

    def metrics(self, outputs, rounds) -> dict:
        done = [r for r in outputs if r is not None]
        return {
            "opt_evals_per_s": (sum(r.evaluations for r in done)
                                * len(rounds) / sum(r.wall for r in rounds)),
            "opt_mu_s_sum": math.fsum(r.best_mu_s for r in done
                                      if r.feasible)}


class SensingN3:
    """Everything on fig11_minrelays_n3 (physical channels, N=3, sensing
    errors): the `simulate` verb at lambda_p 0.1, 0.3, 0.5 (the coupled
    true-queue mode with sensing errors), and the od minimum relay count
    of criterion 10 at lambda_p 0.70, 0.72, 0.74 with lambda_s = 0.2, over
    a ladder of delay ceilings from tight to unbounded, each with perfect
    and with imperfect sensing.  Each load is simulated twice, with two
    seeds fixed by the run's seed, which also orders the 36 operations:
    the six simulations fall between the searches, so that the
    simulator's time is sampled across the round."""

    name = "sensing-n3"
    slots = 40_000
    loads = (0.70, 0.72, 0.74)
    ceilings = ((4.0, 8.0), (6.0, 14.0), (10.0, 20.0), (30.0, 60.0),
                (math.inf, math.inf))
    budget = 1_000
    restarts = 4
    search_seed = 11   # criterion 10's seed

    def __init__(self, specs: dict, seed: int):
        (spec,) = specs.values()
        self.spec = spec
        self.n_max = spec.optimizer.n_max
        ops = [("simulate", replace(spec, sweep_values=[value],
                                    sim=replace(spec.sim, slots=self.slots,
                                                replications=1,
                                                seed=derived_seed(seed,
                                                                  stream))))
               for value in spec.sweep_values for stream in (0, 3)]
        self.sim_slots = self.slots * len(ops) * len(spec.strategies)
        for lam_p in self.loads:
            traffic = TrafficParams(lam_p, 0.2)
            for i, (d_p, d_s) in enumerate(self.ceilings):
                for sensing in (False, True):
                    network = replace(
                        spec.network, traffic=traffic,
                        sensing=spec.network.sensing if sensing else None)
                    ops.append(("min-relays", ((lam_p, i, sensing), network,
                                               qos.QosSpec(d_p, d_s,
                                                           traffic))))
        self.ops = shuffled(ops, seed, 1)

    def _min_relays(self, network, target) -> int:
        try:
            return qos.minimize_relay_count(
                network, StrategyKind.ORDERED, target, self.n_max,
                budget=self.budget, restarts=self.restarts,
                seed=self.search_seed)
        except NoFeasibleRelayCount:
            return self.n_max + 1

    def run_round(self, rnd: Round):
        rows, counts = {}, {}
        for label, item in self.ops:
            if label == "simulate":
                rows[(item.sweep_values[0], item.sim.seed)] = rnd.op(
                    label, experiments.run_sweep, item,
                    methods=("simulated",))
            else:
                key, network, target = item
                counts[key] = rnd.op(label, self._min_relays, network,
                                     target)
        return rows, counts

    def digest(self, outputs):
        rows, counts = outputs
        return ([(r.strategy, r.sweep_value, r.mu_p, r.mu_s, r.pi_p0,
                  r.pi_s0, r.ci_half_width, r.status)
                 for key in sorted(rows) for r in rows[key] or ()]
                + sorted(counts.items()))

    def check(self, outputs) -> list[str]:
        rows, counts = outputs
        failures = []
        if None not in rows.values():
            failures += self._check_simulate(
                [r for key in sorted(rows) for r in rows[key]])
        if None not in counts.values():
            relaxed = {}
            for lam_p in self.loads:
                traffic = TrafficParams(lam_p, 0.2)
                for i, (d_p, d_s) in enumerate(self.ceilings):
                    relaxed[(lam_p, i)] = bench_checks.relaxed_min_relays(
                        self.spec.network.take, traffic, d_p, d_s,
                        StrategyKind.ORDERED, self.n_max)
            failures += bench_checks.check_ladder(counts, relaxed,
                                                  len(self.ceilings))
        return failures

    def _check_simulate(self, rows) -> list[str]:
        """Re-runs each simulated point once, outside the timed rounds, for
        the half-width of mu_p, which the verb's rows do not carry."""
        spec = self.spec
        points = []
        for row in rows:
            if row.status != "ok":
                return [f"simulate lambda_p={row.sweep_value:g}: status "
                        f"{row.status}"]
            network = spec.network_at(row.sweep_value)
            kind = StrategyKind(row.strategy)
            params = spec.params_for(kind)
            outages = network.outages(kind)
            est = sim.run_replicated(network, params, network.traffic,
                                     replications=1, slots=self.slots,
                                     seed=row.seed)
            if (est.mu_p_hat, est.mu_s_hat) != (row.mu_p, row.mu_s):
                return [f"simulate lambda_p={row.sweep_value:g}: a re-run "
                        f"with the same seed gave other rates"]
            lower = rates.apply_sensing_errors(
                rates.rate_report(outages, params, network.traffic), params,
                network.sensing)
            upper = bench_checks.oracle_user_rates(outages, params,
                                                   network.traffic)
            points.append({
                "label": f"simulate {kind.value} lambda_p={row.sweep_value:g}"
                         f" seed {row.seed}",
                "mu_p": est.mu_p_hat, "ci_mu_p": est.ci["mu_p"],
                "lower_mu_p": lower.mu_p, "upper_mu_p": upper[0],
                "mu_s": est.mu_s_hat, "ci_mu_s": est.ci["mu_s"],
                "lower_mu_s": lower.mu_s, "upper_mu_s": upper[1]})
        return bench_checks.check_sensing_sim(points)

    def metrics(self, outputs, rounds) -> dict:
        _, counts = outputs
        return {
            "sim_slots_per_s": self.sim_slots * len(rounds)
            / sum(r.phase("simulate") for r in rounds),
            "min_relays_sum": sum(c for c in counts.values()
                                  if c is not None)}


WORKLOADS = {w.name: w for w in (ComparePerfect, OptimizePerfect, SensingN3)}
