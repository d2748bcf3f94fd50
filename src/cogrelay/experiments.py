"""Experiment specs, sweeps and the analytic-vs-simulation harness.

Spec files are flat structured text: named [section] headers with
key = value lines, vectors as comma-separated numbers, and rank
distributions as repeated `perm_p = 1,2 : 0.7` lines.  Example:

    [experiment]
    scenario   = fig3
    strategies = od, rd
    sweep      = lambda_p
    sweep_start = 0.1
    sweep_stop  = 0.5
    sweep_step  = 0.1

    [network]
    pu_pd = 0.1          # outage probabilities, or physical keys instead
    su_sd = 0.2
    pu_relay = 0.1, 0.02
    su_relay = 0.1, 0.1
    relay_pd = 0.1, 0.1
    relay_sd = 0.1, 0.1

    [strategy]
    omega = 0.5, 0.5
    alpha = 0.5, 0.5
    f_p = 1, 1
    f_s = 1, 1
    beta = 0.5, 0.5
    order = uniform

    [traffic]
    lambda_p = 0.2
    lambda_s = 0.2

    [qos]
    d_p_max = 1.6
    d_s_max = 3

    [sim]
    slots = 200000
    replications = 2
    seed = 20240
"""

from __future__ import annotations

import functools
import math
import subprocess
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .channel import SlotTiming, LinkParams, StrategyKind
from .errors import (ConfigError, NoFeasibleRelayCount, SpecParseError,
                     UnstableQueueError, check_integer)
from .network import (NetworkConfig, OutageTable, PhysicalChannels,
                      SensingErrorParams, TrafficParams)
from .orders import DENSE_LIMIT, OrderDistribution
from .qos import QosSpec, maximize_secondary_throughput, minimize_relay_count
from .rates import Evaluation, StrategyParams, evaluate
from .sim import run, run_replicated

CSV_COLUMNS = ("scenario", "strategy", "method", "sweep_var", "sweep_value",
               "mu_p", "mu_s", "pi_p0", "pi_s0", "d_p_total", "d_s_total",
               "min_relays", "status", "ci_half_width", "seed", "build")

STRATEGY_NAMES = {"od": StrategyKind.ORDERED, "rd": StrategyKind.RANDOM,
                  "rr": StrategyKind.ROUND_ROBIN}

MAX_SWEEP_POINTS = 10_000  # every verb runs every point of a sweep


@dataclass
class SimSettings:
    slots: int = 200_000
    replications: int = 1
    seed: int = 1

    def __post_init__(self):
        check_integer("simulation slots", self.slots, 1)
        check_integer("simulation replications", self.replications, 1)
        check_integer("simulation seed", self.seed, 0)


@dataclass
class OptimizerSettings:
    budget: int = 20_000
    restarts: int = 8
    n_max: int = 5

    def __post_init__(self):
        check_integer("optimizer budget", self.budget, 1)
        check_integer("optimizer restarts", self.restarts, 0)
        check_integer("optimizer n_max", self.n_max, 0)


@dataclass
class ExperimentSpec:
    scenario: str
    network: NetworkConfig
    strategies: list[StrategyKind]
    strategy_section: dict
    sweep_var: str
    sweep_values: list[float]
    qos: QosSpec
    sim: SimSettings
    optimizer: OptimizerSettings
    out_path: str | None = None

    def params_for(self, kind: StrategyKind) -> StrategyParams:
        return _build_params(self.strategy_section, kind,
                             self.network.n_relays)

    def network_at(self, value: float) -> NetworkConfig:
        traffic = replace(self.network.traffic, **{self.sweep_var: value})
        return replace(self.network, traffic=traffic)


def _parse_sections(text: str) -> dict[str, dict[str, list[tuple[int, str]]]]:
    sections: dict[str, dict[str, list[tuple[int, str]]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise SpecParseError(f"expected key = value, got {line!r}", lineno)
        if current is None:
            raise SpecParseError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise SpecParseError("empty key", lineno)
        sections[current].setdefault(key.lower(), []).append((lineno, value))
    if not sections:
        raise SpecParseError("spec file is empty")
    return sections


class _Section:
    def __init__(self, name: str, data: dict):
        self.name = name
        self.data = data

    def _single(self, key: str):
        if key not in self.data:
            return None
        entries = self.data[key]
        if len(entries) > 1:
            raise SpecParseError(f"duplicate key {key!r} in [{self.name}]",
                                 entries[1][0])
        return entries[0]

    def get(self, key: str, default=None):
        entry = self._single(key)
        return default if entry is None else entry[1]

    def number(self, key: str, default=None):
        entry = self._single(key)
        if entry is None:
            if default is None:
                raise SpecParseError(f"missing {key!r} in [{self.name}]")
            return default
        lineno, value = entry
        try:
            return float(value) if value.lower() != "inf" else math.inf
        except ValueError:
            raise SpecParseError(f"{key!r} is not a number: {value!r}", lineno)

    def integer(self, key: str, default=None):
        value = self.number(key, default)
        if not math.isfinite(value) or value != int(value):
            raise SpecParseError(f"{key!r} must be an integer")
        return int(value)

    def vector(self, key: str, default=None):
        entry = self._single(key)
        if entry is None:
            return default
        lineno, value = entry
        try:
            return np.array([float(v) for v in value.split(",") if v.strip()])
        except ValueError:
            raise SpecParseError(f"{key!r} is not a number list: {value!r}",
                                 lineno)

    def perms(self, key: str) -> dict[tuple[int, ...], float] | None:
        if key not in self.data:
            return None
        entries = {}
        for lineno, value in self.data[key]:
            if ":" not in value:
                raise SpecParseError(
                    f"{key!r} needs 'ranks : probability', got {value!r}", lineno)
            ranks, prob = value.split(":", 1)
            try:
                perm = tuple(int(v) for v in ranks.split(","))
                entries[perm] = entries.get(perm, 0.0) + float(prob)
            except ValueError:
                raise SpecParseError(f"malformed permutation line: {value!r}",
                                     lineno)
        return entries


def _build_network(section: _Section) -> tuple[NetworkConfig, int]:
    sensing = None
    if section.get("p_false_alarm") is not None:
        sensing = SensingErrorParams(
            section.vector("p_md_primary"),
            section.vector("p_md_secondary"),
            section.vector("p_false_alarm"))
    if section.get("pu_pd") is not None:
        pu_relay = section.vector("pu_relay", np.zeros(0))
        table = OutageTable(section.number("pu_pd"), section.number("su_sd"),
                            pu_relay,
                            section.vector("su_relay", np.zeros(0)),
                            section.vector("relay_pd", np.zeros(0)),
                            section.vector("relay_sd", np.zeros(0)))
        channels = table
    else:
        timing = SlotTiming(section.number("slot_seconds"),
                            section.number("sensing_seconds", 0.0),
                            section.number("feedback_seconds", 0.0),
                            section.number("packet_bits"),
                            section.number("bandwidth_hz"))

        def links(prefix):
            gammas = section.vector(f"{prefix}_gamma")
            sigmas = section.vector(f"{prefix}_sigma")
            if gammas is None or sigmas is None:
                raise SpecParseError(f"missing {prefix}_gamma/_sigma in "
                                     f"[{section.name}]")
            if gammas.size != sigmas.size:
                raise ConfigError(f"{prefix} gamma/sigma lengths differ")
            return tuple(LinkParams(g, s) for g, s in zip(gammas, sigmas))

        channels = PhysicalChannels(
            timing,
            links("pu_pd")[0], links("su_sd")[0],
            links("pu_relay"), links("su_relay"),
            links("relay_pd"), links("relay_sd"))
    traffic = TrafficParams(0.0, 0.0)  # replaced after [traffic] parses
    return NetworkConfig(channels, traffic, sensing), channels.n_relays


def _build_params(strategy_section: dict, kind: StrategyKind, n: int,
                  checking: bool = False) -> StrategyParams:
    """The `[strategy]` section's parameters for `kind` over n relays.

    `checking` builds them only to check every entry, as `load_spec` does.
    The uniform od order over n! permutations is refused past DENSE_LIMIT
    relays, so there it stands as the uniform first-rank profile, which
    holds at any n; only a verb that reads the order (analyze, simulate,
    compare) builds the uniform one, and reports that it cannot."""
    section = _Section("strategy", strategy_section)
    omega = section.vector("omega", np.full(n, 1.0 / n) if n else np.zeros(0))
    alpha = section.vector("alpha", np.full(n, 0.5))
    f_p = section.vector("f_p", np.ones(n))
    f_s = section.vector("f_s", np.ones(n))
    kw = {}
    if kind is StrategyKind.RANDOM:
        beta = section.vector("beta")
        kw["beta"] = beta if beta is not None else np.full(n, 1.0 / n)
    if kind is StrategyKind.ORDERED:
        for name in ("order_p", "order_s"):
            entries = section.perms("perm_p" if name == "order_p" else "perm_s")
            if entries is not None:
                kw[name] = OrderDistribution(n, entries)
            elif section.get("order", "uniform").lower() == "uniform":
                kw[name] = (OrderDistribution.from_first_rank_profile(
                    np.full(n, 1.0 / n)) if checking and n > DENSE_LIMIT
                    else OrderDistribution.uniform(n))
            else:
                raise SpecParseError(f"unknown order {section.get('order')!r}")
    return StrategyParams(kind, omega, alpha, f_p, f_s, **kw)


def load_spec(path: str | Path) -> ExperimentSpec:
    """Parse and validate an experiment spec file."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as err:
        raise SpecParseError(f"spec file is not UTF-8 text: {err.reason}")
    sections = _parse_sections(text)

    exp = _Section("experiment", sections.get("experiment", {}))
    scenario = exp.get("scenario", Path(path).stem)
    strategies = []
    for name in (exp.get("strategies", "od") or "od").split(","):
        name = name.strip().lower()
        if name not in STRATEGY_NAMES:
            raise SpecParseError(f"unknown strategy {name!r}")
        strategies.append(STRATEGY_NAMES[name])

    network, n = _build_network(_Section("network", sections.get("network", {})))
    traffic_sec = _Section("traffic", sections.get("traffic", {}))
    traffic = TrafficParams(traffic_sec.number("lambda_p", 0.0),
                            traffic_sec.number("lambda_s", 0.0))
    network = replace(network, traffic=traffic)

    sweep_var = (exp.get("sweep", "lambda_p") or "lambda_p").lower()
    if sweep_var not in ("lambda_p", "lambda_s"):
        raise SpecParseError(f"unsupported sweep variable {sweep_var!r}")
    start = exp.number("sweep_start", getattr(traffic, sweep_var))
    stop = exp.number("sweep_stop", start)
    step = exp.number("sweep_step", 1.0)
    if not step > 0:
        raise SpecParseError("sweep_step must be > 0")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise SpecParseError("sweep_start and sweep_stop must be finite")
    if stop < start:
        raise SpecParseError("sweep_stop must be >= sweep_start")
    if (stop - start) / step >= MAX_SWEEP_POINTS:
        raise SpecParseError(f"the sweep has more than {MAX_SWEEP_POINTS} "
                             f"points")
    values = []
    v = start
    while v <= stop + 1e-12:
        values.append(round(v, 12))
        if v + step == v:
            raise SpecParseError(f"sweep_step {step:g} does not advance the "
                                 f"sweep value {v:g}")
        v += step

    qos_sec = _Section("qos", sections.get("qos", {}))
    qos = QosSpec(qos_sec.number("d_p_max", math.inf),
                  qos_sec.number("d_s_max", math.inf), traffic)

    sim_sec = _Section("sim", sections.get("sim", {}))
    sim = SimSettings(slots=sim_sec.integer("slots", 200_000),
                      replications=sim_sec.integer("replications", 1),
                      seed=sim_sec.integer("seed", 1))

    opt_sec = _Section("optimizer", sections.get("optimizer", {}))
    optimizer = OptimizerSettings(budget=opt_sec.integer("budget", 20_000),
                                  restarts=opt_sec.integer("restarts", 8),
                                  n_max=opt_sec.integer("n_max", n))

    spec = ExperimentSpec(
        scenario=scenario, network=network, strategies=strategies,
        strategy_section=sections.get("strategy", {}),
        sweep_var=sweep_var, sweep_values=values, qos=qos, sim=sim,
        optimizer=optimizer, out_path=exp.get("out"))

    for kind in strategies:  # validate the per-strategy parameters eagerly
        _build_params(spec.strategy_section, kind, n, checking=True)
    return spec


@functools.lru_cache(maxsize=1)
def build_identifier() -> str:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
            timeout=5)
        if described.returncode == 0 and described.stdout.strip():
            return described.stdout.strip()
    except OSError:
        pass
    return f"cogrelay-{__version__}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if math.isinf(value):
            return "inf"
        return format(value, ".10g")
    return str(value)


@dataclass
class Row:
    """One CSV output row; unset quantities stay None and render empty."""

    scenario: str
    strategy: str
    method: str
    sweep_var: str
    sweep_value: float
    mu_p: float | None = None
    mu_s: float | None = None
    pi_p0: float | None = None
    pi_s0: float | None = None
    d_p_total: float | None = None
    d_s_total: float | None = None
    min_relays: int | None = None
    status: str = "ok"
    ci_half_width: float | None = None
    seed: int | None = None
    build: str = field(default_factory=build_identifier)

    def as_csv(self) -> str:
        return ",".join(_fmt(getattr(self, col)) for col in CSV_COLUMNS)


def write_rows(rows, path: str | Path | None) -> str:
    text = "\n".join([",".join(CSV_COLUMNS)] + [r.as_csv() for r in rows]) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _params_by_strategy(spec: ExperimentSpec) -> dict:
    """Each strategy's parameters, built once for the whole sweep (no
    sweep variable enters them), or the `ConfigError` building them
    raised, which each row of that strategy then reports."""
    built = {}
    for kind in spec.strategies:
        try:
            built[kind] = spec.params_for(kind)
        except ConfigError as err:
            built[kind] = err
    return built


def _checked(params: StrategyParams | ConfigError) -> StrategyParams:
    """`params`, or the error that building them raised, raised again."""
    if isinstance(params, ConfigError):
        raise params
    return params


def _analytic_row(spec: ExperimentSpec, kind: StrategyKind, value: float,
                  params: StrategyParams | ConfigError) -> Row:
    network = spec.network_at(value)
    row = Row(spec.scenario, kind.value, "analytic", spec.sweep_var, value,
              seed=spec.sim.seed)
    try:
        _fill_analytic(row, evaluate(network.outages(kind), _checked(params),
                                     network.traffic, network.sensing))
    except ConfigError as err:
        row.status = f"error:{err}"
    return row


def _fill_analytic(row: Row, ev: Evaluation) -> None:
    row.mu_p, row.mu_s = ev.report.mu_p, ev.report.mu_s
    row.pi_p0, row.pi_s0 = ev.report.pi_p0, ev.report.pi_s0
    row.d_p_total, row.d_s_total = ev.d_p, ev.d_s
    row.status = ev.status


def _simulated_row(spec: ExperimentSpec, kind: StrategyKind, value: float,
                   params: StrategyParams | ConfigError) -> Row:
    network = spec.network_at(value)
    row = Row(spec.scenario, kind.value, "simulated", spec.sweep_var, value,
              seed=spec.sim.seed)
    try:
        est = run_replicated(network, _checked(params), network.traffic,
                             replications=spec.sim.replications,
                             slots=spec.sim.slots, seed=spec.sim.seed)
        row.mu_p, row.mu_s = est.mu_p_hat, est.mu_s_hat
        row.pi_p0, row.pi_s0 = est.pi_p0_hat, est.pi_s0_hat
        row.d_p_total, row.d_s_total = est.d_p_total_hat, est.d_s_total_hat
        row.ci_half_width = est.ci["mu_s"]
    except (ConfigError, UnstableQueueError) as err:
        row.status = f"error:{err}"
    return row


def run_sweep(spec: ExperimentSpec, methods=("analytic", "simulated")) -> list[Row]:
    """Rows for every sweep point x strategy x method, in deterministic
    sweep order.  Errors are recorded in the row status and the sweep
    continues."""
    rows = []
    built = _params_by_strategy(spec)
    for value in spec.sweep_values:
        for kind in spec.strategies:
            if "analytic" in methods:
                rows.append(_analytic_row(spec, kind, value, built[kind]))
            if "simulated" in methods:
                rows.append(_simulated_row(spec, kind, value, built[kind]))
    return rows


def run_optimize(spec: ExperimentSpec) -> list[Row]:
    """Optimized secondary rate per sweep point and strategy."""
    rows = []
    for value in spec.sweep_values:
        network = spec.network_at(value)
        qos = QosSpec(spec.qos.d_p_max, spec.qos.d_s_max, network.traffic)
        for kind in spec.strategies:
            row = Row(spec.scenario, kind.value, "analytic", spec.sweep_var,
                      value, seed=spec.sim.seed)
            result = maximize_secondary_throughput(
                network, kind, qos, budget=spec.optimizer.budget,
                restarts=spec.optimizer.restarts, seed=spec.sim.seed)
            if result.feasible:
                _fill_analytic(row, evaluate(
                    network.outages(kind), result.best_params,
                    network.traffic, network.sensing))
            else:
                row.status = f"infeasible:{result.first_violation}"
            rows.append(row)
    return rows


def run_min_relays(spec: ExperimentSpec) -> list[Row]:
    """Minimum relay count per sweep point and strategy."""
    rows = []
    for value in spec.sweep_values:
        network = spec.network_at(value)
        qos = QosSpec(spec.qos.d_p_max, spec.qos.d_s_max, network.traffic)
        for kind in spec.strategies:
            row = Row(spec.scenario, kind.value, "analytic", spec.sweep_var,
                      value, seed=spec.sim.seed)
            try:
                row.min_relays = minimize_relay_count(
                    network, kind, qos, spec.optimizer.n_max,
                    budget=spec.optimizer.budget,
                    restarts=spec.optimizer.restarts, seed=spec.sim.seed)
            except NoFeasibleRelayCount:
                row.status = "infeasible:relay-count"
            rows.append(row)
    return rows


@dataclass(frozen=True, slots=True)
class Comparison:
    """One analytic-vs-simulated quantity.  It passes when the gap is
    within max(3 * CI half-width, 0.01); the tolerance and the verdict
    follow from the stored values."""

    strategy: str
    sweep_value: float
    quantity: str
    analytic: float
    simulated: float
    ci_half_width: float

    @property
    def tolerance(self) -> float:
        return max(3 * self.ci_half_width, 0.01)

    @property
    def passed(self) -> bool:
        return abs(self.analytic - self.simulated) <= self.tolerance


class ComparisonTable(Sequence):
    """Comparisons stored by column; indexing and iteration give
    `Comparison` rows.  A row costs three references and three unboxed
    floats, under half of a row kept as its own objects, so results held
    from many compare runs stay small."""

    __slots__ = ("_strategy", "_sweep_value", "_quantity", "_numbers")

    def __init__(self, rows: list[Comparison]):
        self._strategy = tuple(c.strategy for c in rows)
        self._sweep_value = tuple(c.sweep_value for c in rows)
        self._quantity = tuple(c.quantity for c in rows)
        self._numbers = array("d", [x for c in rows for x in
                                    (c.analytic, c.simulated, c.ci_half_width)])

    def __len__(self) -> int:
        return len(self._quantity)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        return Comparison(self._strategy[i], self._sweep_value[i],
                          self._quantity[i], *self._numbers[3 * i:3 * i + 3])


def compare_point(network: NetworkConfig, params: StrategyParams,
                  *, slots: int, seed: int) -> list[Comparison]:
    """Analytic vs simulated values for one operating point.

    The primary service rate is measured with a saturated source; the
    secondary-side quantities and relay arrival rates come from a
    true-queue run.  A quantity passes when the gap is within
    max(3 * CI half-width, 0.01).
    """
    traffic = network.traffic
    saturated = TrafficParams(1.0, 0.0)
    outages = network.outages(params.strategy)
    report = evaluate(outages, params, traffic, network.sensing).report
    sat_report = evaluate(outages, params, saturated, network.sensing).report
    mode = "true_queues" if network.sensing is None else "saturated_relays"

    sat = run(network, params, saturated, mode=mode, slots=slots, seed=seed)
    est = run(network, params, traffic, mode=mode, slots=slots, seed=seed + 1)

    out = []

    def check(quantity, analytic, simulated, ci):
        if math.isnan(simulated):  # queue never nonempty: nothing to compare
            return
        # interned: results kept from many runs share one copy of a name
        out.append(Comparison("", 0.0, sys.intern(quantity), analytic,
                              simulated, ci))

    check("mu_p_saturated", sat_report.mu_p, sat.mu_p_hat, sat.ci["mu_p"])
    if report.stable_p and report.stable_s:
        check("mu_s", report.mu_s, est.mu_s_hat, est.ci["mu_s"])
        check("pi_p0", report.pi_p0, est.pi_p0_hat, est.ci["pi_p0"])
        check("pi_s0", report.pi_s0, est.pi_s0_hat, est.ci["pi_s0"])
        for k in range(network.n_relays):
            check(f"lambda_p{k + 1}", report.lambda_pk[k],
                  est.lambda_pk_hat[k], est.ci["lambda_pk"][k])
            check(f"lambda_s{k + 1}", report.lambda_sk[k],
                  est.lambda_sk_hat[k], est.ci["lambda_sk"][k])
    return out


def compare_analytic_sim(spec: ExperimentSpec) -> ComparisonTable:
    """Discrepancy report over the whole sweep; a failed comparison makes
    the CLI exit nonzero."""
    results = []
    built = _params_by_strategy(spec)
    for value in spec.sweep_values:
        network = spec.network_at(value)
        for kind in spec.strategies:
            for comp in compare_point(network, _checked(built[kind]),
                                      slots=spec.sim.slots,
                                      seed=spec.sim.seed):
                results.append(replace(comp, strategy=kind.value,
                                       sweep_value=value))
    return ComparisonTable(results)
