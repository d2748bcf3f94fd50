"""Constrained QoS optimization over the strategy parameters.

Two formulations: maximize the secondary service rate subject to
end-to-end delay ceilings and stability of every queue, and find the
smallest relay count that admits a feasible point.

The solver is a deterministic multi-start projected local search:
coordinate moves with box projection for the per-relay probabilities and
simplex projection for the schedule, assignment and rank-distribution
weights.  Restarts draw their starting points from independent seeded
streams, and results merge by best secondary rate with lexicographic
tie-breaking, so output depends only on (configuration, budget, seed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import StrategyKind
from .errors import ConfigError, InfeasibleError, NoFeasibleRelayCount
from .network import NetworkConfig, OutageTable, TrafficParams
from .orders import (DENSE_LIMIT, OrderDistribution, first_rank_perm,
                     rank_order)
from .rates import (EPS_STAB, StrategyParams, evaluate, primary_rate_bound,
                    rate_report, sensing_terms)

DENSE_ORDER_LIMIT = 5  # optimize the full N!-simplex only up to here
_BIG = 1e6             # stands in for an infinite violation in the merit
CEILING_MESH = 32      # cells per capture total in `secondary_rate_ceiling`


@dataclass(frozen=True)
class QosSpec:
    """Delay ceilings (slots; math.inf disables one) and offered traffic."""

    d_p_max: float
    d_s_max: float
    traffic: TrafficParams

    def __post_init__(self):
        if not (self.d_p_max > 0 and self.d_s_max > 0):
            raise ConfigError("delay ceilings must be positive")


@dataclass(frozen=True)
class OptResult:
    best_params: StrategyParams | None
    best_mu_s: float
    feasible: bool
    constraint_residuals: dict
    restarts_used: int
    evaluations: int
    budget_exhausted: bool
    first_violation: str | None  # "stability" or "delay" when infeasible


def _dense_orders(n: int) -> bool:
    return n <= DENSE_ORDER_LIMIT


class _Space:
    """Search-space layout for one strategy: named box and simplex groups.

    Every point the search builds lies in its box or on its simplex, so
    `to_params` skips the parameter checks; the rank order of each
    permutation it can put in a distribution is worked out here, once.
    """

    def __init__(self, strategy: StrategyKind, n: int):
        self.strategy = strategy
        self.n = n
        self.box = ["alpha", "f_p", "f_s"]
        self.simplex = {"omega": n}
        if strategy is StrategyKind.RANDOM:
            self.simplex["beta"] = n
        if strategy is StrategyKind.ORDERED:
            if _dense_orders(n):
                self.perms = list(itertools.permutations(range(1, n + 1)))
                self.simplex["rho_p"] = len(self.perms)
                self.simplex["rho_s"] = len(self.perms)
            else:
                self.perms = None
                self.simplex["beta_p"] = n
                self.simplex["beta_s"] = n
            # (permutation, rank order) of each rho_p or beta_p coordinate
            self._ranked = [(perm, rank_order(perm)) for perm in (
                self.perms if self.perms is not None
                else [first_rank_perm(n, k) for k in range(n)])]

    def to_params(self, point: dict) -> StrategyParams:
        """The point as unchecked parameters (see the class docstring)."""
        kw = {}
        if self.strategy is StrategyKind.RANDOM:
            kw["beta"] = point["beta"]
        if self.strategy is StrategyKind.ORDERED:
            for name, key in (("order_p", "_p"), ("order_s", "_s")):
                if self.perms is not None:
                    rho = point["rho" + key]
                    weights, probs = rho.tolist(), (rho / rho.sum()).tolist()
                else:  # the first-rank profile's deterministic completion
                    weights = probs = point["beta" + key].tolist()
                kw[name] = self._dist(weights, probs)
        return StrategyParams._unchecked(
            self.strategy, point["omega"], point["alpha"], point["f_p"],
            point["f_s"], **kw)

    def _dist(self, weights: list[float],
              probs: list[float]) -> OrderDistribution:
        """The distribution putting probs[i] on the i-th permutation,
        wherever weights[i] is positive."""
        entries = {}
        support = []
        for (perm, order), weight, prob in zip(self._ranked, weights, probs):
            if weight > 0:
                entries[perm] = prob
                support.append((prob, order))
        return OrderDistribution._unchecked(self.n, entries, tuple(support))

    def from_params(self, params: StrategyParams) -> dict:
        point = {"alpha": params.alpha.copy(), "f_p": params.f_p.copy(),
                 "f_s": params.f_s.copy(), "omega": params.omega.copy()}
        if self.strategy is StrategyKind.RANDOM:
            point["beta"] = params.beta.copy()
        if self.strategy is StrategyKind.ORDERED:
            if self.perms is not None:
                point["rho_p"] = np.array(
                    [params.order_p.entries.get(p, 0.0) for p in self.perms])
                point["rho_s"] = np.array(
                    [params.order_s.entries.get(p, 0.0) for p in self.perms])
            else:
                point["beta_p"] = params.order_p.first_rank_profile()
                point["beta_s"] = params.order_s.first_rank_profile()
        return point

    def random_point(self, rng: np.random.Generator) -> dict:
        point = {name: rng.uniform(0, 1, self.n) for name in self.box}
        for name, size in self.simplex.items():
            point[name] = rng.dirichlet(np.ones(size)) if size else np.zeros(0)
        return point

    def flat(self, point: dict) -> tuple:
        names = self.box + sorted(self.simplex)
        return tuple(float(v) for name in names for v in point[name])


def _normalized(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    if total <= 0:
        return np.full(v.size, 1.0 / v.size)
    return v / total


class _Evaluator:
    """Caches the problem data and scores candidate points.

    Merit is lexicographic: total constraint violation first (0 means
    feasible), then the negated secondary rate.
    """

    def __init__(self, network: NetworkConfig, strategy: StrategyKind,
                 qos: QosSpec):
        self.outages = network.outages(strategy)
        self.sensing = (None if network.sensing is None
                        else sensing_terms(network.sensing))
        self.qos = qos
        self.traffic = qos.traffic
        self.evaluations = 0
        self.relay_keys = [(f"stability_pk{k + 1}", f"stability_sk{k + 1}")
                           for k in range(network.n_relays)]

    def residuals(self, params: StrategyParams) -> tuple[dict, float]:
        self.evaluations += 1
        ev = evaluate(self.outages, params, self.traffic, self.sensing)
        report = ev.report
        res = {
            "stability_p": report.mu_p - self.traffic.lambda_p - EPS_STAB,
            "stability_s": report.mu_s - self.traffic.lambda_s - EPS_STAB,
        }
        for (key_p, key_s), lam_p, mu_p, lam_s, mu_s in zip(
                self.relay_keys, report.lambda_pk.tolist(),
                report.mu_pk.tolist(), report.lambda_sk.tolist(),
                report.mu_sk.tolist()):
            res[key_p] = math.inf if lam_p == 0.0 else mu_p - lam_p - EPS_STAB
            res[key_s] = math.inf if lam_s == 0.0 else mu_s - lam_s - EPS_STAB
        if all(v >= 0 for v in res.values()):
            res["delay_p"] = self.qos.d_p_max - ev.d_p
            res["delay_s"] = self.qos.d_s_max - ev.d_s
        else:
            res["delay_p"] = -math.inf
            res["delay_s"] = -math.inf
        return res, report.mu_s

    def merit(self, params: StrategyParams):
        res, mu_s = self.residuals(params)
        violation = sum(min(max(0.0, -v), _BIG) for v in res.values())
        return violation, -mu_s, res, mu_s


def _coordinate_moves(space: _Space, point: dict, scale: float):
    """Candidate single-coordinate moves at the given scale."""
    for name in space.box:
        vec = point[name]
        for i in range(vec.size):
            for delta in (scale, -scale):
                new = vec.copy()
                new[i] = min(1.0, max(0.0, new[i] + delta))
                if new[i] != vec[i]:
                    yield name, new
    for name in space.simplex:
        vec = point[name]
        for i in range(vec.size):
            if vec.size < 2:
                continue
            toward = vec * (1.0 - scale)
            toward[i] += scale
            yield name, _normalized(toward)
            if vec[i] > 0.0:
                away = vec.copy()
                away[i] = max(0.0, away[i] - scale)
                yield name, _normalized(away)


_SCALES = (0.5, 0.25, 0.1, 0.04, 0.015, 0.005, 0.002)


def _local_search(space, evaluator, start, budget_left):
    point = {k: np.asarray(v, dtype=float).copy() for k, v in start.items()}
    best = evaluator.merit(space.to_params(point))
    used = 1
    for scale in _SCALES:
        improved = True
        while improved and used < budget_left:
            improved = False
            for name, vec in _coordinate_moves(space, point, scale):
                if used >= budget_left:
                    break
                trial = dict(point)
                trial[name] = vec
                cand = evaluator.merit(space.to_params(trial))
                used += 1
                if cand[:2] < best[:2]:
                    best = cand
                    point = trial
                    improved = True
    return point, best, used


def _designed_starts(space: _Space, outages: OutageTable) -> list[dict]:
    n = space.n
    starts = []

    def base(alpha, f_p, f_s):
        point = {"alpha": np.full(n, alpha), "f_p": np.full(n, f_p),
                 "f_s": np.full(n, f_s),
                 "omega": np.full(n, 1.0 / n) if n else np.zeros(0)}
        for name, size in space.simplex.items():
            if name != "omega":
                point[name] = (np.full(size, 1.0 / size) if size
                               else np.zeros(0))
        return point

    starts.append(base(0.5, 1.0, 1.0))
    starts.append(base(0.5, 0.0, 0.0))          # no relaying fallback
    starts.append(base(0.3, 1.0, 1.0))
    starts.append(base(0.7, 1.0, 0.0))
    if n:
        # concentrate the decoding role on the strongest relay per user
        for which, vec in (("p", outages.pu_relay), ("s", outages.su_relay)):
            point = base(0.5, 1.0, 1.0)
            vertex = np.zeros(n)
            vertex[int(np.argmin(vec))] = 1.0
            if "beta" in point:
                point["beta"] = vertex
            if "beta_p" in point:
                point["beta_p" if which == "p" else "beta_s"] = vertex
            if "rho_p" in point:
                dist = OrderDistribution.from_first_rank_profile(vertex)
                key = "rho_p" if which == "p" else "rho_s"
                point[key] = np.array(
                    [dist.entries.get(p, 0.0) for p in space.perms])
            starts.append(point)
    if n >= 2:
        # dedicated relays: the primary's relaying goes to its strongest
        # relay and the secondary's to the strongest of the others, with
        # the schedule split evenly or given wholly to the secondary's
        # relay (no primary relaying).  When the secondary delay ceiling
        # binds, moving schedule from the primary's relay to the
        # secondary's needs omega and f_p to move together, which no
        # single-coordinate move does, so the search needs a start there.
        own_p = int(np.argmin(outages.pu_relay))
        own_s = int(np.argmin(np.where(np.arange(n) == own_p, np.inf,
                                       outages.su_relay)))
        for share_p in (0.5, 0.0):
            point = base(0.5, 0.0, 0.0)
            point["alpha"][[own_p, own_s]] = (1.0, 0.0)
            point["f_p"][own_p] = 1.0 if share_p else 0.0
            point["f_s"][own_s] = 1.0
            point["omega"] = np.zeros(n)
            point["omega"][[own_p, own_s]] = (share_p, 1.0 - share_p)
            starts.append(point)
    return starts


def maximize_secondary_throughput(
        network: NetworkConfig, strategy: StrategyKind, qos: QosSpec, *,
        budget: int = 20_000, restarts: int = 8, seed: int = 0,
        extra_starts: tuple[StrategyParams, ...] = ()) -> OptResult:
    """Best feasible secondary service rate found within `budget` rate
    evaluations, or the least-infeasible point when none is found.

    `extra_starts` seeds additional local searches (e.g. a solution found
    for another relay count, grown by `_extend`); each must be for this
    strategy and relay count.
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    n = network.n_relays
    for start in extra_starts:
        if start.strategy is not strategy or start.n_relays != n:
            raise ConfigError(
                f"extra start is a {start.strategy.value} point over "
                f"{start.n_relays} relays; the search is {strategy.value} "
                f"over {n}")
    if strategy is StrategyKind.ORDERED and n > DENSE_LIMIT:
        raise ConfigError(f"ordered-strategy search supports at most "
                          f"{DENSE_LIMIT} relays")
    evaluator = _Evaluator(network, strategy, qos)

    # a primary queue that cannot be stabilized even at the rate bound
    # makes the whole problem infeasible outright
    mu_p_cap = primary_rate_bound(evaluator.outages, strategy)
    if network.sensing is not None and n > 0:
        mu_p_cap *= float(np.max(1.0 - network.sensing.p_md_primary ** 2))
    if qos.traffic.lambda_p >= mu_p_cap - EPS_STAB:
        return OptResult(
            best_params=None, best_mu_s=0.0, feasible=False,
            constraint_residuals={"stability_p": float(
                mu_p_cap - qos.traffic.lambda_p - EPS_STAB)},
            restarts_used=0, evaluations=0, budget_exhausted=False,
            first_violation="stability")

    space = _Space(strategy, n)
    starts = _designed_starts(space, evaluator.outages)
    starts.extend(space.from_params(p) for p in extra_starts)

    best_point = None
    best = (math.inf, math.inf, {}, 0.0)
    best_flat = ()
    restarts_used = 0
    index = 0
    while evaluator.evaluations < budget:
        if index < len(starts):
            start = starts[index]
        elif index < len(starts) + restarts:
            rng = np.random.default_rng([seed, index - len(starts)])
            start = space.random_point(rng)
        else:
            break
        index += 1
        restarts_used += 1
        point, merit, _ = _local_search(space, evaluator, start,
                                        budget - evaluator.evaluations)
        flat = space.flat(point)
        if merit[:2] < best[:2] or (merit[:2] == best[:2] and
                                    (best_point is None or flat < best_flat)):
            best = merit
            best_point = point
            best_flat = flat

    violation, _, residuals, mu_s = best
    feasible = violation == 0.0
    first = None
    if not feasible:
        stability_bad = any(v < 0 for k, v in residuals.items()
                            if k.startswith("stability"))
        first = "stability" if stability_bad else "delay"
    return OptResult(
        best_params=_checked(space.to_params(best_point)) if best_point
        else None,
        best_mu_s=float(mu_s) if feasible else 0.0,
        feasible=bool(feasible),
        constraint_residuals={k: float(v) for k, v in residuals.items()},
        restarts_used=restarts_used,
        evaluations=evaluator.evaluations,
        budget_exhausted=evaluator.evaluations >= budget,
        first_violation=first)


def _checked(params: StrategyParams) -> StrategyParams:
    """`params` rebuilt through the checking constructors."""
    orders = {name: replace(getattr(params, name))
              for name in ("order_p", "order_s")
              if getattr(params, name) is not None}
    return replace(params, **orders)


def solve_feasibility_saturated(outages: OutageTable, params: StrategyParams,
                                qos: QosSpec) -> tuple[np.ndarray, np.ndarray]:
    """Feasible relay-schedule split with saturated acceptance (f = 1).

    With all acceptance probabilities one, the user rates and the relay
    arrival rates are constants, and feasibility reduces to the linear
    system lambda_pk < z_k * c_pk, lambda_sk < y_k * c_sk over the simplex
    sum(z + y) = 1, with omega_k = z_k + y_k and alpha_k = z_k / omega_k.
    Returns (z, y); raises InfeasibleError naming the binding constraints.
    """
    n = outages.n_relays
    ones = np.ones(n)
    sat = replace(params, f_p=ones, f_s=ones)
    traffic = qos.traffic
    report = rate_report(outages, sat, traffic)
    bad = []
    if not report.stable_p:
        bad.append("primary stability")
    if report.stable_p and not report.stable_s:
        bad.append("secondary stability")
    if bad:
        raise InfeasibleError(bad)

    idle = report.pi_p0 * report.pi_s0
    c_p = idle * (1.0 - outages.relay_pd)
    c_s = idle * (1.0 - outages.relay_sd)
    lb_z = np.zeros(n)
    lb_y = np.zeros(n)
    for k in range(n):
        if report.lambda_pk[k] > 0:
            if c_p[k] <= 0:
                bad.append(f"primary-relay-{k + 1} stability")
                continue
            lb_z[k] = (report.lambda_pk[k] + EPS_STAB) / c_p[k]
        if report.lambda_sk[k] > 0:
            if c_s[k] <= 0:
                bad.append(f"secondary-relay-{k + 1} stability")
                continue
            lb_y[k] = (report.lambda_sk[k] + EPS_STAB) / c_s[k]
    if bad:
        raise InfeasibleError(bad)
    surplus = 1.0 - lb_z.sum() - lb_y.sum()
    if surplus < 0:
        raise InfeasibleError(
            [f"relay stability: schedule mass {lb_z.sum() + lb_y.sum():.6g} "
             f"exceeds 1"])
    z = lb_z + surplus / (2 * n)
    y = lb_y + surplus / (2 * n)
    return z, y


def recover_schedule(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(omega, alpha) from the saturated-feasibility variables."""
    omega = z + y
    alpha = np.where(omega > 0, z / np.where(omega > 0, omega, 1.0), 0.0)
    return omega, alpha


def _pooled_arrivals(lam: float, direct_outage: float,
                     capture: np.ndarray) -> np.ndarray:
    """Arrivals Lambda = lam d C / (1 - d + d C) that a user's relaying
    queues pool at each capture total C (d: the direct-link outage), with
    0, a lower bound, where the user's service rate is 0."""
    bracket = 1.0 - direct_outage + direct_outage * capture
    pooled = lam / bracket * direct_outage * capture
    return np.where(bracket > 0, pooled, 0.0)


def secondary_rate_ceiling(outages: OutageTable,
                           qos: QosSpec) -> float | None:
    """Upper bound on the secondary service rate of any operating point,
    of any strategy, that meets the delay ceilings of `qos` over
    `outages`; None certifies that no point meets them.

    The bound relaxes the model in `rates`:

    1. The user rates depend on the strategy only through the capture
       totals C_p = sum_k cap_pk in [0, 1 - prod_k pu_relay[k]] and
       C_s = sum_k cap_sk in [0, 1 - prod_k su_relay[k]], which are let
       vary independently.  Given (C_p, C_s) the chain mu_p -> pi_p0 ->
       mu_s -> pi_s0 is exact, and so are the pooled relay arrivals
       Lambda_P = (1 - pi_p0) pu_pd C_p and Lambda_S = (1 - pi_s0) pi_p0
       su_sd C_s, which depend on their own capture total only.
    2. A user's relayed delay term sum_k l_k (1 - l_k) / (m_k - l_k) is
       at least L (1 - L) / (M - L) of one queue with the pooled rates
       L = sum_k l_k, M = sum_k m_k.
    3. The relays serve both pooled queues at M_P + M_S <= max(1 - relay
       outage) pi_p0 pi_s0 in all.
    4. The primary ceiling needs M_P >= Lambda_P + Lambda_P (1 -
       Lambda_P) / (lambda_p (d_p_max - D_p)), D_p = (1 - lambda_p) /
       (mu_p - lambda_p); the secondary gets the rest and must then meet
       d_s_max.  Stability is relaxed to a strict inequality.

    The (C_p, C_s) rectangle is cut into CEILING_MESH x CEILING_MESH
    closed cells, and each cell is scored at the most favourable value
    of every term over the cell: mu_p, pi_p0, mu_s and pi_s0 grow with
    both totals, so they are taken at the cell's upper corner, and D_p
    and D_s follow from those; Lambda_P and Lambda_S grow with their own
    total, so they are taken at its lower end; and Lambda (1 - Lambda) is
    concave, so over [Lambda(lower), Lambda(upper)] it is at least the
    smaller of its two end values.  A point of a cell that meets every
    condition of the relaxation therefore makes its cell pass, with an
    mu_s no larger than the cell's, so the result bounds the whole
    continuum, not only the mesh; None is a proof of infeasibility at
    any resolution.

    Sensing errors.  At the same parameters, `apply_sensing_errors`
    scales mu_p, the secondary's conditional service and the relay
    service by factors in [0, 1] and leaves every relay arrival rate as
    it is (the smaller pi_p0 and pi_s0 cancel against the smaller
    service).  So every queue is at most as fast and no slower to fill:
    a point feasible under sensing errors is feasible, with no smaller
    mu_s, under perfect sensing, and the bound holds for both.
    """
    lam_p, lam_s = qos.traffic.lambda_p, qos.traffic.lambda_s
    pu_pd, su_sd = float(outages.pu_pd), float(outages.su_sd)
    edges_p = np.linspace(0.0, 1.0 - np.prod(outages.pu_relay),
                          CEILING_MESH + 1)
    edges_s = np.linspace(0.0, 1.0 - np.prod(outages.su_relay),
                          CEILING_MESH + 1)
    relay_best = np.max(1.0 - np.concatenate((outages.relay_pd,
                                              outages.relay_sd)), initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # primary terms, one per C_p cell
        mu_p = 1.0 - pu_pd + pu_pd * edges_p[1:]
        pi_p0 = 1.0 - lam_p / mu_p
        d_p = (1.0 - lam_p) / (mu_p - lam_p)
        pool_p = _pooled_arrivals(lam_p, pu_pd, edges_p)
        low_p = pool_p[:-1]
        spread_p = np.minimum(pool_p[:-1] * (1.0 - pool_p[:-1]),
                              pool_p[1:] * (1.0 - pool_p[1:]))
        primary_ok = (mu_p > lam_p) & np.where(low_p > 0, d_p < qos.d_p_max,
                                               d_p <= qos.d_p_max)
        need_p = low_p + np.where(
            spread_p > 0, spread_p / (lam_p * (qos.d_p_max - d_p)), 0.0)

        # secondary terms, C_p cells down and C_s cells across
        mu_s = pi_p0[:, None] * (1.0 - su_sd + su_sd * edges_s[None, 1:])
        pi_s0 = 1.0 - lam_s / mu_s
        d_s = (1.0 - lam_s) / (mu_s - lam_s)
        pool_s = _pooled_arrivals(lam_s, su_sd, edges_s)
        low_s = pool_s[None, :-1]
        spread_s = np.minimum(pool_s[:-1] * (1.0 - pool_s[:-1]),
                              pool_s[1:] * (1.0 - pool_s[1:]))[None, :]
        left_s = relay_best * pi_p0[:, None] * pi_s0 - need_p[:, None]
        extra_s = np.where(spread_s > 0,
                           spread_s / (lam_s * (left_s - low_s)), 0.0)
        feasible = (primary_ok[:, None] & (mu_s > lam_s) & (left_s >= 0)
                    & ((low_s == 0) | (left_s > low_s))
                    & (d_s + extra_s <= qos.d_s_max))
    if not feasible.any():
        return None
    return float(mu_s[feasible].max())


def minimize_relay_count(network: NetworkConfig, strategy: StrategyKind,
                         qos: QosSpec, n_max: int, *, budget: int = 20_000,
                         restarts: int = 8, seed: int = 0) -> int:
    """Smallest relay count in 0..n_max with a feasible operating point,
    searching `network` restricted to its first n relays.  Counts beyond
    the network's relays are skipped, and so are the counts at which
    `secondary_rate_ceiling` certifies that no point is feasible, with or
    without sensing errors.  The solution found at each searched count
    seeds the search at the next count, so feasibility can only get
    easier as relays are added; a skipped count seeds nothing, and the
    count after it starts from its designed starts alone.
    """
    carried: tuple[StrategyParams, ...] = ()
    for n in range(n_max + 1):
        try:
            restricted = network.take(n)
        except ConfigError:
            continue
        if secondary_rate_ceiling(restricted.outages(strategy), qos) is None:
            carried = ()
            continue
        result = maximize_secondary_throughput(
            restricted, strategy, qos, budget=budget, restarts=restarts,
            seed=seed, extra_starts=carried)
        if result.feasible:
            return n
        if result.best_params is not None and n < n_max:
            carried = (_extend(result.best_params, strategy),)
    raise NoFeasibleRelayCount(
        f"no relay count up to {n_max} satisfies the QoS targets")


def _extend(params: StrategyParams, strategy: StrategyKind) -> StrategyParams:
    """Grow a parameter set by one relay that is never used, preserving
    the incumbent's rates as a warm start for the larger search."""
    n = params.n_relays + 1
    # growing from zero relays: the newcomer takes the (unused) schedule
    # and, under random assignment, the whole assignment
    newcomer = 0.0 if params.n_relays else 1.0
    omega = np.append(params.omega, newcomer)
    alpha = np.append(params.alpha, 0.5)
    f_p = np.append(params.f_p, 0.0)
    f_s = np.append(params.f_s, 0.0)
    kw = {}
    if strategy is StrategyKind.RANDOM:
        kw["beta"] = np.append(params.beta, newcomer)
    if strategy is StrategyKind.ORDERED:
        for name in ("order_p", "order_s"):
            dist = getattr(params, name)
            entries = {perm + (n,): w for perm, w in dist.entries.items()}
            kw[name] = OrderDistribution(n, entries)
    return StrategyParams(strategy, omega, alpha, f_p, f_s, **kw)
