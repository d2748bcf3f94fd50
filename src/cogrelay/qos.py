"""Constrained QoS optimization over the strategy parameters.

Two formulations: maximize the secondary service rate subject to
end-to-end delay ceilings and stability of every queue, and find the
smallest relay count that admits a feasible point, by one independent
search of the first formulation at each relay count.

The solver is a deterministic multi-start projected local search:
coordinate moves with box projection for the per-relay probabilities and
simplex projection for the schedule and the decoder weights.  Every
strategy draws a user's decoder order from weights over rank orders (see
`_Space`): od's over permutations, rd's and rr's over the one-relay
orders.  Restarts draw their starting points from independent seeded
streams, and results merge by best merit with lexicographic
tie-breaking, so output depends only on (configuration, budget, seed).

Under perfect sensing the relay schedule (omega, alpha) enters only the
relay service rates, so the search moves the capture variables alone
(f_p, f_s and the decoder weights) and gives each capture point its
least schedule in closed form, by water-filling (`_least_mass`,
`_CaptureScorer`).  Under sensing errors the user rates depend on omega
too, and the search moves every variable (`_Evaluator`).  Before either
search, `secondary_rate_ceiling` bounds the secondary rate of the
strategy, with the network's sensing errors taken into the bound; where
it proves that no point meets the delay ceilings, the search returns
infeasible at once, and the relay-count ladder skips the count.  Once a
local search ends with a feasible best point at the bound, up to its
allowance for rounding, the search stops (`_at_ceiling`).

A trial point has one form: tuples of plain floats, each move built in
numpy's order of operations.  Both scorers read a point's captures
straight from those floats, through the capture and rate steps that
`rates.evaluate` runs too; parameters are built, and checked, only for
the point a search reports.  An evaluation is a trial point the search
visits, scored or found in a neighbourhood memo; under perfect sensing a
point that cannot beat a feasible incumbent gets a lower bound from its
mu_s alone, the head of the user chain (`rates._user_head`), instead of
the rest of the chain and the water-filling (`_local_search`).  Every
result is that of scoring each point in full.  On a 2-core Xeon with
Python 3.11 an evaluation costs about 14 us of the benchmark's
`optimize-perfect` `wall_s` (fig3, two relays; 17 us before bounded
points stopped at mu_s and the water-filling lost its generator sums;
timed in-process, the 15 searches take about 8-9 us an evaluation,
against 10-11 us) and about 39 us in the fig11 od search under sensing
errors at lambda_p 0.3 (three relays; `BENCH_qos.json`, `lean_scorer`
and `one_rate_chain`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import StrategyKind
from .errors import ConfigError, NoFeasibleRelayCount, check_integer
from .network import (NetworkConfig, OutageTable, SensingErrorParams,
                      TrafficParams)
from .orders import OrderDistribution, first_rank_perm, rank_order
from .rates import (EPS_STAB, SIMPLEX_TOL, SensingTerms, StrategyParams,
                    _acceptance, _array_sum, _ordered_capture, _outcome,
                    _relay_chain, _relay_miss_factor, _serve, _survival,
                    _user_chain, _user_head, _user_rates, _user_tail,
                    evaluate, primary_rate_bound, sensing_terms)

# od searches all N! rank orders up to here, the N first-rank ones above
DENSE_ORDER_LIMIT = 5
_BIG = 1e6             # stands in for an infinite violation in the merit
CEILING_MESH = 32      # cells per capture total in `secondary_rate_ceiling`
# relative allowance `secondary_rate_ceiling` adds for rounding: the rate
# chain reaches the capture-limited rate by other floating-point steps,
# and lands up to a few units in the last place above the mesh's value
CEILING_ROUNDING = 1e-12


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
    """What a search found.  `evaluations` counts the trial points it
    visited, scored or found in a neighbourhood memo,
    `budget_exhausted` says that they reached the budget, and
    `stopped_at_ceiling` that the search ended because its best merit
    met `ceiling` (`_at_ceiling`)."""

    best_params: StrategyParams | None
    best_mu_s: float
    feasible: bool
    constraint_residuals: dict
    restarts_used: int
    evaluations: int
    budget_exhausted: bool
    first_violation: str | None  # "stability" or "delay" when infeasible
    ceiling: float | None        # `secondary_rate_ceiling`; None: no point
    stopped_at_ceiling: bool


class _Space:
    """Search-space layout for one strategy: named box and simplex groups.

    A point is a tuple of groups, each a tuple of plain floats, in the
    order of `names` (the box groups, then the simplex groups), from its
    start (`_designed_starts`, `random_point`) to the point a search
    reports.  The scorers read a point through `sides`, `capture` and
    `omega_alpha`, with no parameters built, and `to_params` builds the
    checked parameters of the point a search reports.  Without `schedule`
    the space holds only the capture groups (f_p, f_s and the decoder
    weights), and omega and alpha are placeholders: uniform and 0.5.

    A user's decoder weights range over rank orders, as in
    `StrategyParams.ranked_support`: under od the groups rho_p and rho_s
    over `perms` (all N! permutations up to DENSE_ORDER_LIMIT relays, the
    N first-rank completions above), divided by their sum; under rd the
    shared group beta over the one-relay orders (k,); under rr 1/N.
    """

    def __init__(self, strategy: StrategyKind, n: int, schedule: bool = True):
        self.strategy = strategy
        self.n = n
        self.schedule = schedule
        self.box = ["alpha", "f_p", "f_s"] if schedule else ["f_p", "f_s"]
        self.simplex = {"omega": n} if schedule else {}
        self._uniform = (1.0 / n,) * n if n else ()   # rr's assignment
        self._orders = [(k,) for k in range(n)]   # rank order of each weight
        if strategy is StrategyKind.RANDOM:
            self.simplex["beta"] = n
        if strategy is StrategyKind.ORDERED:
            self.perms = (list(itertools.permutations(range(1, n + 1)))
                          if n <= DENSE_ORDER_LIMIT else
                          [first_rank_perm(n, k) for k in range(n)])
            self.simplex["rho_p"] = self.simplex["rho_s"] = len(self.perms)
            self._orders = [rank_order(perm) for perm in self.perms]
        self.names = self.box + list(self.simplex)
        self._f = (self.names.index("f_p"), self.names.index("f_s"))

    def sides(self, groups: tuple) -> tuple:
        """Each user's (f, decoder weights) at a point: its rank weights
        under od, the assignment under rd and rr."""
        i, j = self._f
        f_p, f_s = groups[i], groups[j]
        if self.strategy is StrategyKind.ROUND_ROBIN:
            return (f_p, self._uniform), (f_s, self._uniform)
        if self.strategy is StrategyKind.RANDOM:
            return (f_p, groups[-1]), (f_s, groups[-1])
        return (f_p, groups[-2]), (f_s, groups[-1])

    def omega_alpha(self, groups: tuple) -> tuple:
        """A point's relay schedule (omega, alpha): its groups (omega leads
        the simplex groups and alpha the box groups), or, without the
        schedule in the space, the placeholders."""
        if not self.schedule:
            return self._uniform, (0.5,) * self.n
        return groups[len(self.box)], groups[0]

    def capture(self, accept: list, choice: tuple) -> list:
        """One user's capture weights (`rates.capture_weights`) at its
        acceptance probabilities and decoder weights (see `sides`)."""
        return _ordered_capture(accept, zip(self._probs(choice), self._orders))

    def _probs(self, choice: tuple):
        """Decoder weights as probabilities: od's divided by their sum."""
        if self.strategy is not StrategyKind.ORDERED:
            return choice
        total = _array_sum(choice)
        return [w / total for w in choice]

    def to_params(self, groups: tuple) -> StrategyParams:
        """The parameters a point stands for (see the class docstring)."""
        (f_p, choice_p), (f_s, choice_s) = self.sides(groups)
        kw = {}
        if self.strategy is StrategyKind.RANDOM:
            kw["beta"] = np.array(choice_p)
        if self.strategy is StrategyKind.ORDERED:
            for name, choice in (("order_p", choice_p), ("order_s", choice_s)):
                kw[name] = OrderDistribution(self.n, {
                    perm: prob for perm, w, prob
                    in zip(self.perms, choice, self._probs(choice)) if w > 0})
        return StrategyParams(self.strategy, *self.omega_alpha(groups), f_p,
                              f_s, **kw)

    def random_point(self, rng: np.random.Generator) -> tuple:
        """A restart's start: each box group uniform on [0, 1], then each
        simplex group flat-Dirichlet, drawn in the order of `names`."""
        box = [tuple(rng.uniform(0, 1, self.n).tolist()) for _ in self.box]
        return tuple(box + [tuple(rng.dirichlet(np.ones(size)).tolist())
                            if size else () for size in self.simplex.values()])

    def flat(self, groups: tuple) -> tuple:
        """A point's coordinates, the box groups first and then the
        simplex groups by name: the order that breaks ties of merit."""
        point = dict(zip(self.names, groups))
        return tuple(v for name in self.box + sorted(self.simplex)
                     for v in point[name])


def _normalized(v: list) -> tuple:
    """`v` divided by its sum, or uniform where the sum is not positive."""
    total = _array_sum(v)
    if total <= 0:
        return (1.0 / len(v),) * len(v)
    return tuple([x / total for x in v])


def _violation(residuals: dict) -> float:
    return sum(min(max(0.0, -v), _BIG) for v in residuals.values())


class _Evaluator:
    """Scores points of the whole space under sensing errors: the chain
    of `evaluate`, over plain floats, from a point's captures and its
    schedule groups.

    Merit is lexicographic: total constraint violation first (0 means
    feasible), then the negated secondary rate.  What both scorers read
    is kept here: the outages as plain floats and, per user, the capture
    weights it last scored (`_captures`).
    """

    def __init__(self, outages: OutageTable, qos: QosSpec,
                 sensing: SensingTerms | None = None):
        self.outages = outages
        self.sensing = sensing
        self.qos = qos
        self.traffic = qos.traffic
        self.relay_keys = [(f"stability_pk{k + 1}", f"stability_sk{k + 1}")
                           for k in range(outages.n_relays)]
        self.relay_outages = outages.pu_relay.tolist(), outages.su_relay.tolist()
        self.direct = float(outages.pu_pd), float(outages.su_sd)
        self.serve_p, self.serve_s = _serve(outages, sensing)
        # per user: the (f, choice, capture weights) it last scored
        self._last = [(None, None, None), (None, None, None)]

    def _captures(self, space: _Space, groups: tuple) -> list:
        """Each user's capture weights at a search point, read from its
        groups without building parameters.  A move changes one group,
        and a trial point shares the others with the point it came from,
        so a user whose f and choice are the very objects it last scored
        reuses its capture weights (at five relays under od, half the
        work of a perfect-sensing score)."""
        caps = []
        for user, (f, choice) in enumerate(space.sides(groups)):
            last = self._last[user]
            if last[0] is not f or last[1] is not choice:
                last = self._last[user] = (f, choice, space.capture(
                    _acceptance(self.relay_outages[user], f), choice))
            caps.append(last[2])
        return caps

    def _residuals(self, rates, d_p: float, d_s: float) -> dict:
        """Constraint residuals (negative: violated) of an operating point
        with rates `rates`, a `_Rates` or a `RateReport`, and end-to-end
        delays `d_p`, `d_s` (inf where a queue is unstable)."""
        res = {
            "stability_p": rates.mu_p - self.traffic.lambda_p - EPS_STAB,
            "stability_s": rates.mu_s - self.traffic.lambda_s - EPS_STAB,
        }
        for (key_p, key_s), lam_p, mu_p, lam_s, mu_s in zip(
                self.relay_keys, rates.lambda_pk, rates.mu_pk,
                rates.lambda_sk, rates.mu_sk):
            res[key_p] = math.inf if lam_p == 0.0 else mu_p - lam_p - EPS_STAB
            res[key_s] = math.inf if lam_s == 0.0 else mu_s - lam_s - EPS_STAB
        if all(v >= 0 for v in res.values()):
            res["delay_p"] = self.qos.d_p_max - d_p
            res["delay_s"] = self.qos.d_s_max - d_s
        else:
            res["delay_p"] = -math.inf
            res["delay_s"] = -math.inf
        return res

    def residuals(self, params: StrategyParams) -> tuple[dict, float]:
        """Constraint residuals and mu_s of `params`, through `evaluate`."""
        ev = evaluate(self.outages, params, self.traffic, self.sensing)
        return self._residuals(ev.report, ev.d_p, ev.d_s), ev.report.mu_s

    def score(self, space: _Space, groups: tuple,
              bound: tuple | None = None) -> tuple:
        """The merit of a search point (see `_Space`): `evaluate`'s
        chain from the point's captures (`_captures`) and its schedule
        groups, over plain floats, always in full: `bound`, the incumbent
        merit of `_local_search`, is not used."""
        omega, alpha = space.omega_alpha(groups)
        rates = _relay_chain(
            _user_chain(*self.direct, *self._captures(space, groups),
                        self.traffic, *_survival(omega, self.sensing)),
            omega, alpha, self.serve_p, self.serve_s)
        d_p, d_s, _ = _outcome(rates, self.traffic)
        return _violation(self._residuals(rates, d_p, d_s)), -rates.mu_s

    def result_params(self, params: StrategyParams) -> StrategyParams:
        """The operating point the search reports for a best point."""
        return params


def _least_mass(lam: float, mu: float, lam_k: list, c_k: list,
                d_max: float) -> tuple[float, list | None]:
    """The least relay schedule with which one user's relaying queues meet
    its delay ceiling and the stability margin, in closed form.

    The user's queue must be stable (mu >= lam + EPS_STAB), and every
    relay k with arrivals lam_k[k] > 0 must have service c_k[k] > 0 per
    unit of schedule.  Relay k then serves the user's queue at z_k c_k,
    with slack s_k = z_k c_k - l_k, and the user's end-to-end delay is
    D + sum_k a_k / s_k / lam, with D = (1 - lam) / (mu - lam) and
    a_k = l_k (1 - l_k).  The least mass sum_k z_k = sum_k (l_k + s_k) /
    c_k with sum_k a_k / s_k <= B = lam (d_max - D) and s_k >= EPS_STAB
    is a water-filling problem (Boyd & Vandenberghe, Convex Optimization,
    2004, §5.5.3): s_k = max(EPS_STAB, sqrt(nu a_k c_k)) for the one nu
    that spends B.  With no slack at its floor, s_k = (S / B) sqrt(a_k c_k)
    with S = sum_k sqrt(a_k / c_k), and the mass is sum_k l_k / c_k +
    S^2 / B; a slack below EPS_STAB is clamped there and the others are
    solved again with the part of B the clamped ones leave.

    Returns (excess, z): excess = max(0, D - d_max), the part of the
    ceiling no schedule helps with (the delay is 1/mu when lam = 0), and
    z the mass per relay (0 where a relay has no arrivals), or None when
    no schedule meets the ceiling (B <= 0 with relay arrivals).  Over
    plain floats: each pass sums S from the left in relay order, and the
    pass that clamps no slack is the last.
    """
    if lam == 0.0:      # the queue is never backlogged: nothing is relayed
        over = 1.0 / mu - d_max
        return (over if over > 0.0 else 0.0), [0.0] * len(lam_k)
    own = (1.0 - lam) / (mu - lam)
    over = own - d_max
    excess = over if over > 0.0 else 0.0
    z = [0.0] * len(lam_k)
    # (k, a_k, c_k) of each relay with arrivals
    free = [(k, l * (1.0 - l), c_k[k]) for k, l in enumerate(lam_k)
            if l > 0.0]
    if not free:
        return excess, z
    budget = lam * (d_max - own)
    if budget <= 0.0:
        return excess, None
    while free:
        total = 0.0
        for _, a, c in free:
            total += math.sqrt(a / c)
        ratio = total / budget
        kept = []
        for relay in free:
            k, a, c = relay
            slack = ratio * math.sqrt(a * c)
            if slack < EPS_STAB:            # clamped for good
                slack = EPS_STAB
                budget -= a / EPS_STAB
            else:
                kept.append(relay)
            z[k] = (lam_k[k] + slack) / c
        if len(kept) == len(free):
            break
        free = kept
    return excess, z


class _CaptureScorer(_Evaluator):
    """Scores points of the capture space under perfect sensing, with the
    relay schedule solved in closed form.

    The user rates and the relay arrival rates depend on the captures
    alone (`rates._user_rates`); omega and alpha enter only the relay
    service mu_pk = z_k c_pk and mu_sk = y_k c_sk, with z_k = omega_k
    alpha_k, y_k = omega_k (1 - alpha_k) and c_uk = pi_p0 pi_s0 (1 - relay
    outage), and (z, y) ranges over the whole 2N-simplex.  A capture point
    is therefore feasible exactly when the least masses M_p and M_s of
    `_least_mass` fit in the schedule: M_p + M_s <= 1.  Merit is
    lexicographic: the stability violation (the user queues' shortfall,
    or the arrivals of relaying queues that no schedule serves), then the
    delay violation no schedule helps with plus max(0, M_p + M_s - 1),
    then the negated secondary rate.
    """

    def score(self, space: _Space, groups: tuple,
              bound: tuple | None = None) -> tuple:
        """The merit of a search point, from its captures (`_captures`).

        The head of the user chain (`rates._user_head`) gives mu_s.
        `bound` is the incumbent merit of the local search.  Where it is
        feasible, (0, 0, m), and the point's -mu_s is at least m, the point
        cannot beat it, and the score is (0, 0, -mu_s) without the rest of
        the chain (`rates._user_tail`) and the water-filling of `_solve`:
        at or below the point's merit, and not below the bound.  Three in
        five of the points the benchmark's fig3 searches score end here."""
        cap_p, cap_s = self._captures(space, groups)
        head = _user_head(*self.direct, cap_p, cap_s, self.traffic)
        if (bound is not None and bound[:2] == (0.0, 0.0)
                and -head[3] >= bound[2]):
            return 0.0, 0.0, -head[3]
        return self._solve(_user_tail(head, *self.direct, cap_p, cap_s,
                                      self.traffic))[0]

    def _solve(self, user) -> tuple:
        """The merit, and the per-relay z and y at the least masses (None
        where a user's queue or relays leave no finite mass), at the user
        rates `user` (a `rates._Rates`).  The stability violation is
        summed from the left: the user queues' shortfalls, or, where they
        have none, lambda + EPS_STAB of each relaying queue with arrivals
        and no service, the primary's relays first."""
        lam_p, lam_s = self.traffic.lambda_p, self.traffic.lambda_s
        short_p = user.mu_p - lam_p - EPS_STAB
        short_s = user.mu_s - lam_s - EPS_STAB
        stab = ((-short_p if short_p < 0.0 else 0.0)
                + (-short_s if short_s < 0.0 else 0.0))
        idle = user.pi_p0 * user.pi_s0
        c_p = [idle * v for v in self.serve_p]
        c_s = [idle * v for v in self.serve_s]
        if stab == 0.0:     # arrivals at relaying queues no schedule serves
            for lams, cs in ((user.lambda_pk, c_p), (user.lambda_sk, c_s)):
                for lam, c in zip(lams, cs):
                    if lam > 0.0 and c <= 0.0:
                        stab += lam + EPS_STAB
        if stab > 0.0:
            return (stab, math.inf, -user.mu_s), None
        excess_p, z = _least_mass(lam_p, user.mu_p, user.lambda_pk, c_p,
                                  self.qos.d_p_max)
        excess_s, y = _least_mass(lam_s, user.mu_s, user.lambda_sk, c_s,
                                  self.qos.d_s_max)
        mass = _BIG
        if z is not None and y is not None:
            total = sum(z) + sum(y)
            if total < _BIG:
                mass = total
        over = mass - 1.0
        return (0.0, excess_p + excess_s + (over if over > 0.0 else 0.0),
                -user.mu_s), (z, y)

    def result_params(self, params: StrategyParams) -> StrategyParams:
        """`params` with the schedule of its capture point.

        Where the point is feasible, (z, y) are the least masses of
        `_least_mass`; elsewhere they are the least masses that keep every
        relaying queue stable, (l_k + EPS_STAB) / c_k (0 where c_k = 0).
        Either is scaled to fill the schedule: omega_k = w_k / sum(w) with
        w_k = z_k + y_k, and alpha_k = z_k / w_k.  A relay with w_k = 0
        gets alpha 0.5, and when no relay has arrivals the schedule is
        uniform.
        """
        user = _user_rates(self.outages, params, self.traffic)
        merit, masses = self._solve(user)
        if merit[:2] != (0.0, 0.0):
            idle = user.pi_p0 * user.pi_s0
            masses = ([(lam + EPS_STAB) / (idle * v)
                       if lam > 0.0 and idle * v > 0.0 else 0.0
                       for lam, v in zip(lams, serve)]
                      for lams, serve in ((user.lambda_pk, self.serve_p),
                                          (user.lambda_sk, self.serve_s)))
        z, y = masses
        w = [a + b for a, b in zip(z, y)]
        total = sum(w)
        if total > 0.0:
            omega = [v / total for v in w]
            alpha = [a / v if v > 0.0 else 0.5 for a, v in zip(z, w)]
        else:
            omega, alpha = [1.0 / len(w) for _ in w], [0.5 for _ in w]
        return replace(params, omega=omega, alpha=alpha)


def _coordinate_moves(space: _Space, point: tuple, scale: float):
    """Candidate single-coordinate moves at the given scale, as (group
    index, the group's new values), in numpy's order of operations."""
    boxes = len(space.box)
    for g, vec in enumerate(point):
        if g < boxes:
            for i, v in enumerate(vec):
                for delta in (scale, -scale):
                    new = min(1.0, max(0.0, v + delta))
                    if new != v:
                        yield g, vec[:i] + (new,) + vec[i + 1:]
        elif len(vec) >= 2:
            shrunk = [v * (1.0 - scale) for v in vec]
            for i, v in enumerate(vec):
                toward = shrunk.copy()
                toward[i] += scale
                yield g, _normalized(toward)
                if v > 0.0:
                    away = list(vec)
                    away[i] = max(0.0, v - scale)
                    yield g, _normalized(away)


_SCALES = (0.5, 0.25, 0.1, 0.04, 0.015, 0.005, 0.002)


def _local_search(space, scorer, start, budget_left):
    """Coordinate descent from `start` over `_SCALES`; returns the best
    point (see `_Space`), its merit and the evaluations used.

    Each move of a pass is built from the point where the pass started
    and replaces one group of the current point.  Every group keeps the
    merits of the points that differ from the current point in that group
    alone, so a trial point seen before is looked up, not built or scored
    again; a lookup still counts as an evaluation.  No merit in a memo is
    below the incumbent, so a lookup is never accepted.  An accepted move
    changes one group and clears the others' memos, and each scale starts
    fresh.

    A trial point is scored with this search's incumbent merit as the
    bound of `scorer.score`, which may then return a lower bound that is
    not below the incumbent in place of the merit.  The bound is never the
    best merit over restarts: a point worse than that but better than this
    search's incumbent must still be accepted.  A bounded point is never
    accepted, and since the incumbent only falls, a bounded merit kept in
    a memo is never accepted later either; the start and every accepted
    point are scored in full, and the path, the evaluations and the
    returned merit are those of scoring every point in full.
    """
    point = start
    best = scorer.score(space, point)
    used = 1
    for scale in _SCALES:
        memo = [{values: best} for values in point]
        improved = True
        while improved and used < budget_left:
            improved = False
            for g, vec in _coordinate_moves(space, point, scale):
                if used >= budget_left:
                    break
                used += 1
                if vec in memo[g]:
                    continue
                trial = point[:g] + (vec,) + point[g + 1:]
                cand = memo[g][vec] = scorer.score(space, trial, best)
                if cand < best:
                    best = cand
                    point = trial
                    improved = True
                    memo = [m if h == g else {values: best}
                            for h, (m, values) in enumerate(zip(memo, point))]
    return point, best, used


def _at_ceiling(merit: tuple, ceiling: float) -> bool:
    """Whether a search's best merit certifies its rate: the merit is
    feasible (every violation 0) and its mu_s, raised twice by
    CEILING_ROUNDING, reaches `ceiling`.  No point then has an mu_s more
    than 2 CEILING_ROUNDING, relative, above it."""
    return (all(v == 0.0 for v in merit[:-1])
            and -merit[-1] * (1.0 + CEILING_ROUNDING) ** 2 >= ceiling)


def _designed_starts(space: _Space, outages: OutageTable) -> list[tuple]:
    n = space.n

    def base(alpha, f_p, f_s, **vertex):
        groups = {"alpha": (alpha,) * n,   # read with the schedule only
                  "f_p": (f_p,) * n, "f_s": (f_s,) * n}
        for name, size in space.simplex.items():
            groups[name] = vertex.get(name, (1.0 / size,) * size if size
                                      else ())
        return tuple(groups[name] for name in space.names)

    def one_hot(size, i):
        return tuple(1.0 if j == i else 0.0 for j in range(size))

    starts = [base(0.5, 1.0, 1.0),
              base(0.5, 0.0, 0.0)]              # no relaying fallback
    if space.schedule:                          # (1, 1) with another alpha
        starts.append(base(0.3, 1.0, 1.0))
    starts.append(base(0.7, 1.0, 0.0))
    if n:
        # concentrate the decoding role on the strongest relay per user
        for which, vec in (("p", outages.pu_relay), ("s", outages.su_relay)):
            k = int(np.argmin(vec))
            vertex = {}
            if "beta" in space.simplex:
                vertex["beta"] = one_hot(n, k)
            if "rho_p" in space.simplex:
                vertex["rho_" + which] = one_hot(
                    len(space.perms), space.perms.index(first_rank_perm(n, k)))
            starts.append(base(0.5, 1.0, 1.0, **vertex))
    return starts


def maximize_secondary_throughput(
        network: NetworkConfig, strategy: StrategyKind, qos: QosSpec, *,
        budget: int = 20_000, restarts: int = 8, seed: int = 0) -> OptResult:
    """Best feasible secondary service rate found within `budget`
    evaluations, or the least-infeasible point when none is found.  An
    evaluation is a trial point the search visits, whether it is scored
    or found in the neighbourhood memo of `_local_search`; no memo
    outlives the call.

    The local searches start from the designed starts, then from
    `restarts` points drawn from streams seeded by (seed, restart); the
    search stops after the first local search whose best merit meets the
    strategy's `secondary_rate_ceiling` (`_at_ceiling`).  Under
    perfect sensing the search moves the capture variables only and gives
    each point its least relay schedule in closed form (`_CaptureScorer`);
    under sensing errors it moves every variable (`_Evaluator`).  Either
    scorer reads a trial point from its floats; only the best point is
    built as parameters and scored again through `evaluate`.  A problem
    that `secondary_rate_ceiling` rules out, with the strategy and the
    network's sensing errors, returns infeasible at once, and a search
    over no relay scores its one point once.
    """
    check_integer("budget", budget, 1)
    check_integer("restarts", restarts, 0)
    check_integer("seed", seed, 0)
    n = network.n_relays
    outages = network.outages(strategy)
    terms = sensing_terms(network.sensing)
    ceiling = secondary_rate_ceiling(outages, qos, terms, strategy=strategy)

    # a primary queue that cannot be stabilized even at the rate bound
    # makes the whole problem infeasible outright, and so does a ceiling
    # certificate that no point meets the delay ceilings; the violation
    # is stability where the certificate rules every point out even
    # without ceilings, delay elsewhere
    traffic = qos.traffic
    mu_p_cap = primary_rate_bound(outages, strategy)
    if terms is not None and n > 0:
        mu_p_cap *= float(np.max(terms.survive_p))
    unstable = traffic.lambda_p >= mu_p_cap - EPS_STAB
    if unstable or ceiling is None:
        unstable = unstable or secondary_rate_ceiling(
            outages, QosSpec(math.inf, math.inf, traffic),
            terms, strategy=strategy) is None
        return OptResult(
            best_params=None, best_mu_s=0.0, feasible=False,
            constraint_residuals={"stability_p": float(
                mu_p_cap - traffic.lambda_p - EPS_STAB)},
            restarts_used=0, evaluations=0, budget_exhausted=False,
            first_violation="stability" if unstable else "delay",
            ceiling=ceiling, stopped_at_ceiling=False)

    space = _Space(strategy, n, schedule=terms is not None)
    scorer = (_CaptureScorer(outages, qos) if terms is None else
              _Evaluator(outages, qos, terms))
    starts = _designed_starts(space, outages)
    if n == 0:  # nothing moves: every start is the one point, scored once
        starts, restarts = starts[:1], 0

    best_point = None
    best = ()
    best_flat = ()
    restarts_used = 0
    evaluations = 0
    index = 0
    stopped = False
    while evaluations < budget and not stopped:
        if index < len(starts):
            start = starts[index]
        elif index < len(starts) + restarts:
            rng = np.random.default_rng([seed, index - len(starts)])
            start = space.random_point(rng)
        else:
            break
        index += 1
        restarts_used += 1
        point, merit, used = _local_search(space, scorer, start,
                                           budget - evaluations)
        evaluations += used
        flat = space.flat(point)
        if best_point is None or merit < best or (merit == best and
                                                  flat < best_flat):
            best = merit
            best_point = point
            best_flat = flat
        stopped = _at_ceiling(best, ceiling)

    params = scorer.result_params(space.to_params(best_point))
    residuals, mu_s = scorer.residuals(params)
    feasible = _violation(residuals) == 0.0
    first = None
    if not feasible:
        stability_bad = any(v < 0 for k, v in residuals.items()
                            if k.startswith("stability"))
        first = "stability" if stability_bad else "delay"
    return OptResult(
        best_params=params,
        best_mu_s=float(mu_s) if feasible else 0.0,
        feasible=bool(feasible),
        constraint_residuals={k: float(v) for k, v in residuals.items()},
        restarts_used=restarts_used,
        evaluations=evaluations,
        budget_exhausted=evaluations >= budget,
        first_violation=first,
        ceiling=ceiling,
        stopped_at_ceiling=stopped)


def _pooled_arrivals(lam: float, direct_outage: float,
                     capture: np.ndarray) -> np.ndarray:
    """Arrivals Lambda = lam d C / (1 - d + d C) that a user's relaying
    queues pool at each capture total C (d: the direct-link outage), with
    0, a lower bound, where the user's service rate is 0."""
    bracket = 1.0 - direct_outage + direct_outage * capture
    pooled = lam / bracket * direct_outage * capture
    return np.where(bracket > 0, pooled, 0.0)


def secondary_rate_ceiling(outages: OutageTable, qos: QosSpec,
                           sensing: SensingErrorParams | SensingTerms
                           | None = None, *,
                           strategy: StrategyKind | None = None
                           ) -> float | None:
    """Upper bound on the secondary service rate of any operating point of
    `strategy` (None: of any strategy) that meets the delay ceilings of
    `qos` over `outages`, with the relays' sensing errors `sensing`
    (None: perfect sensing); None certifies that no point meets them.

    The bound relaxes the model in `rates`:

    1. The user rates depend on the strategy only through the capture
       totals C_p = sum_k cap_pk and C_s = sum_k cap_sk, which are let
       vary independently, each from 0 to its strategy's cap over the
       user's relay outages o_k (pu_relay for C_p, su_relay for C_s).
       Relay k accepts with a_k = (1 - o_k) f_k <= 1 - o_k, and the cap
       is 1 - prod_k o_k under od, where the first relay of the order
       that accepts captures (a cap under every strategy, and the one
       for None); max_k (1 - o_k) under rd, where C = sum_k beta_k a_k;
       and mean_k (1 - o_k) under rr, where C = mean_k a_k.  Given
       (C_p, C_s) the chain mu_p -> pi_p0 -> mu_s -> pi_s0 is exact, and
       so are the pooled relay arrivals Lambda_P = (1 - pi_p0) pu_pd C_p
       and Lambda_S = (1 - pi_s0) pi_p0 su_sd C_s, which depend on their
       own capture total only.
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
    any resolution.  The value is raised by CEILING_ROUNDING, relative,
    so that it also bounds the rates `rate_report` computes, which reach
    the capture-limited rate by other floating-point steps.  rd's cap
    takes beta to sum to 1, as the search's beta does up to rounding;
    `StrategyParams` also admits a beta summing to up to 1 + SIMPLEX_TOL,
    which lifts C_p and C_s by as much, relative, and whose excess the
    bound does not cover.

    Sensing errors.  `apply_sensing_errors` scales mu_p by the schedule
    average of 1 - p_md_primary[k]^2, the secondary's conditional
    service (1 - su_sd + su_sd C_s) by that of survive_s[k], and relay
    k's service by (1 - p_false_alarm[k])^2.  The relaxation takes each
    average at its largest value over the relays, and the relay service
    of step 3 at max_k (1 - relay outage_k) (1 - p_false_alarm[k])^2
    over both relay outages.  `StrategyParams` lets the schedule sum to
    1 + SIMPLEX_TOL, so the three factors are raised by that much too.
    The pooled arrivals stay Lambda_P = lambda_p pu_pd C_p / mu_p and
    Lambda_S = lambda_s su_sd C_s / (1 - su_sd + su_sd C_s) with the
    perfect-sensing mu_p: the smaller pi_p0 and pi_s0 cancel against the
    smaller service.  Every term keeps the direction it grows in, so the
    cells are scored as above and None is still a proof.  Where every
    factor is at most 1 the bound is at most the perfect-sensing one.
    """
    lam_p, lam_s = qos.traffic.lambda_p, qos.traffic.lambda_s
    pu_pd, su_sd = float(outages.pu_pd), float(outages.su_sd)
    # step 1's caps: 1 - the best-case miss of `primary_rate_bound`
    kind = StrategyKind.ORDERED if strategy is None else strategy
    edges_p, edges_s = (
        np.linspace(0.0, 1.0 - _relay_miss_factor(relay, kind),
                    CEILING_MESH + 1)
        for relay in (outages.pu_relay, outages.su_relay))
    serve = 1.0 - np.concatenate((outages.relay_pd, outages.relay_sd))
    scale_p = scale_s = 1.0
    if sensing is not None:
        terms = sensing_terms(sensing)
        if len(terms.no_false_alarm) != outages.n_relays:
            raise ConfigError(
                f"sensing errors are over {len(terms.no_false_alarm)} "
                f"relays, the outage table over {outages.n_relays}")
        if outages.n_relays:
            slack = 1.0 + SIMPLEX_TOL
            scale_p = float(np.max(terms.survive_p)) * slack
            scale_s = float(np.max(terms.survive_s)) * slack
            serve = serve * np.tile(terms.no_false_alarm, 2) * slack
    relay_best = np.max(serve, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # primary terms, one per C_p cell
        mu_p = (1.0 - pu_pd + pu_pd * edges_p[1:]) * scale_p
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
        mu_s = pi_p0[:, None] * ((1.0 - su_sd + su_sd * edges_s[None, 1:])
                                 * scale_s)
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
    return float(mu_s[feasible].max()) * (1.0 + CEILING_ROUNDING)


def minimize_relay_count(network: NetworkConfig, strategy: StrategyKind,
                         qos: QosSpec, n_max: int, *, budget: int = 20_000,
                         restarts: int = 8, seed: int = 0) -> int:
    """Smallest relay count n in 0..min(n_max, network.n_relays) at which
    `network` restricted to its first n relays has a feasible operating
    point.  Each count is searched on its own: the result at n is that of
    `maximize_secondary_throughput(network.take(n), strategy, qos,
    budget=budget, restarts=restarts, seed=seed)`, which stops at its
    certificate.  The counts at which `secondary_rate_ceiling` certifies
    that no point of the strategy is feasible, with the restricted
    network's sensing errors, are skipped without a search.
    """
    check_integer("n_max", n_max, 0)
    check_integer("budget", budget, 1)
    check_integer("restarts", restarts, 0)
    check_integer("seed", seed, 0)
    for n in range(min(n_max, network.n_relays) + 1):
        restricted = network.take(n)
        if secondary_rate_ceiling(restricted.outages(strategy), qos,
                                  restricted.sensing,
                                  strategy=strategy) is None:
            continue
        if maximize_secondary_throughput(
                restricted, strategy, qos, budget=budget, restarts=restarts,
                seed=seed).feasible:
            return n
    raise NoFeasibleRelayCount(
        f"no relay count up to {n_max} satisfies the QoS targets")
