"""Property-based differential tests.

`rate_report` against the exhaustive slot-outcome oracle in `support`,
on generated configurations; `rate_report` against the numpy array
formulas it replaced, and `apply_sensing_errors` and `evaluate` against
the sensing-error model in numpy, bit for bit; the perfect-sensing bits
under zero sensing errors; the dominance of perfect sensing over sensing
errors; the relay-count certificate under sensing errors against the
perfect-sensing one and against random points scored through `evaluate`;
the parameters the QoS search builds for a point (`_Space.to_params`)
against the same points built by the oracle in `support`; the search's
float moves and merits against the numpy moves and the merits through
checked parameters (`support`); the search with the incumbent bound
against the search that scores every trial point in full; the
closed-form relay schedule of the perfect-sensing search against random
schedules scored through `evaluate`, and its water-filling against the
one first written (`support`), bit for bit; the relay-count ladder against
independent searches at each count; and the invariants of acceptance
criteria 04 and 05 on generated configurations: od with a first-rank
profile serves every queue at least as fast as random assignment with
that profile, and no strategy gives the secondary more than
`1 - lambda_p`, with and without sensing errors.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cogrelay import qos, rates
from cogrelay.channel import StrategyKind
from cogrelay.errors import NoFeasibleRelayCount
from cogrelay.network import (NetworkConfig, OutageTable, SensingErrorParams,
                              TrafficParams)
from cogrelay.orders import OrderDistribution
from cogrelay.rates import (StrategyParams, apply_sensing_errors, evaluate,
                            rate_report, secondary_rate_cap)
from support import (as_groups, checked_params, closed_form,
                     oracle_coordinate_moves, oracle_least_mass, oracle_merit,
                     oracle_user_rates, random_outages, random_params,
                     random_sensing_errors, random_simplex)

# exact 0 and 1 next to the open interval: outages and acceptance
# probabilities at the ends are where the prefix products are exact
PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def probs(n):
    return st.lists(PROB, min_size=n, max_size=n)


@st.composite
def simplex(draw, n):
    """A probability vector over n entries, some of them exactly 0."""
    w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                               min_size=n, max_size=n)))
    if n and w.sum() == 0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return w / w.sum() if n else w


@st.composite
def order_distributions(draw, n, max_support=6):
    """A distribution over a few permutations, with zero-weight
    permutations among its entries."""
    perms = list(itertools.permutations(range(1, n + 1)))
    chosen = draw(st.lists(st.sampled_from(perms), min_size=1,
                           max_size=min(max_support, len(perms)), unique=True))
    weights = draw(simplex(len(chosen)))
    return OrderDistribution(n, dict(zip(chosen, weights.tolist())))


@st.composite
def operating_points(draw, max_relays=4):
    n = draw(st.integers(0, max_relays))
    strategy = draw(st.sampled_from(list(StrategyKind)))
    outages = OutageTable(draw(PROB), draw(PROB), *(draw(probs(n))
                                                    for _ in range(4)))
    kw = {}
    if strategy is StrategyKind.ORDERED:
        kw = {"order_p": draw(order_distributions(n)),
              "order_s": draw(order_distributions(n))}
    elif strategy is StrategyKind.RANDOM:
        kw = {"beta": draw(simplex(n))}
    params = StrategyParams(strategy, draw(simplex(n)), draw(probs(n)),
                            draw(probs(n)), draw(probs(n)), **kw)
    return outages, params


def sensing_errors(n):
    """Sensing-error probabilities over n relays, exact 0s and 1s among
    them."""
    return st.builds(SensingErrorParams, *(probs(n).map(np.array)
                                           for _ in range(3)))


@st.composite
def first_rank_pairs(draw, max_relays=4):
    """An outage table, od whose rank orders follow a first-rank profile,
    rd with that profile as its assignment, both at one schedule and one
    acceptance, and sensing errors."""
    n = draw(st.integers(1, max_relays))
    outages = OutageTable(draw(PROB), draw(PROB), *(draw(probs(n))
                                                    for _ in range(4)))
    beta = draw(simplex(n))
    order = OrderDistribution.from_first_rank_profile(beta)
    shared = (draw(simplex(n)), *(draw(probs(n)) for _ in range(3)))
    od = StrategyParams(StrategyKind.ORDERED, *shared, order_p=order,
                        order_s=order)
    rd = StrategyParams(StrategyKind.RANDOM, *shared, beta=beta)
    return outages, od, rd, draw(sensing_errors(n))


IDLE = TrafficParams(0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(case=first_rank_pairs(), load_p=st.floats(0.0, 0.9),
       lambda_s=st.floats(0.0, 0.5))
def test_first_rank_od_dominates_rd(case, load_p, lambda_s):
    # criterion 04: a relay that rd assigns decodes first under od too,
    # and the others only add captures; the primary load is a share of
    # rd's service rate, as the criterion draws it
    outages, od, rd, se = case
    traffic = TrafficParams(load_p * rate_report(outages, rd, IDLE).mu_p,
                            lambda_s)
    r_od, r_rd = (rate_report(outages, p, traffic) for p in (od, rd))
    for a, b in ((r_od, r_rd), (apply_sensing_errors(r_od, od, se),
                                apply_sensing_errors(r_rd, rd, se))):
        for name in ("mu_p", "mu_s", "mu_pk", "mu_sk"):
            assert np.all(getattr(a, name) >= getattr(b, name) - 1e-12), name


@st.composite
def points_with_errors(draw):
    outages, params = draw(operating_points())
    return outages, params, draw(sensing_errors(params.n_relays))


@settings(max_examples=200, deadline=None)
@given(case=points_with_errors(), load_p=st.floats(0.0, 1.0),
       lambda_s=st.floats(0.0, 1.0))
def test_secondary_rate_within_cap(case, load_p, lambda_s):
    # criterion 05: the secondary sends only in slots the primary leaves
    # empty, for od, rd and rr alike
    outages, params, se = case
    traffic = TrafficParams(load_p * rate_report(outages, params, IDLE).mu_p,
                            lambda_s)
    report = rate_report(outages, params, traffic)
    for got in (report, apply_sensing_errors(report, params, se)):
        assert got.mu_s <= secondary_rate_cap(traffic) + 1e-12


@settings(max_examples=80, deadline=None)
@given(point=operating_points(), load_p=st.floats(0.0, 0.95),
       load_s=st.floats(0.0, 0.95))
def test_rate_report_matches_oracle(point, load_p, load_s):
    outages, params = point
    idle = TrafficParams(0.0, 0.0)
    mu_p = oracle_user_rates(outages, params, idle)[0]
    lambda_p = load_p * mu_p
    # keep both users clear of the stability margin, where the report
    # flags the queue instead of giving its empty probability
    assume(lambda_p == 0.0 or lambda_p <= mu_p - 1e-5)
    mu_s = oracle_user_rates(outages, params,
                             TrafficParams(lambda_p, 0.0))[1]
    lambda_s = load_s * mu_s
    assume(lambda_s == 0.0 or lambda_s <= mu_s - 1e-5)
    traffic = TrafficParams(lambda_p, lambda_s)

    mu_p_o, mu_s_o, lam_pk_o, lam_sk_o = oracle_user_rates(
        outages, params, traffic)
    report = rate_report(outages, params, traffic)
    assert report.stable_p and report.stable_s
    assert abs(report.mu_p - mu_p_o) <= 1e-12
    assert abs(report.mu_s - mu_s_o) <= 1e-12
    assert np.allclose(report.lambda_pk, lam_pk_o, rtol=0, atol=1e-12)
    assert np.allclose(report.lambda_sk, lam_sk_o, rtol=0, atol=1e-12)


def numpy_captures(outages: OutageTable,
                   params: StrategyParams) -> tuple[np.ndarray, np.ndarray]:
    """Each user's capture weights as numpy array arithmetic."""
    n = params.n_relays

    def capture(outage_relay, f, dist):
        accept = (1.0 - outage_relay) * f
        if params.strategy is not StrategyKind.ORDERED:
            return accept * params.assignment()
        weights = np.zeros(n)
        if n == 0:
            return weights
        for prob, order in zip(*dist.rank_orders()):
            miss = 1.0
            for k in order:
                weights[k] += prob * accept[k] * miss
                miss *= 1.0 - accept[k]
        return weights

    return (capture(outages.pu_relay, params.f_p, params.order_p),
            capture(outages.su_relay, params.f_s, params.order_s))


def numpy_rates(outages: OutageTable, params: StrategyParams,
                traffic: TrafficParams) -> dict:
    """The rate chain as numpy array arithmetic, the form `rate_report`
    had before it ran over plain floats."""
    cap_p, cap_s = numpy_captures(outages, params)
    mu_p = (1.0 - outages.pu_pd) + outages.pu_pd * cap_p.sum()
    _, pi_p0 = rates._flagged_pi0(traffic.lambda_p, mu_p)
    mu_s = pi_p0 * ((1.0 - outages.su_sd) + outages.su_sd * cap_s.sum())
    _, pi_s0 = rates._flagged_pi0(traffic.lambda_s, mu_s)
    idle = params.omega * pi_p0 * pi_s0
    return {"mu_p": mu_p, "mu_s": mu_s, "pi_p0": pi_p0, "pi_s0": pi_s0,
            "lambda_pk": (1.0 - pi_p0) * outages.pu_pd * cap_p,
            "lambda_sk": (1.0 - pi_s0) * pi_p0 * outages.su_sd * cap_s,
            "mu_pk": idle * params.alpha * (1.0 - outages.relay_pd),
            "mu_sk": idle * (1.0 - params.alpha) * (1.0 - outages.relay_sd)}


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 10), strategy=st.sampled_from(list(StrategyKind)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rate_report_bits_match_numpy_formulas(n, strategy, seed):
    # full-precision random values, so that a change in the order of
    # any sum or product shows; up to 10 relays, as numpy sums eight
    # terms or more pairwise
    rng = np.random.default_rng(seed)
    outages = random_outages(rng, n, low=0.0, high=1.0)
    params = random_params(rng, n, strategy)
    traffic = TrafficParams(*rng.uniform(0.0, 0.6, 2))
    report = rate_report(outages, params, traffic)
    for name, want in numpy_rates(outages, params, traffic).items():
        assert _hexes(getattr(report, name)) == _hexes(want), name


def numpy_sensing(outages: OutageTable, params: StrategyParams,
                  traffic: TrafficParams, se: SensingErrorParams) -> dict:
    """The model of `apply_sensing_errors` as numpy array arithmetic, from
    the captures: the schedule-averaged survival factors scale each
    user's service and its hand-off to the relays, and each relay's
    service is scaled by the idle slots of the reduced user rates and by
    (1 - p_false_alarm)^2."""
    n = params.n_relays
    if n == 0:
        surv_p = surv_s = 1.0
    else:
        surv_p = float(params.omega @ (1.0 - se.p_md_primary ** 2))
        surv_s = float(params.omega @ (
            1.0 - se.p_md_secondary * (1.0 - se.p_false_alarm)))
    no_fa = (1.0 - se.p_false_alarm) ** 2
    cap_p, cap_s = numpy_captures(outages, params)
    mu_p = ((1.0 - outages.pu_pd) + outages.pu_pd * cap_p.sum()) * surv_p
    _, pi_p0 = rates._flagged_pi0(traffic.lambda_p, mu_p)
    mu_s = (pi_p0 * ((1.0 - outages.su_sd) + outages.su_sd * cap_s.sum())
            * surv_s)
    _, pi_s0 = rates._flagged_pi0(traffic.lambda_s, mu_s)
    lambda_pk = (1.0 - pi_p0) * outages.pu_pd * surv_p * cap_p
    lambda_sk = (1.0 - pi_s0) * pi_p0 * outages.su_sd * surv_s * cap_s
    idle = params.omega * pi_p0 * pi_s0
    mu_pk = idle * params.alpha * ((1.0 - outages.relay_pd) * no_fa)
    mu_sk = idle * (1.0 - params.alpha) * ((1.0 - outages.relay_sd) * no_fa)
    return {"mu_p": mu_p, "mu_s": mu_s, "pi_p0": pi_p0, "pi_s0": pi_s0,
            "lambda_pk": lambda_pk, "lambda_sk": lambda_sk,
            "mu_pk": mu_pk, "mu_sk": mu_sk,
            "stable_pk": np.array([rates.is_stable(l, m) for l, m in
                                   zip(lambda_pk, mu_pk)], dtype=bool),
            "stable_sk": np.array([rates.is_stable(l, m) for l, m in
                                   zip(lambda_sk, mu_sk)], dtype=bool)}


# exact 0 next to the open interval: no load leaves a user queue always
# empty, and heavy loads flag it unstable; both take the guarded branches
LOAD = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 5), strategy=st.sampled_from(list(StrategyKind)),
       seed=st.integers(0, 2 ** 32 - 1), lambda_p=LOAD, lambda_s=LOAD,
       high=st.sampled_from([0.3, 1.0]))
def test_sensing_errors_bits_match_numpy_formulas(n, strategy, seed,
                                                  lambda_p, lambda_s, high):
    rng = np.random.default_rng(seed)
    outages = random_outages(rng, n, low=0.0, high=1.0)
    params = random_params(rng, n, strategy)
    se = random_sensing_errors(rng, n, high)
    traffic = TrafficParams(lambda_p, lambda_s)
    report = rate_report(outages, params, traffic)
    adjusted = rates.apply_sensing_errors(report, params, se)
    # the per-relay terms a search works out once give the same bits, and
    # so does `evaluate`, which runs the same chain
    prepared = rates.apply_sensing_errors(report, params,
                                          rates.sensing_terms(se))
    evaluated = evaluate(outages, params, traffic, se).report
    for name, want in numpy_sensing(outages, params, traffic, se).items():
        for got in (getattr(adjusted, name), getattr(prepared, name),
                    getattr(evaluated, name)):
            if name.startswith("stable"):
                assert got.dtype == bool and np.array_equal(got, want), name
            else:
                assert _hexes(got) == _hexes(want), name
    assert adjusted.stable_p == rates.is_stable(lambda_p, adjusted.mu_p)
    assert adjusted.stable_s == rates.is_stable(lambda_s, adjusted.mu_s)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 5), strategy=st.sampled_from(list(StrategyKind)),
       seed=st.integers(0, 2 ** 32 - 1), lambda_p=LOAD, lambda_s=LOAD)
def test_zero_sensing_errors_keep_every_bit(n, strategy, seed, lambda_p,
                                            lambda_s):
    # with no sensing error and a schedule that sums to exactly 1 every
    # factor the errors put on the chain is exactly 1.0, so the chain
    # under sensing errors gives the perfect-sensing rates bit for bit
    rng = np.random.default_rng(seed)
    outages = random_outages(rng, n, low=0.0, high=1.0)
    params = random_params(rng, n, strategy)
    if n:
        params = replace(params, omega=np.eye(n)[rng.integers(n)])
    traffic = TrafficParams(lambda_p, lambda_s)
    report = rate_report(outages, params, traffic)
    zero = SensingErrorParams(np.zeros(n), np.zeros(n), np.zeros(n))
    for got in (apply_sensing_errors(report, params, zero),
                evaluate(outages, params, traffic, zero).report):
        for name in ("mu_p", "mu_s", "pi_p0", "pi_s0", "lambda_pk",
                     "lambda_sk", "mu_pk", "mu_sk"):
            assert _hexes(getattr(got, name)) == _hexes(
                getattr(report, name)), name


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 4), strategy=st.sampled_from(list(StrategyKind)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_perfect_sensing_dominates_sensing_errors(n, strategy, seed):
    # at the same point sensing errors leave the relay arrivals as they
    # are and make no queue faster, so a point that meets the ceilings
    # with sensing errors meets them with perfect sensing, no slower
    rng = np.random.default_rng(seed)
    outages = random_outages(rng, n, 0.01, 0.9)
    params = random_params(rng, n, strategy)
    traffic = TrafficParams(rng.uniform(0, 0.6), rng.uniform(0, 0.4))
    errors = evaluate(outages, params, traffic,
                      random_sensing_errors(rng, n, 0.5))
    perfect = evaluate(outages, params, traffic)
    if errors.report.stable_p and errors.report.stable_s:
        # an unstable user queue is never empty, which changes what it
        # hands its relays
        for name in ("lambda_pk", "lambda_sk"):
            assert np.allclose(getattr(errors.report, name),
                               getattr(perfect.report, name),
                               rtol=0, atol=1e-15), name
    if errors.status == "ok":
        # sensing errors enter the one chain as factors of at most 1, up
        # to rounding: the tolerances (1e-12 relative) cover a survival
        # factor that rounds to within a few units in the last place of
        # 1, where the schedule sums to a little over 1
        assert perfect.status == "ok"
        assert perfect.d_p <= errors.d_p * (1 + 1e-12)
        assert perfect.d_s <= errors.d_s * (1 + 1e-12)
        assert perfect.report.mu_s >= errors.report.mu_s * (1 - 1e-12)


@st.composite
def search_points(draw):
    n = draw(st.integers(0, 6))      # 6 relays: first-rank orders
    space = qos._Space(draw(st.sampled_from(list(StrategyKind))), n)
    point = {name: np.array(draw(probs(n))) for name in space.box}
    for name, size in space.simplex.items():
        point[name] = draw(simplex(size))
    return space, point


def _hexes(value):
    """Floats and float arrays as `float.hex`, anything else as is."""
    if isinstance(value, np.ndarray) and value.dtype == float:
        return [float.hex(v) for v in value.tolist()]
    if isinstance(value, (float, np.floating)):
        return float.hex(float(value))
    return value


def assert_same_params(a: StrategyParams, b: StrategyParams) -> None:
    for name in ("strategy", "omega", "alpha", "f_p", "f_s", "beta"):
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y)
        else:
            assert x == y
    for name in ("order_p", "order_s"):
        x, y = getattr(a, name), getattr(b, name)
        if y is None:
            assert x is None
            continue
        assert x.n_relays == y.n_relays
        assert list(x.entries.items()) == list(y.entries.items())
        assert x.ranked_support == y.ranked_support
        for u, v in zip(x.rank_orders(), y.rank_orders()):
            assert u.dtype == v.dtype and np.array_equal(u, v)


@settings(max_examples=120, deadline=None)
@given(case=search_points())
def test_unchecked_point_equals_checked(case):
    space, point = case
    fast = space.to_params(as_groups(space, point))
    slow = checked_params(space, point)
    assert_same_params(fast, slow)
    # and both score the same, bit for bit
    outages = OutageTable(0.3, 0.4, *(np.linspace(0.05, 0.5, space.n)
                                      for _ in range(4)))
    traffic = TrafficParams(0.2, 0.1)
    a, b = (vars(rate_report(outages, p, traffic)) for p in (fast, slow))
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]) if isinstance(
            a[name], np.ndarray) else _hexes(a[name]) == _hexes(b[name])


@st.composite
def search_problems(draw, strategy: StrategyKind, n: int):
    """A search space with a point on it, and the scorer of a problem to
    score it on: with the schedule in the space, the sensing-error scorer;
    without it, the perfect-sensing capture scorer."""
    space = qos._Space(strategy, n, schedule=draw(st.booleans()))
    point = {name: np.array(draw(probs(n))) for name in space.box}
    for name, size in space.simplex.items():
        point[name] = draw(simplex(size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = qos.QosSpec(rng.uniform(1.2, 6.0), rng.uniform(1.5, 10.0),
                         TrafficParams(rng.uniform(0, 0.6),
                                       rng.uniform(0, 0.5)))
    outages = random_outages(rng, n, 0.01, 0.6)
    if space.schedule:
        return space, point, qos._Evaluator(
            outages, target,
            rates.sensing_terms(random_sensing_errors(rng, n, 0.5)))
    return space, point, qos._CaptureScorer(outages, target)


@pytest.mark.parametrize("n", range(7))   # 6 relays: first-rank orders
@pytest.mark.parametrize("strategy", list(StrategyKind))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_float_moves_and_merit_match_numpy_oracle(strategy, n, data):
    """At every scale the search's float moves are the numpy moves, bit
    for bit.  At one scale the scorer's merit of the point and of its
    trial points (about 60 of them, evenly spread; read straight from the
    groups) is the merit through the parameters the point stands for:
    under sensing errors, through `evaluate`."""
    space, point, scorer = data.draw(search_problems(strategy, n))
    groups = as_groups(space, point)
    for scale in qos._SCALES:
        fast = list(qos._coordinate_moves(space, groups, scale))
        slow = list(oracle_coordinate_moves(space, point, scale))
        # the float64 bytes: bit for bit, as `float.hex` is, but faster
        assert [(g, np.array(vec).tobytes()) for g, vec in fast] == [
            (space.names.index(name), vec.tobytes()) for name, vec in slow]
    scale = data.draw(st.sampled_from(qos._SCALES))
    trials = [(groups, point)] + [
        (groups[:g] + (vec,) + groups[g + 1:], {**point, name: array})
        for (g, vec), (name, array) in zip(
            qos._coordinate_moves(space, groups, scale),
            oracle_coordinate_moves(space, point, scale))]
    for trial, trial_point in trials[::max(1, len(trials) // 60)]:
        assert list(map(_hexes, scorer.score(space, trial))) == list(
            map(_hexes, oracle_merit(scorer, space, trial_point)))


class _Unbounded:
    """The capture scorer with the incumbent bound dropped: every trial
    point scored in full."""

    def __init__(self, scorer):
        self.scorer = scorer

    def score(self, space, groups, bound=None):
        return self.scorer.score(space, groups)


class _CheckedBound:
    """The capture scorer, bound and all, with every score checked
    against the full merit of the same point.  A bounded score (one that
    skipped `_solve`) comes with a feasible bound and is (0, 0, -mu_s): at
    or below the full merit and not below the bound.  Any other score is
    the full merit."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.solves = 0
        solve = scorer._solve

        def counted(user):
            self.solves += 1
            return solve(user)
        scorer._solve = counted

    def score(self, space, groups, bound=None):
        solves = self.solves
        merit = self.scorer.score(space, groups, bound)
        skipped = self.solves == solves
        full = self.scorer.score(space, groups)
        if skipped:
            assert bound is not None and bound[:2] == (0.0, 0.0)
            assert merit[:2] == (0.0, 0.0) and _hexes(merit[2]) == _hexes(
                full[2])
            assert merit <= full and not merit < bound
        else:
            assert list(map(_hexes, merit)) == list(map(_hexes, full))
        return merit


@st.composite
def bounded_searches(draw, strategy: StrategyKind, n: int):
    """A perfect-sensing search problem, with ceilings that may be
    infinite, a start on its capture space and an evaluation budget."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ceiling = lambda low, high: draw(st.one_of(
        st.just(math.inf), st.floats(low, high)))
    target = qos.QosSpec(ceiling(1.05, 20.0), ceiling(1.05, 30.0),
                         TrafficParams(rng.uniform(0, 0.5),
                                       rng.uniform(0, 0.3)))
    outages = random_outages(rng, n, 0.01, draw(st.sampled_from([0.3, 0.8])))
    space = qos._Space(strategy, n, schedule=False)
    starts = qos._designed_starts(space, outages)
    start = draw(st.one_of(st.sampled_from(starts),
                           st.just(space.random_point(rng))))
    return space, outages, target, start, draw(st.integers(1, 700))


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("strategy", list(StrategyKind))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_incumbent_bound_leaves_local_search_unchanged(strategy, n, data):
    """`_local_search` with the incumbent bound returns the point, the
    merit and the evaluations of the search that scores every trial point
    in full, and every bounded score lies between the bound and the full
    merit (`_CheckedBound`)."""
    space, outages, target, start, budget = data.draw(
        bounded_searches(strategy, n))
    checked = _CheckedBound(qos._CaptureScorer(outages, target))
    runs = [qos._local_search(space, scorer, start, budget) for scorer in (
        checked, _Unbounded(qos._CaptureScorer(outages, target)))]
    (point, merit, used), (point_0, merit_0, used_0) = runs
    assert [list(map(_hexes, g)) for g in point] == [
        list(map(_hexes, g)) for g in point_0]
    assert list(map(_hexes, merit)) == list(map(_hexes, merit_0))
    assert used == used_0


def within_ceilings(ev: rates.Evaluation, target: qos.QosSpec) -> bool:
    return (ev.status == "ok" and ev.d_p <= target.d_p_max
            and ev.d_s <= target.d_s_max)


def check_closed_form(seed: int, n: int, strategy: StrategyKind,
                      schedules: int = 200) -> tuple[bool, int]:
    """At random captures: a feasible closed-form verdict holds through
    `evaluate`, with the same mu_s; no random schedule is feasible where
    the verdict is infeasible; and no random feasible schedule gives
    either user's relaying queues less mass than the closed form.
    Returns the verdict and the number of random feasible schedules."""
    rng = np.random.default_rng(seed)
    outages = random_outages(rng, n, 0.01, 0.6)
    params = random_params(rng, n, strategy)
    target = qos.QosSpec(rng.uniform(1.2, 6.0), rng.uniform(1.5, 10.0),
                         TrafficParams(rng.uniform(0, 0.6),
                                       rng.uniform(0, 0.5)))
    feasible, solved = closed_form(outages, params, target)
    scorer = qos._CaptureScorer(outages, target)
    merit, masses = scorer._solve(
        rates._user_rates(outages, params, target.traffic))
    if feasible:
        ev = evaluate(outages, solved, target.traffic)
        assert within_ceilings(ev, target)
        assert float.hex(ev.report.mu_s) == float.hex(-merit[2])
    report = rate_report(outages, params, target.traffic)
    active_p, active_s = report.lambda_pk > 0, report.lambda_sk > 0
    found = 0
    for _ in range(schedules):
        trial = replace(params, omega=random_simplex(rng, n),
                        alpha=rng.uniform(0, 1, n))
        if not within_ceilings(evaluate(outages, trial, target.traffic),
                               target):
            continue
        found += 1
        assert feasible
        z, y = masses
        share = trial.omega * trial.alpha
        assert share[active_p].sum() >= sum(z) * (1 - 1e-12)
        share = trial.omega * (1 - trial.alpha)
        assert share[active_s].sum() >= sum(y) * (1 - 1e-12)
    return feasible, found


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), strategy=st.sampled_from(list(StrategyKind)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_schedule_against_random_schedules(n, strategy, seed):
    check_closed_form(seed, n, strategy)


def test_closed_form_property_meets_both_verdicts():
    # the family behind the property above gives both verdicts, and
    # random schedules that are feasible to compare masses with
    verdicts, found = [], 0
    for seed in range(45):
        feasible, count = check_closed_form(
            seed, 1 + seed % 3, list(StrategyKind)[seed // 3 % 3])
        verdicts.append(feasible)
        found += count
    assert 0.2 <= np.mean(verdicts) <= 0.8
    assert found >= 100


@st.composite
def least_mass_inputs(draw, branch: str) -> tuple:
    """Arguments (lam, mu, lam_k, c_k, d_max) of `qos._least_mass` over 0
    to 6 relays, with a stable user queue and c_k > 0 wherever lam_k > 0,
    that take `branch`: "idle" (lam == 0), "unrelayed" (no relay with
    arrivals), "no_budget" (arrivals, and d_max at most the queue's own
    delay), "clamped" (a slack clamped at EPS_STAB: every slack under an
    infinite ceiling, or that of a relay with lam_k = 1 and no spread or
    with arrivals of 1e-12 or less, its share of the budget spent and the
    others solved again; the test assumes the last clamp) or "any"."""
    relayed = branch in ("no_budget", "clamped")
    n = draw(st.integers(1 if relayed else 0, 6))
    lam = 0.0 if branch == "idle" else draw(st.floats(1e-6, 0.99))
    mu = draw(st.floats(1e-3 if branch == "idle" else lam + rates.EPS_STAB,
                        1.0))
    lam_k = [0.0] * n if branch == "unrelayed" else draw(st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-12, 1.0)),
        min_size=n, max_size=n))
    if relayed and not any(lam_k):
        lam_k[draw(st.integers(0, n - 1))] = draw(st.floats(1e-12, 1.0))
    c_k = [draw(st.floats(1e-9, 1.0)) if l > 0.0 else
           draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))) for l in lam_k]
    if lam == 0.0:
        return lam, mu, lam_k, c_k, draw(st.one_of(
            st.just(math.inf), st.floats(0.5, 60.0)))
    own = (1.0 - lam) / (mu - lam)
    if branch == "no_budget":
        d_max = own * draw(st.floats(0.5, 1.0))
    elif branch == "clamped":
        clamp = draw(st.sampled_from(["ceiling", "spread", "arrivals"]))
        first = next(k for k, l in enumerate(lam_k) if l > 0.0)
        if clamp == "spread":
            lam_k[first] = 1.0
        elif clamp == "arrivals":
            lam_k[first] = draw(st.floats(1e-15, 1e-12))
        d_max = (math.inf if clamp == "ceiling" else
                 own + draw(st.floats(1e-3, 50.0)))
    else:
        d_max = draw(st.one_of(st.just(math.inf), st.floats(1.0, 60.0)))
    return lam, mu, lam_k, c_k, d_max


@pytest.mark.parametrize("branch", ["idle", "unrelayed", "no_budget",
                                    "clamped", "any"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_least_mass_matches_first_water_filling(branch, data):
    """The rewritten water-filling gives the bits of the one first written
    (`oracle_least_mass`) in each of its branches: (excess, z), every
    float by `float.hex`, and None where the oracle gives None."""
    args = data.draw(least_mass_inputs(branch))
    excess, z = qos._least_mass(*args)
    excess_0, z_0 = oracle_least_mass(*args)
    assert _hexes(excess) == _hexes(excess_0)
    assert (z is None) == (z_0 is None)
    if z_0 is not None:
        assert list(map(_hexes, z)) == list(map(_hexes, z_0))
    lam, _, lam_k, c_k, _ = args
    if branch == "unrelayed" or lam == 0.0:
        assert z_0 == [0.0] * len(lam_k)
    if branch == "no_budget":
        assert z_0 is None
    if branch == "clamped":
        assume(any(l > 0.0 and v == (l + rates.EPS_STAB) / c
                   for l, c, v in zip(lam_k, c_k, z_0)))


def edge_errors(rng: np.random.Generator, n: int) -> SensingErrorParams:
    """Sensing errors up to 0.5, a fifth of them exactly 0: a relay with
    no errors leaves a factor of the certificate at 1, where the schedule
    sum's slack lifts it above 1."""
    def draw():
        return np.where(rng.uniform(size=n) < 0.2, 0.0,
                        rng.uniform(0.0, 0.5, n))
    return SensingErrorParams(draw(), draw(), draw())


def edge_point(rng: np.random.Generator, n: int,
               strategy: StrategyKind) -> StrategyParams:
    """A random point, every other one accepting everything it decodes
    and every third one scheduling a single relay, which is where the
    certificate's factors are attained; its schedule sums to 1 - 1e-9,
    1 or 1 + 1e-9 (to six digits: the most the checking constructor
    allows)."""
    params = random_params(rng, n, strategy)
    if rng.uniform() < 0.5:
        params = replace(params, f_p=np.ones(n), f_s=np.ones(n))
    if n and rng.uniform() < 1 / 3:
        params = replace(params, omega=np.eye(n)[rng.integers(n)])
    scale = 1.0 + int(rng.integers(-1, 2)) * rates.SIMPLEX_TOL * (1 - 1e-6)
    if n and params.omega.max() * scale <= 1.0:    # a vertex cannot grow
        params = replace(params, omega=params.omega * scale)
    return params


def check_sensing_ceiling(seed: int, n: int,
                          points: int = 30) -> tuple[int, bool]:
    """On a random problem with `edge_errors`: where every factor of the
    certificate is at most 1, the sensing-aware ceiling is at most the
    perfect-sensing one, and None under perfect sensing gives None under
    errors; and every point `evaluate` scores feasible under the errors
    has an mu_s at or below the sensing-aware ceiling.  Returns the
    number of feasible points and whether the errors lowered the
    ceiling."""
    rng = np.random.default_rng(seed)
    outages = random_outages(rng, n, 0.01, 0.6)
    target = qos.QosSpec(rng.uniform(1.2, 12.0), rng.uniform(1.5, 20.0),
                         TrafficParams(rng.uniform(0, 0.5),
                                       rng.uniform(0, 0.3)))
    errors = edge_errors(rng, n)
    perfect = qos.secondary_rate_ceiling(outages, target)
    aware = qos.secondary_rate_ceiling(outages, target, errors)
    terms = rates.sensing_terms(errors)
    factors = ((1.0 + rates.SIMPLEX_TOL) * np.concatenate(
        (terms.survive_p, terms.survive_s, terms.no_false_alarm))
        if n else np.ones(1))
    if factors.max() <= 1.0:
        assert perfect is not None or aware is None
        assert aware is None or aware <= perfect
    found = 0
    for i in range(points):
        params = edge_point(rng, n, list(StrategyKind)[i % 3])
        ev = evaluate(outages, params, target.traffic, errors)
        if within_ceilings(ev, target):
            found += 1
            assert aware is not None and ev.report.mu_s <= aware
    return found, perfect is not None and (aware is None or aware < perfect)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_sensing_aware_ceiling(n, seed):
    check_sensing_ceiling(seed, n)


def test_sensing_aware_ceiling_property_is_exercised():
    # with relays, the family behind the property above has feasible
    # points to bound and errors that lower the ceiling below the
    # perfect-sensing one
    found, lowered = 0, 0
    for seed in range(60):
        count, low = check_sensing_ceiling(seed, 1 + seed % 4)
        found += count
        lowered += low
    assert found >= 100
    assert lowered >= 20


def ladder_against_searches(seed: int, strategy: StrategyKind,
                            sensing: bool):
    """The count `minimize_relay_count` returns on a generated problem
    (None for `NoFeasibleRelayCount`), and the least n <= min(n_max, N)
    whose standalone search over the first n relays, with the ladder's
    budget, restarts and seed, is feasible (None where there is none).
    The direct links are weak enough that relays often matter."""
    rng = np.random.default_rng(seed)
    n, n_max = int(rng.integers(0, 5)), int(rng.integers(0, 6))
    outages = OutageTable(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.9),
                          *(rng.uniform(0.01, 0.5, n) for _ in range(4)))
    network = NetworkConfig(
        outages, TrafficParams(rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.3)),
        random_sensing_errors(rng, n, 0.3) if sensing else None)
    target = qos.QosSpec(rng.uniform(2, 30), rng.uniform(3, 60),
                         network.traffic)
    kw = dict(budget=int(rng.integers(50, 400)),
              restarts=int(rng.integers(0, 3)), seed=int(rng.integers(0, 99)))
    try:
        got = qos.minimize_relay_count(network, strategy, target, n_max, **kw)
    except NoFeasibleRelayCount:
        got = None
    want = next((k for k in range(min(n_max, n) + 1)
                 if qos.maximize_secondary_throughput(
                     network.take(k), strategy, target, **kw).feasible), None)
    return got, want


@pytest.mark.parametrize("sensing", [False, True])
@pytest.mark.parametrize("strategy", list(StrategyKind))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_ladder_is_least_feasible_standalone_search(strategy, sensing, seed):
    got, want = ladder_against_searches(seed, strategy, sensing)
    assert got == want


def test_ladder_property_is_exercised():
    # the family behind the property above has ladders that need no
    # relay, ladders that need some, and ladders no count satisfies
    counts = {ladder_against_searches(seed, list(StrategyKind)[seed % 3],
                                      seed % 2 == 1)[1]
              for seed in range(60)}
    assert {0, 1, None} <= counts


def certificate_against_search(seed: int, strategy: StrategyKind,
                               sensing: bool) -> qos.OptResult:
    """A search on a generated problem, checked against the certificate
    `secondary_rate_ceiling` of its strategy: the result carries that
    ceiling; a None ceiling gives an infeasible result with no evaluation;
    a feasible result's best_mu_s is at most the ceiling; and a search
    that stopped at the certificate is feasible, with best_mu_s within
    2 CEILING_ROUNDING, relative, of the ceiling.  Returns the result."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 4))
    outages = OutageTable(rng.uniform(0.05, 0.8), rng.uniform(0.05, 0.9),
                          *(rng.uniform(0.01, 0.5, n) for _ in range(4)))
    network = NetworkConfig(
        outages, TrafficParams(rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.4)),
        random_sensing_errors(rng, n, 0.3) if sensing else None)
    target = qos.QosSpec(rng.uniform(1.2, 20), rng.uniform(1.5, 40),
                         network.traffic)
    result = qos.maximize_secondary_throughput(
        network, strategy, target, budget=int(rng.integers(50, 600)),
        restarts=int(rng.integers(0, 3)), seed=int(rng.integers(0, 99)))
    ceiling = qos.secondary_rate_ceiling(network.outages(strategy), target,
                                         network.sensing, strategy=strategy)
    assert result.ceiling == ceiling
    if ceiling is None:
        assert not result.feasible and result.evaluations == 0
    elif result.feasible:
        assert result.best_mu_s <= ceiling
    if result.stopped_at_ceiling:
        assert result.feasible
        assert result.best_mu_s * (1 + qos.CEILING_ROUNDING) ** 2 >= ceiling
    return result


@pytest.mark.parametrize("sensing", [False, True])
@pytest.mark.parametrize("strategy", list(StrategyKind))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_certificate_bounds_the_search(strategy, sensing, seed):
    certificate_against_search(seed, strategy, sensing)


def test_certificate_property_is_exercised():
    # the family behind the property above has problems the certificate
    # rules out, feasible searches that stop at it and feasible searches
    # that run on, each with and without sensing errors
    kinds = set()
    for seed in range(90):
        sensing = seed % 2 == 1
        r = certificate_against_search(seed, list(StrategyKind)[seed % 3],
                                       sensing)
        kinds.add((sensing, "ruled out" if r.ceiling is None else
                   "stopped" if r.stopped_at_ceiling else
                   "feasible" if r.feasible else "infeasible"))
    assert {(s, k) for s in (False, True)
            for k in ("ruled out", "stopped", "feasible")} <= kinds
