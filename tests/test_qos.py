import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cogrelay.qos as qos_module
from cogrelay.channel import StrategyKind
from cogrelay.errors import ConfigError, NoFeasibleRelayCount
from cogrelay.experiments import load_spec
from cogrelay.network import (NetworkConfig, OutageTable, SensingErrorParams,
                              TrafficParams)
from cogrelay.orders import OrderDistribution, first_rank_perm
from cogrelay.qos import (QosSpec, maximize_secondary_throughput,
                          minimize_relay_count, secondary_rate_ceiling)
from cogrelay.rates import (EPS_STAB, StrategyParams, end_to_end_delays,
                            evaluate, primary_rate_bound, rate_report,
                            secondary_rate_cap, sensing_terms)
from support import (capture_merit, closed_form,
                     delay_limited_secondary_ceiling, random_outages,
                     random_params, random_sensing_errors)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TABLE_ROWS12 = OutageTable(0.1, 0.2, [0.1, 0.02], [0.1, 0.1],
                           [0.1, 0.1], [0.1, 0.1])


def fig3_network(lam_p, lam_s=0.2):
    return NetworkConfig(TABLE_ROWS12, TrafficParams(lam_p, lam_s))


class TestMaximizeSecondaryThroughput:
    def test_immediately_infeasible_when_primary_cannot_be_stable(self):
        net = fig3_network(0.99995)
        res = maximize_secondary_throughput(
            net, StrategyKind.ORDERED, QosSpec(10, 10, net.traffic), budget=100)
        assert not res.feasible
        assert res.first_violation == "stability"
        assert res.evaluations == 0

    def test_finds_near_bound_point_moderate_load(self):
        net = fig3_network(0.2)
        res = maximize_secondary_throughput(
            net, StrategyKind.ORDERED, QosSpec(1.6, 3.0, net.traffic),
            budget=6000, restarts=4, seed=1)
        assert res.feasible
        assert res.best_mu_s >= 0.95 * (1 - 0.2)
        assert res.best_mu_s <= secondary_rate_cap(net.traffic) + 1e-12

    def test_feasible_point_revalidates(self):
        net = fig3_network(0.3)
        qos = QosSpec(1.6, 3.0, net.traffic)
        res = maximize_secondary_throughput(
            net, StrategyKind.RANDOM, qos, budget=6000, restarts=4, seed=2)
        assert res.feasible
        assert all(v >= 0 for v in res.constraint_residuals.values())
        report = rate_report(net.outages(StrategyKind.RANDOM),
                             res.best_params, net.traffic)
        assert report.mu_s == pytest.approx(res.best_mu_s, abs=1e-12)
        assert net.traffic.lambda_p <= report.mu_p - EPS_STAB
        assert net.traffic.lambda_s <= report.mu_s - EPS_STAB
        d_p, d_s = end_to_end_delays(report, net.traffic)
        assert d_p <= qos.d_p_max and d_s <= qos.d_s_max

    def test_deterministic_given_seed(self):
        net = fig3_network(0.25)
        qos = QosSpec(2.0, 4.0, net.traffic)
        kw = dict(budget=3000, restarts=3, seed=9)
        a = maximize_secondary_throughput(net, StrategyKind.ORDERED, qos, **kw)
        b = maximize_secondary_throughput(net, StrategyKind.ORDERED, qos, **kw)
        assert a.best_mu_s == b.best_mu_s
        assert a.evaluations == b.evaluations
        assert np.array_equal(a.best_params.omega, b.best_params.omega)
        assert a.best_params.order_p.entries == b.best_params.order_p.entries

    def test_designed_starts_reach_the_secondary_only_point(self):
        # at lambda_p = 0.4 the best known point relays the secondary
        # only (0.918 of 1 - lambda_p); the designed starts alone, with
        # no random restart, must reach 0.9
        net = fig3_network(0.4)
        res = maximize_secondary_throughput(
            net, StrategyKind.ORDERED, QosSpec(1.6, 3.0, net.traffic),
            budget=20_000, restarts=0, seed=0)
        assert res.feasible
        assert res.best_mu_s / (1 - 0.4) >= 0.9

    def test_budget_monotone(self):
        net = fig3_network(0.3)
        qos = QosSpec(1.6, 3.0, net.traffic)
        vals = [maximize_secondary_throughput(
            net, StrategyKind.ORDERED, qos, budget=b, restarts=6,
            seed=3).best_mu_s for b in (500, 2000, 8000)]
        assert vals[0] <= vals[1] + 1e-15
        assert vals[1] <= vals[2] + 1e-15

    def test_loosening_ceilings_never_hurts(self):
        net = fig3_network(0.3)
        best = None
        for d_p, d_s in ((1.6, 3.0), (3.0, 6.0), (math.inf, math.inf)):
            res = maximize_secondary_throughput(
                net, StrategyKind.ORDERED, QosSpec(d_p, d_s, net.traffic),
                budget=5000, restarts=4, seed=4)
            if best is not None:
                assert res.best_mu_s >= best - 1e-12
            best = res.best_mu_s

    def test_delay_limited_classification(self):
        # tiny ceilings: stability is easy, the delay bound is not
        net = fig3_network(0.3)
        res = maximize_secondary_throughput(
            net, StrategyKind.RANDOM, QosSpec(1.01, 1.01, net.traffic),
            budget=3000, restarts=3, seed=5)
        assert not res.feasible
        assert res.first_violation == "delay"

    def test_first_rank_parameterization_for_many_relays(self):
        n = 6
        out = OutageTable(0.3, 0.3, np.full(n, 0.1), np.full(n, 0.1),
                          np.full(n, 0.1), np.full(n, 0.1))
        net = NetworkConfig(out, TrafficParams(0.3, 0.2))
        res = maximize_secondary_throughput(
            net, StrategyKind.ORDERED, QosSpec(10, 10, net.traffic),
            budget=2500, restarts=2, seed=6)
        assert res.feasible
        assert res.best_params.order_p.n_relays == n

    @pytest.mark.parametrize("lam_p", [0.3, 0.5, 0.99995])
    def test_result_holds_plain_types(self, lam_p):
        # 0.5 is infeasible after a search, 0.99995 before one
        net = fig3_network(lam_p)
        res = maximize_secondary_throughput(
            net, StrategyKind.ORDERED, QosSpec(1.6, 3.0, net.traffic),
            budget=500, restarts=1, seed=3)
        assert res.feasible is (lam_p == 0.3)
        assert type(res.feasible) is bool
        assert type(res.best_mu_s) is float
        assert type(res.budget_exhausted) is bool
        assert type(res.evaluations) is int
        assert res.constraint_residuals
        assert all(type(v) is float
                   for v in res.constraint_residuals.values())

    def test_rejects_bad_budget(self):
        net = fig3_network(0.2)
        with pytest.raises(ConfigError):
            maximize_secondary_throughput(
                net, StrategyKind.ORDERED, QosSpec(2, 2, net.traffic), budget=0)

    @pytest.mark.parametrize("kw", [
        dict(budget=math.nan), dict(budget=2.5), dict(budget=True),
        dict(budget=20.0), dict(restarts=-1), dict(restarts=2.5),
        dict(restarts=False), dict(seed=-1), dict(seed=1.5),
        dict(seed=math.inf)])
    def test_rejects_bad_integer_arguments(self, kw):
        # budget=nan died with a TypeError, seed=-1 with numpy's error
        # from inside the search, and budget=2.5 ran silently
        net = fig3_network(0.2)
        with pytest.raises(ConfigError, match=next(iter(kw))):
            maximize_secondary_throughput(
                net, StrategyKind.ORDERED, QosSpec(2, 2, net.traffic),
                **{"budget": 100, **kw})

    @pytest.mark.parametrize("lam_s, feasible", [(0.1, True),
                                                 (0.75 - 5e-7, False)])
    @pytest.mark.parametrize("sensing", [False, True])
    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_zero_relays_score_their_one_point_once(
            self, strategy, sensing, lam_s, feasible, monkeypatch):
        # with no relay there is no coordinate to move, and every start is
        # the one point, which the search scores once.  At lambda_s
        # 0.75 - 5e-7 the secondary (mu_s = 0.75) misses the stability
        # margin, which the certificate does not rule out
        errors = SensingErrorParams([0.1], [0.1], [0.05]) if sensing else None
        net = NetworkConfig(OutageTable(0.05, 0.05, [0.1], [0.1], [0.1],
                                        [0.1]),
                            TrafficParams(0.2, lam_s), errors).take(0)
        scores = [0]
        for cls in (qos_module._Evaluator, qos_module._CaptureScorer):
            def counted(*args, wrapped=cls.__dict__["score"], **kwargs):
                scores[0] += 1
                return wrapped(*args, **kwargs)
            monkeypatch.setattr(cls, "score", counted)
        res = maximize_secondary_throughput(
            net, strategy, QosSpec(25, math.inf, net.traffic), budget=500,
            restarts=3, seed=5)
        assert res.evaluations == res.restarts_used == scores[0] == 1
        assert not res.budget_exhausted
        assert res.feasible is feasible
        assert res.first_violation == (None if feasible else "stability")
        assert (res.constraint_residuals["stability_s"] < 0) is not feasible
        # every start, designed or drawn, stands for the parameters the
        # search reports (a drawn od weight may read 1 - 2**-53, which
        # divides to 1)
        space = qos_module._Space(strategy, 0, schedule=sensing)
        outages = net.outages(strategy)
        starts = qos_module._designed_starts(space, outages) + [
            space.random_point(np.random.default_rng([5, i]))
            for i in range(3)]

        def stands_for(params):
            return repr([getattr(params, name) for name in (
                "omega", "alpha", "f_p", "f_s", "beta", "order_p",
                "order_s")])

        assert {stands_for(space.to_params(start)) for start in starts} == {
            stands_for(res.best_params)}
        ev = evaluate(outages, res.best_params, net.traffic, net.sensing)
        assert res.best_mu_s == (ev.report.mu_s if feasible else 0.0)

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("sensing", [False, True])
    def test_ordered_search_past_eight_relays(self, n, sensing):
        # od searches the n first-rank orders above the dense-order
        # limit, with no relay cap
        net = many_relay_network(n, 0.35 if sensing else 0.37, sensing)
        target = QosSpec(10, 1000, net.traffic)
        res = maximize_secondary_throughput(
            net, StrategyKind.ORDERED, target, budget=2000, restarts=1,
            seed=3)
        assert res.feasible
        assert res.best_mu_s <= res.ceiling
        for dist in (res.best_params.order_p, res.best_params.order_s):
            assert dist.n_relays == n
            assert set(dist.entries) <= {first_rank_perm(n, k)
                                         for k in range(n)}
        ev = evaluate(net.outages(StrategyKind.ORDERED), res.best_params,
                      net.traffic, net.sensing)
        assert ev.status == "ok" and ev.report.mu_s == res.best_mu_s


def many_relay_network(n, lam_s, sensing):
    """n identical weak relays to a secondary with no direct link (and a
    primary with no load): the relays must capture more than lambda_s
    of the secondary's packets and forward them in its idle slots, which
    takes 9 relays at lambda_s 0.37 and 10 at 0.38; with sensing errors
    0.001 the search meets lambda_s 0.35 from 9 relays on."""
    errors = SensingErrorParams(*[[0.001] * n] * 3) if sensing else None
    return NetworkConfig(OutageTable(0.0, 1.0, [0.5] * n, [0.9] * n,
                                     [0.0] * n, [0.0] * n),
                         TrafficParams(0.0, lam_s), errors)


class TestOptResultCeiling:
    """`OptResult.ceiling` is the certificate `secondary_rate_ceiling`
    gives the search's problem, and bounds the rate the search finds."""

    def test_certified_infeasible_exits_at_once(self):
        net = fig3_network(0.5)
        qos = QosSpec(1.6, 3.0, net.traffic)
        assert secondary_rate_ceiling(TABLE_ROWS12, qos) is None
        res = maximize_secondary_throughput(net, StrategyKind.ORDERED, qos,
                                            budget=20_000)
        assert not res.feasible and res.first_violation == "delay"
        assert res.ceiling is None and not res.stopped_at_ceiling
        assert res.evaluations == 0 and res.best_params is None

    def test_exit_names_stability_where_no_point_is_stable(self):
        # on fig10 the certificate rules out every ordered-acceptance
        # point at lambda_p 0.3 even without delay ceilings
        spec = load_spec(CONFIGS / "fig10_feedback_n2.cfg")
        net = spec.network_at(0.3)
        qos = QosSpec(spec.qos.d_p_max, spec.qos.d_s_max, net.traffic)
        assert secondary_rate_ceiling(
            net.outages(StrategyKind.ORDERED),
            QosSpec(math.inf, math.inf, net.traffic)) is None
        res = maximize_secondary_throughput(net, StrategyKind.ORDERED, qos)
        assert (res.feasible, res.first_violation) == (False, "stability")
        assert (res.ceiling, res.evaluations) == (None, 0)

    @pytest.mark.parametrize("with_errors", [False, True])
    def test_exit_holds_under_sensing_errors(self, with_errors):
        spec = load_spec(CONFIGS / "fig11_minrelays_n3.cfg")
        traffic = TrafficParams(0.74, 0.2)
        net = replace(spec.network, traffic=traffic,
                      sensing=spec.network.sensing if with_errors else None)
        res = maximize_secondary_throughput(
            net.take(1), StrategyKind.ORDERED, QosSpec(4.0, 8.0, traffic),
            budget=1_000)
        # with the sensing errors the certificate rules out every stable
        # point on one relay at lambda_p 0.74, even without delay ceilings
        violation = "stability" if with_errors else "delay"
        assert (res.feasible, res.first_violation) == (False, violation)
        assert (res.ceiling, res.evaluations) == (None, 0)

    @pytest.mark.parametrize("criterion", ["07", "08", "10"])
    def test_ceiling_bounds_criterion_searches(self, criterion,
                                              monkeypatch):
        results = []
        search = maximize_secondary_throughput

        def recorded(network, strategy, qos, **kwargs):
            result = search(network, strategy, qos, **kwargs)
            assert result.ceiling == secondary_rate_ceiling(
                network.outages(strategy), qos, network.sensing,
                strategy=strategy)
            results.append(result)
            return result

        monkeypatch.setattr(qos_module, "maximize_secondary_throughput",
                            recorded)
        for network, strategy, qos, kwargs in CRITERION_SEARCHES[criterion]():
            if kwargs.pop("ladder", False):
                try:
                    minimize_relay_count(network, strategy, qos, 3, **kwargs)
                except NoFeasibleRelayCount:
                    pass
            else:
                recorded(network, strategy, qos, **kwargs)
        assert results
        for result in results:
            if result.feasible:
                assert result.best_mu_s <= result.ceiling


def _criterion_07():
    for lam_p in (0.1, 0.2, 0.3, 0.4, 0.5):
        net = fig3_network(lam_p)
        yield (net, StrategyKind.ORDERED, QosSpec(1.6, 3.0, net.traffic),
               dict(budget=20_000, restarts=8, seed=31001))


def _criterion_08():
    spec = load_spec(CONFIGS / "fig10_feedback_n2.cfg")
    traffic = TrafficParams(0.3, 0.4)
    timing = spec.network.channels.timing
    for tau_f in (2.4e-4, 0.0):
        channels = replace(spec.network.channels,
                           timing=replace(timing, feedback_seconds=tau_f))
        net = NetworkConfig(channels, traffic)
        for kind in (StrategyKind.RANDOM, StrategyKind.ORDERED):
            yield (net, kind, QosSpec(5.0, 5.0, traffic),
                   dict(budget=15_000, restarts=6, seed=8))


def _criterion_10():
    spec = load_spec(CONFIGS / "fig11_minrelays_n3.cfg")
    for lam_p in (0.70, 0.72, 0.74):
        traffic = TrafficParams(lam_p, 0.2)
        for sensing in (None, spec.network.sensing):
            net = replace(spec.network, traffic=traffic, sensing=sensing)
            yield (net, StrategyKind.ORDERED, QosSpec(10.0, 20.0, traffic),
                   dict(budget=8000, restarts=4, seed=11, ladder=True))
    traffic = TrafficParams(0.74, 0.2)
    for d_p, d_s in ((4, 8), (6, 14), (10, 20), (30, 60),
                     (math.inf, math.inf)):
        net = replace(spec.network, traffic=traffic)
        yield (net, StrategyKind.ORDERED, QosSpec(d_p, d_s, traffic),
               dict(budget=8000, restarts=4, seed=11, ladder=True))


# the searches of acceptance criteria 07, 08 and 10, with their settings
CRITERION_SEARCHES = {"07": _criterion_07, "08": _criterion_08,
                      "10": _criterion_10}


class TestStopAtCeiling:
    """A search ends after the first local search whose best merit meets
    the strategy's certificate (`qos._at_ceiling`), and says so."""

    def test_fig3_searches_lose_at_most_the_rounding(self, monkeypatch):
        # fig3's optimize sweep, each search against the same search run
        # through every start and restart: a stopped search keeps a rate
        # within 2 CEILING_ROUNDING, relative, of the full search's, and
        # a search that does not stop is the full search
        spec = load_spec(CONFIGS / "fig3_od_n2.cfg")
        kw = dict(budget=spec.optimizer.budget,
                  restarts=spec.optimizer.restarts, seed=spec.sim.seed)
        slack = (1.0 + qos_module.CEILING_ROUNDING) ** 2
        stopped = []
        for lam_p in spec.sweep_values:
            net = spec.network_at(lam_p)
            qos = QosSpec(spec.qos.d_p_max, spec.qos.d_s_max, net.traffic)
            for kind in spec.strategies:
                res = maximize_secondary_throughput(net, kind, qos, **kw)
                with monkeypatch.context() as m:
                    m.setattr(qos_module, "_at_ceiling",
                              lambda merit, ceiling: False)
                    full = maximize_secondary_throughput(net, kind, qos, **kw)
                assert not full.stopped_at_ceiling
                if not res.stopped_at_ceiling:
                    assert (res.best_mu_s, res.evaluations, res.restarts_used,
                            res.constraint_residuals) == (
                        full.best_mu_s, full.evaluations, full.restarts_used,
                        full.constraint_residuals)
                    continue
                stopped.append((lam_p, kind.value))
                assert res.feasible and full.feasible
                assert res.restarts_used == 1 < full.restarts_used
                assert res.evaluations < full.evaluations
                assert res.best_mu_s * slack >= res.ceiling >= full.best_mu_s
        assert stopped == [(0.1, "od"), (0.1, "rd"), (0.1, "rr"),
                           (0.2, "od"), (0.2, "rd"), (0.3, "rd")]


class TestSaturatedFeasibility:
    """The closed-form schedule at saturated acceptance (f = 1) with no
    delay ceilings, where it reduces to relay stability: the schedule
    must give each relaying queue with arrivals l_k at least
    (l_k + EPS_STAB) / c_k."""

    PARAMS = StrategyParams(StrategyKind.RANDOM, [0.5, 0.5], [0.5, 0.5],
                            [1, 1], [1, 1], beta=[0.5, 0.5])

    @staticmethod
    def split(params):
        return params.omega * params.alpha, params.omega * (1 - params.alpha)

    def test_zero_traffic_uniform_split(self):
        qos = QosSpec(math.inf, math.inf, TrafficParams(0.0, 0.0))
        feasible, params = closed_form(TABLE_ROWS12, self.PARAMS, qos)
        z, y = self.split(params)
        assert feasible
        assert np.allclose(z, 0.25) and np.allclose(y, 0.25)

    def test_recovered_point_is_stable(self):
        qos = QosSpec(math.inf, math.inf, TrafficParams(0.4, 0.3))
        feasible, params = closed_form(TABLE_ROWS12, self.PARAMS, qos)
        z, y = self.split(params)
        assert feasible
        assert z.sum() + y.sum() == pytest.approx(1.0)
        report = rate_report(TABLE_ROWS12, params, qos.traffic)
        assert report.stable_p and report.stable_s
        assert np.all(report.stable_pk) and np.all(report.stable_sk)

    def test_near_corner_instance(self):
        # push the load toward the feasibility edge: the least masses
        # approach the whole schedule and the point must stay strictly
        # stable
        qos_edge = None
        lo, hi = 0.0, 0.62
        for _ in range(40):
            mid = (lo + hi) / 2
            qos = QosSpec(math.inf, math.inf, TrafficParams(0.62, mid))
            if closed_form(TABLE_ROWS12, self.PARAMS, qos)[0]:
                lo, qos_edge = mid, qos
            else:
                hi = mid
        assert qos_edge is not None
        feasible, params = closed_form(TABLE_ROWS12, self.PARAMS, qos_edge)
        assert feasible
        report = rate_report(TABLE_ROWS12, params, qos_edge.traffic)
        assert np.all(report.stable_pk) and np.all(report.stable_sk)

    def test_verdict_agrees_with_direct_grid_check(self):
        # when the closed form declares infeasibility, no point on a
        # dense random grid over the schedule simplex satisfies the
        # linear stability system either; feasible verdicts satisfy it
        rng = np.random.default_rng(77)
        infeasible_seen = 0
        for trial in range(12):
            n = 2
            out = OutageTable(rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.9),
                              rng.uniform(0.02, 0.2, n), rng.uniform(0.02, 0.2, n),
                              rng.uniform(0.3, 0.95, n), rng.uniform(0.3, 0.95, n))
            traffic = TrafficParams(rng.uniform(0.3, 0.6), rng.uniform(0.1, 0.3))
            qos = QosSpec(math.inf, math.inf, traffic)
            feasible, params = closed_form(out, self.PARAMS, qos)
            report = rate_report(out, self.PARAMS, traffic)
            if not (report.stable_p and report.stable_s):
                assert not feasible
                continue
            idle = report.pi_p0 * report.pi_s0
            c_p = idle * (1 - out.relay_pd)
            c_s = idle * (1 - out.relay_sd)

            def point_ok(zz, yy):
                return (np.all(report.lambda_pk + EPS_STAB <= zz * c_p)
                        and np.all(report.lambda_sk + EPS_STAB <= yy * c_s))

            if feasible:
                assert point_ok(*self.split(params))
            else:
                infeasible_seen += 1
                grid = rng.dirichlet(np.ones(2 * n), size=10_000)
                assert not any(point_ok(g[:n], g[n:]) for g in grid)
        assert infeasible_seen > 0

    def test_infeasible_when_required_mass_exceeds_one(self):
        out = OutageTable(0.9, 0.9, [0.05, 0.05], [0.05, 0.05],
                          [0.999, 0.999], [0.999, 0.999])
        qos = QosSpec(math.inf, math.inf, TrafficParams(0.5, 0.2))
        assert not closed_form(out, self.PARAMS, qos)[0]

    def test_unstable_primary_reported(self):
        out = OutageTable(1.0, 0.2, [0.9, 0.9], [0.1, 0.1],
                          [0.1, 0.1], [0.1, 0.1])
        qos = QosSpec(math.inf, math.inf, TrafficParams(0.5, 0.1))
        scorer = qos_module._CaptureScorer(out, qos)
        stability, _, _ = capture_merit(scorer, self.PARAMS)
        # the primary is served at 0.1, 0.4 short of its load, and never
        # empties, so the secondary is not served at all
        assert stability == pytest.approx(0.4 + 0.1 + 2 * EPS_STAB)


class TestMinimizeRelayCount:
    @pytest.mark.parametrize("kw", [
        dict(n_max=2.5), dict(n_max=-1), dict(n_max=True), dict(budget=0),
        dict(budget=math.nan), dict(restarts=-1), dict(seed=1.5)])
    def test_rejects_bad_integer_arguments(self, kw):
        # n_max=2.5 raised a TypeError from range, and n_max=-1
        # NoFeasibleRelayCount
        net = fig3_network(0.2)
        with pytest.raises(ConfigError, match=next(iter(kw))):
            minimize_relay_count(net, StrategyKind.RANDOM,
                                 QosSpec(2, 2, net.traffic),
                                 **{"n_max": 1, "budget": 100, **kw})

    def test_strong_direct_links_need_no_relay(self):
        net = NetworkConfig(OutageTable(0.05, 0.05, [0.1], [0.1], [0.1], [0.1]),
                            TrafficParams(0.2, 0.1))
        n = minimize_relay_count(net, StrategyKind.RANDOM,
                                 QosSpec(25, 25, net.traffic), 1,
                                 budget=2000, restarts=2, seed=0)
        assert n == 0

    def test_no_direct_links_need_a_relay(self):
        out = OutageTable(1.0, 1.0, [0.1, 0.1], [0.1, 0.1],
                          [0.1, 0.1], [0.1, 0.1])
        net = NetworkConfig(out, TrafficParams(0.2, 0.1))
        n = minimize_relay_count(net, StrategyKind.RANDOM,
                                 QosSpec(25, 25, net.traffic), 2,
                                 budget=4000, restarts=3, seed=0)
        assert n == 1

    def test_monotone_in_delay_ceilings(self):
        # heterogeneous relays: each extra relay genuinely improves the
        # achievable rates, so looser ceilings can only need fewer relays
        out = OutageTable(1.0, 1.0, [0.5, 0.2, 0.1, 0.05], [0.5, 0.2, 0.1, 0.05],
                          [0.3, 0.2, 0.1, 0.1], [0.3, 0.2, 0.1, 0.1])
        net = NetworkConfig(out, TrafficParams(0.2, 0.1))
        counts = []
        for d_p, d_s in ((6.0, 12.0), (12.0, 24.0), (40.0, 80.0)):
            counts.append(minimize_relay_count(
                net, StrategyKind.RANDOM, QosSpec(d_p, d_s, net.traffic), 4,
                budget=6000, restarts=4, seed=1))
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[0] > counts[2]  # the ceilings actually bind

    def test_no_feasible_count_raises(self, monkeypatch):
        net = NetworkConfig(OutageTable(1.0, 1.0, [0.99], [0.99], [0.99], [0.99]),
                            TrafficParams(0.9, 0.1))
        # the certificate rules out every count, so no search runs at all
        monkeypatch.setattr(qos_module, "maximize_secondary_throughput",
                            None)
        with pytest.raises(NoFeasibleRelayCount):
            minimize_relay_count(net, StrategyKind.RANDOM,
                                 QosSpec(2, 2, net.traffic), 1,
                                 budget=1500, restarts=2, seed=0)

    def test_random_assignment_grows_from_zero_relays(self):
        # zero relays keep the primary stable but starve the secondary, so
        # the zero-relay point seeds the one-relay search
        out = OutageTable(0.4, 0.3, [0.01, 0.01], [0.01, 0.01],
                          [0.01, 0.01], [0.01, 0.01])
        net = NetworkConfig(out, TrafficParams(0.5, 0.2))
        n = minimize_relay_count(net, StrategyKind.RANDOM,
                                 QosSpec(40, 80, net.traffic), 2,
                                 budget=1500, restarts=2, seed=0)
        assert n == 1

    def test_skipped_count_seeds_nothing(self, monkeypatch):
        # zero relays are searched and fail; with one relay ruled out,
        # the ladder searches two relays next
        out = OutageTable(0.4, 0.3, [0.01, 0.01], [0.01, 0.01],
                          [0.01, 0.01], [0.01, 0.01])
        net = NetworkConfig(out, TrafficParams(0.5, 0.2))
        searches = []
        search = maximize_secondary_throughput

        def recorded(network, *args, **kwargs):
            searches.append(network.n_relays)
            return search(network, *args, **kwargs)

        monkeypatch.setattr(qos_module, "maximize_secondary_throughput",
                            recorded)
        monkeypatch.setattr(qos_module, "secondary_rate_ceiling",
                            lambda outages, qos, sensing=None, strategy=None:
                            None if outages.n_relays == 1 else 1.0)
        with pytest.raises(NoFeasibleRelayCount):
            minimize_relay_count(net, StrategyKind.RANDOM,
                                 QosSpec(1.01, 1.01, net.traffic), 2,
                                 budget=300, restarts=1, seed=0)
        assert searches == [0, 2]

    def test_search_without_a_point_seeds_nothing(self, monkeypatch):
        # at two relays round robin's primary rate bound (0.335) is below
        # lambda_p, so that search returns no point; the ladder searches
        # three relays next.  Round robin's own certificate rules out two
        # and three relays, so the ladder and the searches are given the
        # certificate of any strategy, which leaves both counts open
        out = OutageTable(0.95, 0.3, [0.45, 0.95, 0.55], [0.1] * 3,
                          [0.05] * 3, [0.05] * 3)
        net = NetworkConfig(out, TrafficParams(0.35, 0.01))
        assert primary_rate_bound(out.take(2),
                                  StrategyKind.ROUND_ROBIN) < 0.35
        target = QosSpec(20, 100, net.traffic)
        for n in (2, 3):
            assert secondary_rate_ceiling(
                out.take(n), target,
                strategy=StrategyKind.ROUND_ROBIN) is None
        monkeypatch.setattr(qos_module, "secondary_rate_ceiling",
                            lambda outages, qos, sensing=None, strategy=None:
                            secondary_rate_ceiling(outages, qos, sensing))
        searches = []
        search = maximize_secondary_throughput

        def recorded(network, *args, **kwargs):
            result = search(network, *args, **kwargs)
            searches.append((network.n_relays, result.best_params))
            return result

        monkeypatch.setattr(qos_module, "maximize_secondary_throughput",
                            recorded)
        with pytest.raises(NoFeasibleRelayCount):
            minimize_relay_count(net, StrategyKind.ROUND_ROBIN, target, 3,
                                 budget=200, restarts=0)
        assert [n for n, _ in searches] == [1, 2, 3]
        assert searches[1][1] is None

    @pytest.mark.parametrize("lam_s, sensing, count", [
        (0.37, False, 9), (0.38, False, 10), (0.35, True, 9)])
    def test_ordered_ladder_past_eight_relays(self, lam_s, sensing, count):
        # the certificate rules out every count below the answer, save
        # eight relays with sensing errors, where the search finds no
        # feasible point; od searches past eight relays
        net = many_relay_network(10, lam_s, sensing)
        assert minimize_relay_count(
            net, StrategyKind.ORDERED, QosSpec(10, 1000, net.traffic), 10,
            budget=2000, restarts=1, seed=3) == count

    def test_qos_spec_validation(self):
        with pytest.raises(ConfigError):
            QosSpec(0.0, 1.0, TrafficParams(0.1, 0.1))

    @pytest.mark.parametrize("d_p, d_s", [(math.nan, 1.0), (1.0, math.nan)])
    def test_qos_spec_rejects_nan(self, d_p, d_s):
        with pytest.raises(ConfigError):
            QosSpec(d_p, d_s, TrafficParams(0.1, 0.1))


def scored_feasible(outages, params, qos):
    """mu_s when the package scores the point as stable and within both
    delay ceilings, else None."""
    report = rate_report(outages, params, qos.traffic)
    if not (report.stable_p and report.stable_s and report.stable_pk.all()
            and report.stable_sk.all()):
        return None
    d_p, d_s = end_to_end_delays(report, qos.traffic)
    if d_p > qos.d_p_max or d_s > qos.d_s_max:
        return None
    return report.mu_s


class TestDelayLimitedCeiling:
    """The relaxation bound of tests/support.py never falls below a point
    the package scores as feasible."""

    def test_above_the_lambda_04_witness(self):
        net = fig3_network(0.4)
        qos = QosSpec(1.6, 3.0, net.traffic)
        uniform = OrderDistribution.uniform(2)
        witness = StrategyParams(StrategyKind.ORDERED, [0.88, 0.12], [0, 1],
                                 [0, 0.13], [1, 0], order_p=uniform,
                                 order_s=uniform)
        mu_s = scored_feasible(TABLE_ROWS12, witness, qos)
        assert mu_s == pytest.approx(0.5505, abs=1e-4)
        ceiling = delay_limited_secondary_ceiling(TABLE_ROWS12, net.traffic,
                                                  1.6, 3.0)
        assert mu_s <= ceiling
        assert ceiling / (1 - 0.4) == pytest.approx(0.937, abs=1e-3)

    @pytest.mark.parametrize("lam_p", [0.1, 0.2, 0.3])
    def test_above_optimizer_results(self, lam_p):
        net = fig3_network(lam_p)
        res = maximize_secondary_throughput(
            net, StrategyKind.ORDERED, QosSpec(1.6, 3.0, net.traffic),
            budget=20_000, restarts=8, seed=31001)
        assert res.feasible
        ceiling = delay_limited_secondary_ceiling(TABLE_ROWS12, net.traffic,
                                                  1.6, 3.0)
        assert res.best_mu_s <= ceiling <= secondary_rate_cap(net.traffic)

    def test_above_random_feasible_points(self):
        rng = np.random.default_rng(7007)
        strategies = list(StrategyKind)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(1, 4))
            outages = random_outages(rng, n, 0.01, 0.6)
            qos = QosSpec(rng.uniform(1.2, 6.0), rng.uniform(1.5, 10.0),
                          TrafficParams(rng.uniform(0, 0.6),
                                        rng.uniform(0, 0.5)))
            ceiling = delay_limited_secondary_ceiling(
                outages, qos.traffic, qos.d_p_max, qos.d_s_max)
            for i in range(40):
                params = random_params(rng, n, strategies[i % 3])
                mu_s = scored_feasible(outages, params, qos)
                if mu_s is not None:
                    checked += 1
                    assert ceiling is not None and mu_s <= ceiling
        assert checked >= 100  # the family really exercises the bound

    def test_no_point_at_lambda_05(self):
        assert delay_limited_secondary_ceiling(
            TABLE_ROWS12, TrafficParams(0.5, 0.2), 1.6, 3.0) is None

    def test_grid_converged_at_lambda_04(self):
        traffic = TrafficParams(0.4, 0.2)
        coarse = delay_limited_secondary_ceiling(TABLE_ROWS12, traffic,
                                                 1.6, 3.0)
        fine = delay_limited_secondary_ceiling(TABLE_ROWS12, traffic,
                                               1.6, 3.0, grid=1601)
        assert abs(fine - coarse) <= 1e-3


def _random_problem(rng, relay_strength=1.0):
    """A random outage table, delay ceilings and traffic.  A relay
    strength below 1 scales the relay-to-destination success
    probabilities down: relaying more then adds relay delay, so the best
    capture totals lie inside their ranges instead of at the top."""
    n = int(rng.integers(0, 4))
    outages = random_outages(rng, n, 0.01, 0.9)
    outages = replace(outages,
                      relay_pd=1 - relay_strength * (1 - outages.relay_pd),
                      relay_sd=1 - relay_strength * (1 - outages.relay_sd))
    qos = QosSpec(rng.uniform(1.1, 8.0), rng.uniform(1.2, 12.0),
                  TrafficParams(rng.uniform(0, 0.8), rng.uniform(0, 0.6)))
    return outages, qos


class TestSecondaryRateCeiling:
    """`qos.secondary_rate_ceiling`, the certificate the relay-count
    ladder skips counts on, against the grid bound of tests/support.py
    and against points the package scores as feasible."""

    def test_never_below_the_grid_bound(self):
        rng = np.random.default_rng(9009)
        verdicts = []
        for i in range(900):
            outages, qos = _random_problem(rng, (1.0, 0.2, 0.05)[i % 3])
            ceiling = secondary_rate_ceiling(outages, qos)
            grid = delay_limited_secondary_ceiling(
                outages, qos.traffic, qos.d_p_max, qos.d_s_max, grid=101)
            verdicts.append(grid is not None)
            if grid is not None:
                assert ceiling is not None and ceiling >= grid
        assert 0.1 <= np.mean(verdicts) <= 0.9  # both verdicts occur

    @pytest.mark.parametrize("which", ["d_p_max", "d_s_max"])
    def test_admits_at_the_grid_threshold(self, which):
        # one ceiling at the tightest value the grid bound still admits
        # leaves a sliver of feasible capture totals, so a cell scored
        # less favourably than its best point would rule it out
        rng = np.random.default_rng(4242)
        for i in range(40):
            outages, qos = _random_problem(rng, (1.0, 0.2)[i % 2])
            qos = replace(qos, **{which: 60.0})
            if which == "d_p_max":
                qos = replace(qos, d_s_max=math.inf)

            def grid(limit):
                tight = replace(qos, **{which: limit})
                return delay_limited_secondary_ceiling(
                    outages, tight.traffic, tight.d_p_max, tight.d_s_max,
                    grid=201)

            if grid(60.0) is None:
                continue
            low, high = 1.0, 60.0
            for _ in range(40):
                mid = 0.5 * (low + high)
                low, high = (low, mid) if grid(mid) is not None else (mid,
                                                                      high)
            ceiling = secondary_rate_ceiling(
                outages, replace(qos, **{which: high}))
            assert ceiling is not None and ceiling >= grid(high)

    @pytest.mark.parametrize("with_errors", [False, True])
    def test_above_random_feasible_points(self, with_errors):
        # every point is bounded by the ceiling of any strategy and by
        # that of its own strategy, whose capture totals are capped lower
        # under rd and rr
        rng = np.random.default_rng(7107)
        strategies = list(StrategyKind)
        checked = dict.fromkeys(strategies, 0)
        below = 0
        for _ in range(60):
            outages, qos = _random_problem(rng)
            n = outages.n_relays
            sensing = random_sensing_errors(rng, n) if with_errors else None
            ceiling = secondary_rate_ceiling(outages, qos, sensing)
            own = {kind: secondary_rate_ceiling(outages, qos, sensing,
                                                strategy=kind)
                   for kind in strategies}
            assert own[StrategyKind.ORDERED] == ceiling
            below += sum(ceiling is not None and (c is None or c < ceiling)
                         for c in own.values())
            for i in range(40):
                kind = strategies[i % 3]
                points = [random_params(rng, n, kind)]
                if n:   # and the point at f = 1 with one rd decoder, where
                    # the caps are reached
                    points.append(replace(
                        points[0], f_p=np.ones(n), f_s=np.ones(n),
                        beta=None if points[0].beta is None
                        else np.eye(n)[i % n]))
                for point in points:
                    ev = evaluate(outages, point, qos.traffic, sensing)
                    if (ev.status == "ok" and ev.d_p <= qos.d_p_max
                            and ev.d_s <= qos.d_s_max):
                        checked[kind] += 1
                        assert ceiling is not None and own[kind] is not None
                        assert ev.report.mu_s <= min(ceiling, own[kind])
        # the family really exercises the bounds, and the strategy-aware
        # ones really are tighter on some problems
        assert sum(checked.values()) >= 100 and min(checked.values()) >= 60
        assert below >= 10

    def test_covers_the_schedule_sum_slack(self):
        # with error-free relays, a schedule summing to 1 + 1e-9 lifts the
        # sensing chain's rates about 1e-9 above any perfect-sensing rate:
        # the ceiling with the errors covers the point, the one without
        # them does not
        qos = QosSpec(math.inf, math.inf, TrafficParams(0.3, 0.2))
        errors = SensingErrorParams(np.zeros(2), np.zeros(2), np.zeros(2))
        order = OrderDistribution(2, {(1, 2): 1.0})
        params = StrategyParams(
            StrategyKind.ORDERED, np.full(2, 0.5) * (1 + 0.999999e-9),
            np.full(2, 0.5), np.ones(2), np.ones(2), order_p=order,
            order_s=order)
        ev = evaluate(TABLE_ROWS12, params, qos.traffic, errors)
        assert ev.status == "ok"
        assert ev.report.mu_s > secondary_rate_ceiling(TABLE_ROWS12, qos)
        assert ev.report.mu_s <= secondary_rate_ceiling(TABLE_ROWS12, qos,
                                                        errors)

    def test_takes_sensing_terms_as_well(self):
        spec = load_spec(CONFIGS / "fig11_minrelays_n3.cfg")
        outages = spec.network.outages(StrategyKind.ORDERED)
        qos = QosSpec(10.0, 20.0, TrafficParams(0.3, 0.2))
        errors = spec.network.sensing
        assert secondary_rate_ceiling(outages, qos, errors) == (
            secondary_rate_ceiling(outages, qos, sensing_terms(errors)))

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 3), (0, 2)])
    def test_sensing_errors_over_other_relays_raise(self, n, m):
        errors = SensingErrorParams([0.1] * m, [0.1] * m, [0.1] * m)
        qos = QosSpec(4.0, 8.0, TrafficParams(0.3, 0.2))
        for sensing in (errors, sensing_terms(errors)):
            with pytest.raises(ConfigError):
                secondary_rate_ceiling(TABLE_ROWS12.take(n), qos, sensing)

    def test_criterion_07_table(self):
        def ceiling(lam_p):
            return secondary_rate_ceiling(
                TABLE_ROWS12, QosSpec(1.6, 3.0, TrafficParams(lam_p, 0.2)))

        assert ceiling(0.5) is None
        # at 0.4 the cells sit above the grid's 0.937 and the witness
        assert 0.937 <= ceiling(0.4) / (1 - 0.4) <= 0.95

    @pytest.mark.parametrize("lam_p, lam_s, n, d_max", [
        (0.0, 0.2, 2, 3.0), (0.3, 0.0, 2, 3.0), (0.0, 0.0, 2, 3.0),
        (0.3, 0.2, 0, 3.0), (0.3, 0.2, 2, math.inf), (0.0, 0.0, 0, math.inf),
        (1.0, 1.0, 2, math.inf)])
    def test_edge_inputs_raise_no_warnings(self, lam_p, lam_s, n, d_max):
        outages = TABLE_ROWS12.take(n)
        qos = QosSpec(d_max, 2 * d_max, TrafficParams(lam_p, lam_s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ceiling = secondary_rate_ceiling(outages, qos)
        if lam_p == 1.0:
            assert ceiling is None
        else:
            assert ceiling is not None
            assert ceiling <= secondary_rate_cap(qos.traffic)

    def test_no_relays_no_load_no_ceilings(self):
        # the bound is attained: the secondary gets its whole direct link,
        # up to the allowance for rounding
        qos = QosSpec(math.inf, math.inf, TrafficParams(0.0, 0.0))
        assert secondary_rate_ceiling(TABLE_ROWS12.take(0), qos) == (
            (1 - 0.2) * (1 + qos_module.CEILING_ROUNDING))
