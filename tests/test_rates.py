
import math

import numpy as np
import pytest

from cogrelay.channel import StrategyKind
from cogrelay.errors import ConfigError, UnstableQueueError
import cogrelay.rates as rates
import cogrelay.sim as sim
from cogrelay.network import (NetworkConfig, OutageTable, SensingErrorParams,
                              TrafficParams)
from cogrelay.orders import OrderDistribution
from cogrelay.qos import QosSpec, secondary_rate_ceiling
from cogrelay.rates import (EPS_STAB, StrategyParams, apply_sensing_errors,
                            end_to_end_delays, evaluate, max_service_rates,
                            queue_delay, rate_report, relay_service_rates,
                            secondary_rate_cap)
from support import (oracle_user_rates, random_order_distribution,
                     random_outages, random_params, random_sensing_errors,
                     random_simplex)

TABLE_ROWS12 = OutageTable(pu_pd=0.1, su_sd=0.2,
                           pu_relay=[0.1, 0.02], su_relay=[0.1, 0.1],
                           relay_pd=[0.1, 0.1], relay_sd=[0.1, 0.1])
IDLE = TrafficParams(0.0, 0.0)  # mu_p does not depend on the traffic


def od_params(omega, alpha, f_p, f_s, order=None):
    n = len(omega)
    order = order or OrderDistribution.uniform(n)
    return StrategyParams(StrategyKind.ORDERED, omega, alpha, f_p, f_s,
                          order_p=order, order_s=order)


class TestPrimaryServiceRate:
    def test_no_acceptance_reduces_to_direct_link(self):
        for kind in StrategyKind:
            kw = {}
            if kind is StrategyKind.ORDERED:
                kw = dict(order_p=OrderDistribution.uniform(2),
                          order_s=OrderDistribution.uniform(2))
            elif kind is StrategyKind.RANDOM:
                kw = dict(beta=[0.3, 0.7])
            p = StrategyParams(kind, [0.5, 0.5], [0.5, 0.5], [0, 0], [0, 0], **kw)
            assert rate_report(TABLE_ROWS12, p, IDLE).mu_p == pytest.approx(0.9)

    def test_full_acceptance_ordered(self):
        p = od_params([0.5, 0.5], [0.5, 0.5], [1, 1], [1, 1])
        assert rate_report(TABLE_ROWS12, p, IDLE).mu_p == pytest.approx(0.9998, abs=1e-12)

    def test_full_acceptance_ordered_any_order(self):
        # with f=1 the capture probability telescopes to 1 - prod(outage),
        # independent of the rank distribution
        for order in (OrderDistribution.point_mass((1, 2)),
                      OrderDistribution.point_mass((2, 1)),
                      OrderDistribution(2, {(1, 2): 0.25, (2, 1): 0.75})):
            p = od_params([0.5, 0.5], [0.5, 0.5], [1, 1], [1, 1], order)
            assert rate_report(TABLE_ROWS12, p, IDLE).mu_p == pytest.approx(
                0.9998, abs=1e-12)

    def test_random_assignment_best_vertex(self):
        p = StrategyParams(StrategyKind.RANDOM, [0.5, 0.5], [0.5, 0.5],
                           [1, 1], [1, 1], beta=[0.0, 1.0])
        assert rate_report(TABLE_ROWS12, p, IDLE).mu_p == pytest.approx(0.998, abs=1e-12)


class TestSecondaryServiceRate:
    def test_idle_primary_gives_bracket(self):
        p = od_params([0.5, 0.5], [0.5, 0.5], [1, 1], [1, 1])
        mu_s = rate_report(TABLE_ROWS12, p, TrafficParams(0.0, 0.1)).mu_s
        assert mu_s == pytest.approx(1 - 0.2 * 0.1 * 0.1, abs=1e-12)

    def test_vanishes_at_stability_boundary(self):
        p = od_params([0.5, 0.5], [0.5, 0.5], [1, 1], [1, 1])
        mu_p = rate_report(TABLE_ROWS12, p, IDLE).mu_p
        mu_s = rate_report(TABLE_ROWS12, p,
                           TrafficParams(mu_p - 1e-5, 0.1)).mu_s
        assert mu_s < 2e-5

    def test_unstable_primary_flagged(self):
        p = od_params([0.5, 0.5], [0.5, 0.5], [0, 0], [0, 0])
        report = rate_report(TABLE_ROWS12, p, TrafficParams(0.95, 0.1))
        assert not report.stable_p
        assert report.pi_p0 == 0 and report.mu_s == 0


class TestRelayRates:
    def test_zero_acceptance_zero_arrivals(self):
        p = od_params([0.5, 0.5], [0.5, 0.5], [0, 0], [0.5, 0.5])
        lam_pk = rate_report(TABLE_ROWS12, p, TrafficParams(0.3, 0.1)).lambda_pk
        assert np.all(lam_pk == 0)

    def test_zero_primary_traffic_zero_arrivals(self):
        p = od_params([0.5, 0.5], [0.5, 0.5], [1, 1], [1, 1])
        lam_pk = rate_report(TABLE_ROWS12, p, TrafficParams(0.0, 0.1)).lambda_pk
        assert np.all(lam_pk == 0)

    def test_random_assignment_chain_value(self):
        p = StrategyParams(StrategyKind.RANDOM, [0.5, 0.5], [0.5, 0.5],
                           [1, 1], [1, 1], beta=[0.5, 0.5])
        traffic = TrafficParams(0.3, 0.0)
        mu_p = rate_report(TABLE_ROWS12, p, IDLE).mu_p
        pi_p0 = 1 - 0.3 / mu_p
        lam_pk = rate_report(TABLE_ROWS12, p, traffic).lambda_pk
        assert lam_pk[0] == pytest.approx(0.1 * 0.9 * 0.5 * (1 - pi_p0), abs=1e-12)

    def test_service_rates_product(self):
        p = od_params([0.5, 0.5], [0.5, 0.5], [1, 1], [1, 1])
        out = OutageTable(0.1, 0.2, [0.1, 0.1], [0.1, 0.1], [0.1, 0.1], [0.1, 0.1])
        mu_pk, mu_sk = relay_service_rates(out, p, 0.8, 0.8)
        assert mu_pk[0] == pytest.approx(0.144, abs=1e-12)
        assert np.allclose(mu_pk, mu_sk)

    def test_alpha_one_starves_secondary_queue(self):
        p = od_params([0.5, 0.5], [1.0, 1.0], [1, 1], [1, 1])
        _, mu_sk = relay_service_rates(TABLE_ROWS12, p, 0.9, 0.9)
        assert np.all(mu_sk == 0)

    def test_omega_zero_disables_relay(self):
        p = od_params([0.0, 1.0], [0.5, 0.5], [1, 1], [1, 1])
        mu_pk, mu_sk = relay_service_rates(TABLE_ROWS12, p, 0.9, 0.9)
        assert mu_pk[0] == 0 and mu_sk[0] == 0


class TestMaxServiceRates:
    def test_table_values(self):
        traffic = TrafficParams(0.0, 0.0)
        assert max_service_rates(TABLE_ROWS12, traffic, StrategyKind.ORDERED)[0] \
            == pytest.approx(0.9998, abs=1e-12)
        assert max_service_rates(TABLE_ROWS12, traffic, StrategyKind.RANDOM)[0] \
            == pytest.approx(0.998, abs=1e-12)
        assert max_service_rates(TABLE_ROWS12, traffic, StrategyKind.ROUND_ROBIN)[0] \
            == pytest.approx(0.994, abs=1e-12)

    def test_strategy_ordering_random_sweep(self):
        rng = np.random.default_rng(3)
        traffic = TrafficParams(0.0, 0.0)
        for _ in range(1000):
            out = random_outages(rng, int(rng.integers(1, 6)))
            od = max_service_rates(out, traffic, StrategyKind.ORDERED)
            rd = max_service_rates(out, traffic, StrategyKind.RANDOM)
            rr = max_service_rates(out, traffic, StrategyKind.ROUND_ROBIN)
            assert od[0] >= rd[0] >= rr[0]
            assert od[1] >= rd[1] >= rr[1]

    def test_single_relay_degenerate(self):
        rng = np.random.default_rng(4)
        out = random_outages(rng, 1)
        traffic = TrafficParams(0.2, 0.0)
        vals = [max_service_rates(out, traffic, k) for k in StrategyKind]
        assert vals[0] == pytest.approx(vals[1])
        assert vals[1] == pytest.approx(vals[2])

    def test_unstable_primary(self):
        with pytest.raises(UnstableQueueError):
            max_service_rates(TABLE_ROWS12, TrafficParams(0.99999, 0.0),
                              StrategyKind.ORDERED)

    def test_secondary_bound_consistency(self):
        # with full acceptance the ordered strategy's secondary rate equals
        # its bound for any rank distribution; random assignment matches
        # when one relay is strongest on both the uplink and the schedule
        rng = np.random.default_rng(44)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            out = random_outages(rng, n)
            traffic = TrafficParams(rng.uniform(0, 0.5), 0.2)
            ones = np.ones(n)
            p_od = StrategyParams(StrategyKind.ORDERED, random_simplex(rng, n),
                                  rng.uniform(0, 1, n), ones, ones,
                                  order_p=random_order_distribution(rng, n),
                                  order_s=random_order_distribution(rng, n))
            if traffic.lambda_p >= rate_report(out, p_od, IDLE).mu_p:
                continue
            mu_s = rate_report(out, p_od, traffic).mu_s
            bound = max_service_rates(out, traffic, StrategyKind.ORDERED)[1]
            assert mu_s == pytest.approx(bound, abs=1e-12)

        # one dominant relay: both argmin vertices coincide
        out = OutageTable(0.3, 0.4, [0.05, 0.5], [0.04, 0.6],
                          [0.1, 0.1], [0.1, 0.1])
        p_rd = StrategyParams(StrategyKind.RANDOM, [0.5, 0.5], [0.5, 0.5],
                              [1, 1], [1, 1], beta=[1.0, 0.0])
        traffic = TrafficParams(0.3, 0.2)
        mu_s = rate_report(out, p_rd, traffic).mu_s
        bound = max_service_rates(out, traffic, StrategyKind.RANDOM)[1]
        assert mu_s == pytest.approx(bound, abs=1e-12)

    def test_relay_arrivals_never_exceed_user_traffic(self):
        rng = np.random.default_rng(45)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            out = random_outages(rng, n)
            kind = list(StrategyKind)[rng.integers(0, 3)]
            params = random_params(rng, n, kind)
            mu_p = rate_report(out, params, IDLE).mu_p
            traffic = TrafficParams(rng.uniform(0, 0.95) * mu_p,
                                    rng.uniform(0, 1))
            report = rate_report(out, params, traffic)
            assert report.lambda_pk.sum() <= traffic.lambda_p + 1e-12
            assert report.lambda_sk.sum() <= traffic.lambda_s + 1e-12

    def test_full_acceptance_attains_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            out = random_outages(rng, n)
            traffic = TrafficParams(0.0, 0.1)
            ones = np.ones(n)
            p_od = StrategyParams(StrategyKind.ORDERED, random_simplex(rng, n),
                                  rng.uniform(0, 1, n), ones, ones,
                                  order_p=OrderDistribution.uniform(n),
                                  order_s=OrderDistribution.uniform(n))
            best_k = int(np.argmin(out.pu_relay))
            beta = np.zeros(n)
            beta[best_k] = 1.0
            # secondary argmin vertex differs in general; check mu_p only
            p_rd = StrategyParams(StrategyKind.RANDOM, random_simplex(rng, n),
                                  rng.uniform(0, 1, n), ones, ones, beta=beta)
            mu_od = rate_report(out, p_od, IDLE).mu_p
            mu_rd = rate_report(out, p_rd, IDLE).mu_p
            assert mu_od == pytest.approx(
                max_service_rates(out, traffic, StrategyKind.ORDERED)[0], abs=1e-12)
            assert mu_rd == pytest.approx(
                max_service_rates(out, traffic, StrategyKind.RANDOM)[0], abs=1e-12)


class TestCapAndDelay:
    def test_secondary_cap(self):
        assert secondary_rate_cap(TrafficParams(0.3, 0.0)) == pytest.approx(0.7)
        assert secondary_rate_cap(TrafficParams(1.0, 0.0)) == 0.0

    def test_cap_dominates_secondary_rate(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(1, 5))
            out = random_outages(rng, n)
            kind = list(StrategyKind)[rng.integers(0, 3)]
            params = random_params(rng, n, kind)
            mu_p = rate_report(out, params, IDLE).mu_p
            traffic = TrafficParams(rng.uniform(0, mu_p - EPS_STAB), 0.1)
            mu_s = rate_report(out, params, traffic).mu_s
            assert mu_s <= secondary_rate_cap(traffic) + 1e-12

    def test_queue_delay_values(self):
        assert queue_delay(0.2, 0.5) == pytest.approx(8 / 3)
        assert queue_delay(0.0, 1.0) == 1.0
        assert queue_delay(0.499999, 0.5) > 1e5

    def test_queue_delay_unstable(self):
        with pytest.raises(UnstableQueueError):
            queue_delay(0.5, 0.5)
        with pytest.raises(UnstableQueueError):
            queue_delay(0.6, 0.5)


class TestEndToEndDelays:
    def test_no_relayed_traffic(self):
        p = od_params([0.5, 0.5], [0.5, 0.5], [0, 0], [0, 0])
        traffic = TrafficParams(0.3, 0.1)
        report = rate_report(TABLE_ROWS12, p, traffic)
        d_p, d_s = end_to_end_delays(report, traffic)
        assert d_p == pytest.approx(queue_delay(0.3, report.mu_p))
        assert d_s == pytest.approx(queue_delay(0.1, report.mu_s))

    def test_single_relay_path_sums(self):
        out = OutageTable(1.0, 1.0, [0.1], [0.1], [0.1], [0.1])
        p = od_params([1.0], [0.5], [1.0], [1.0],
                      OrderDistribution.uniform(1))
        traffic = TrafficParams(0.2, 0.05)
        report = rate_report(out, p, traffic)
        # no direct link: every served packet goes through the relay
        assert report.lambda_pk[0] == pytest.approx(traffic.lambda_p, rel=1e-9)
        d_p, _ = end_to_end_delays(report, traffic)
        expect = queue_delay(0.2, report.mu_p) + \
            queue_delay(report.lambda_pk[0], report.mu_pk[0])
        assert d_p == pytest.approx(expect)

    def test_unstable_relay_queue_named(self):
        p = od_params([0.0, 1.0], [0.0, 0.0], [1, 1], [1, 1])
        traffic = TrafficParams(0.5, 0.0)
        report = rate_report(TABLE_ROWS12, p, traffic)
        with pytest.raises(UnstableQueueError) as err:
            end_to_end_delays(report, traffic)
        assert "primary-relay" in err.value.queue

    def test_idle_unserved_user_queue_named(self):
        # no secondary arrivals and no secondary service: the stability
        # flags pass, but the delay law is infinite, so the status names
        # the secondary queue
        out = OutageTable(0.1, 1.0, [0.1], [1.0], [0.1], [0.1])
        p = StrategyParams(StrategyKind.ROUND_ROBIN, [1.0], [0.5], [1.0],
                           [0.0])
        traffic = TrafficParams(0.2, 0.0)
        ev = evaluate(out, p, traffic)
        assert ev.report.stable_p and ev.report.stable_s
        assert ev.report.mu_s == 0.0
        assert ev.status == "unstable:secondary"
        assert ev.d_p == ev.d_s == math.inf


class TestEvaluate:
    def test_status_and_delays_follow_the_chain(self, monkeypatch):
        # precedence: the user stability flags first, then the queue that
        # end_to_end_delays names; delays (`rates._delays`, the float step
        # of end_to_end_delays) only when every queue is stable
        calls = []
        delays_of = rates._delays

        def counted(floats, traffic):
            calls.append(floats)
            return delays_of(floats, traffic)

        monkeypatch.setattr(rates, "_delays", counted)
        rng = np.random.default_rng(16)
        seen = set()
        for _ in range(600):
            n = int(rng.integers(0, 4))
            out = random_outages(rng, n)
            kind = list(StrategyKind)[rng.integers(0, 3)]
            params = random_params(rng, n, kind)
            mu_p = rate_report(out, params, IDLE).mu_p
            traffic = TrafficParams(min(1.0, rng.uniform(0, 1.1) * mu_p),
                                    rng.uniform(0, 0.6))
            sensing = (random_sensing_errors(rng, n) if rng.uniform() < 0.5
                       else None)
            report = rate_report(out, params, traffic)
            if sensing is not None:
                report = apply_sensing_errors(report, params, sensing)
            want, delays = "ok", None
            if not report.stable_p:
                want = "unstable:primary"
            elif not report.stable_s:
                want = "unstable:secondary"
            else:
                try:
                    delays = end_to_end_delays(report, traffic)
                except UnstableQueueError as err:
                    want = f"unstable:{err.queue}"

            calls.clear()
            ev = evaluate(out, params, traffic, sensing)
            assert ev.status == want
            assert ev.report.mu_s == report.mu_s
            assert np.array_equal(ev.report.lambda_sk, report.lambda_sk)
            assert np.array_equal(ev.report.mu_pk, report.mu_pk)
            all_stable = (report.stable_p and report.stable_s
                          and report.stable_pk.all() and report.stable_sk.all())
            assert len(calls) == int(all_stable)
            if want == "ok":
                assert (ev.d_p, ev.d_s) == delays
            else:
                assert ev.d_p == ev.d_s == math.inf
            seen.add(want.rstrip("0123456789"))
        assert seen == {"ok", "unstable:primary", "unstable:secondary",
                        "unstable:primary-relay-", "unstable:secondary-relay-"}


class TestSensingErrors:
    def test_zero_errors_identity(self):
        p = random_params(np.random.default_rng(8), 3, StrategyKind.ORDERED)
        out = random_outages(np.random.default_rng(9), 3)
        traffic = TrafficParams(0.2, 0.1)
        report = rate_report(out, p, traffic)
        se = SensingErrorParams(np.zeros(3), np.zeros(3), np.zeros(3))
        adj = apply_sensing_errors(report, p, se)
        assert adj.mu_p == pytest.approx(report.mu_p, abs=1e-12)
        assert adj.mu_s == pytest.approx(report.mu_s, abs=1e-12)
        assert np.allclose(adj.mu_pk, report.mu_pk, atol=1e-12)
        assert np.allclose(adj.lambda_sk, report.lambda_sk, atol=1e-12)

    def test_single_relay_scalar_factors(self):
        out = OutageTable(0.5, 0.5, [0.1], [0.1], [0.1], [0.1])
        p = od_params([1.0], [0.5], [0.5], [0.5], OrderDistribution.uniform(1))
        traffic = TrafficParams(0.0, 0.0)
        report = rate_report(out, p, traffic)
        se = SensingErrorParams([0.1], [0.1], [0.05])
        adj = apply_sensing_errors(report, p, se)
        assert adj.mu_p == pytest.approx(report.mu_p * (1 - 0.1 ** 2), abs=1e-12)
        # secondary survival: 1 - P_MD * (1 - P_FA) = 1 - 0.1 * 0.95
        assert adj.mu_s == pytest.approx(report.mu_s * 0.905, abs=1e-12)
        assert adj.mu_pk[0] == pytest.approx(report.mu_pk[0] * 0.95 ** 2, abs=1e-12)

    def test_rates_never_increase_delays_never_decrease(self):
        rng = np.random.default_rng(10)
        checked_delays = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            out = random_outages(rng, n)
            kind = list(StrategyKind)[rng.integers(0, 3)]
            params = random_params(rng, n, kind)
            mu_p = rate_report(out, params, IDLE).mu_p
            traffic = TrafficParams(rng.uniform(0, 0.8) * mu_p,
                                    rng.uniform(0, 0.5))
            report = rate_report(out, params, traffic)
            adj = apply_sensing_errors(report, params,
                                       random_sensing_errors(rng, n))
            assert adj.mu_p <= report.mu_p + 1e-12
            assert adj.mu_s <= report.mu_s + 1e-12
            assert np.all(adj.mu_pk <= report.mu_pk + 1e-12)
            assert np.all(adj.mu_sk <= report.mu_sk + 1e-12)
            try:
                d = end_to_end_delays(report, traffic)
                d_se = end_to_end_delays(adj, traffic)
            except UnstableQueueError:
                continue
            checked_delays += 1
            assert d_se[0] >= d[0] - 1e-9 and d_se[1] >= d[1] - 1e-9
        assert checked_delays > 20  # most random draws have unstable relays

    def test_relay_arrivals_conserved_when_stable(self):
        # flow conservation: the relayed share of a stable queue's output
        # is unchanged by sensing errors
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            out = random_outages(rng, n)
            params = random_params(rng, n, StrategyKind.RANDOM)
            mu_p = rate_report(out, params, IDLE).mu_p
            traffic = TrafficParams(0.3 * mu_p, 0.2)
            report = rate_report(out, params, traffic)
            adj = apply_sensing_errors(report, params,
                                       random_sensing_errors(rng, n, high=0.2))
            if adj.stable_p and adj.stable_s and report.stable_s:
                assert np.allclose(adj.lambda_pk, report.lambda_pk, atol=1e-10)
                assert np.allclose(adj.lambda_sk, report.lambda_sk, atol=1e-10)


class TestRelayCountMismatch:
    # a point over one relay on a two-relay table used to broadcast and
    # give mu_p = 1.088
    ONE_RELAY = StrategyParams(StrategyKind.RANDOM, [1.0], [0.5], [1.0],
                               [1.0], beta=[1.0])

    def test_rate_report_rejects(self):
        with pytest.raises(ConfigError, match="relays"):
            rate_report(TABLE_ROWS12, self.ONE_RELAY, TrafficParams(0.3, 0.2))

    def test_evaluate_rejects(self):
        with pytest.raises(ConfigError, match="relays"):
            evaluate(TABLE_ROWS12, self.ONE_RELAY, TrafficParams(0.3, 0.2))

    def test_relay_service_rates_rejects(self):
        with pytest.raises(ConfigError, match="relays"):
            relay_service_rates(TABLE_ROWS12, self.ONE_RELAY, 0.9, 0.9)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_sensing_errors_over_other_relays_reject(self, m):
        # every entry point that takes sensing errors checks their relay
        # count in one way; `evaluate` and `apply_sensing_errors` used to
        # fail inside numpy
        errors = SensingErrorParams([0.1] * m, [0.1] * m, [0.1] * m)
        params = od_params([0.5, 0.5], [0.5, 0.5], [1, 1], [1, 1])
        traffic = TrafficParams(0.3, 0.2)
        report = rate_report(TABLE_ROWS12, params, traffic)
        calls = [
            lambda: evaluate(TABLE_ROWS12, params, traffic, errors),
            lambda: apply_sensing_errors(report, params, errors),
            lambda: secondary_rate_ceiling(
                TABLE_ROWS12, QosSpec(4.0, 8.0, traffic), errors),
            lambda: sim.run(TABLE_ROWS12, params, traffic, sensing=errors,
                            slots=10, seed=0),
            lambda: NetworkConfig(TABLE_ROWS12, traffic, errors)]
        for call in calls:
            with pytest.raises(ConfigError) as err:
                call()
            assert str(err.value) == (f"sensing errors are over {m} relays, "
                                      f"the channels over 2")


class TestExhaustiveOracle:
    def test_rates_match_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            n = int(rng.integers(1, 4))
            out = random_outages(rng, n)
            kind = list(StrategyKind)[rng.integers(0, 3)]
            params = random_params(rng, n, kind)
            mu_p = rate_report(out, params, IDLE).mu_p
            traffic = TrafficParams(rng.uniform(0, 0.9) * mu_p, 0.0)
            mu_p_o, mu_s_o, lam_pk_o, lam_sk_o = oracle_user_rates(
                out, params, traffic)
            report = rate_report(out, params, traffic)
            assert report.mu_p == pytest.approx(mu_p_o, abs=1e-10)
            assert report.mu_s == pytest.approx(mu_s_o, abs=1e-10)
            assert np.allclose(report.lambda_pk, lam_pk_o, atol=1e-10)
            assert np.allclose(report.lambda_sk, lam_sk_o, atol=1e-10)


class TestDominance:
    def test_ordered_dominates_assignment_everywhere(self):
        # matched-first-rank construction, zero feedback cost: every queue's
        # service rate under ordered acceptance is >= random assignment
        rng = np.random.default_rng(14)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            out = random_outages(rng, n)
            beta = random_simplex(rng, n)
            omega = random_simplex(rng, n)
            alpha = rng.uniform(0, 1, n)
            f_p = rng.uniform(0, 1, n)
            f_s = rng.uniform(0, 1, n)
            order = OrderDistribution.from_first_rank_profile(beta)
            p_od = StrategyParams(StrategyKind.ORDERED, omega, alpha, f_p, f_s,
                                  order_p=order, order_s=order)
            p_rd = StrategyParams(StrategyKind.RANDOM, omega, alpha, f_p, f_s,
                                  beta=beta)
            mu_rd = rate_report(out, p_rd, IDLE).mu_p
            traffic = TrafficParams(rng.uniform(0, 0.9) * mu_rd,
                                    rng.uniform(0, 0.5))
            r_od = rate_report(out, p_od, traffic)
            r_rd = rate_report(out, p_rd, traffic)
            assert r_od.mu_p >= r_rd.mu_p - 1e-12
            assert r_od.mu_s >= r_rd.mu_s - 1e-12
            assert np.all(r_od.mu_pk >= r_rd.mu_pk - 1e-12)
            assert np.all(r_od.mu_sk >= r_rd.mu_sk - 1e-12)

    def test_uniform_assignment_equals_round_robin(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            out = random_outages(rng, n)
            omega = random_simplex(rng, n)
            alpha = rng.uniform(0, 1, n)
            f_p, f_s = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
            p_rd = StrategyParams(StrategyKind.RANDOM, omega, alpha, f_p, f_s,
                                  beta=np.full(n, 1.0 / n))
            p_rr = StrategyParams(StrategyKind.ROUND_ROBIN, omega, alpha, f_p, f_s)
            traffic = TrafficParams(0.1, 0.1)
            r_rd = rate_report(out, p_rd, traffic)
            r_rr = rate_report(out, p_rr, traffic)
            assert r_rd.mu_p == r_rr.mu_p
            assert r_rd.mu_s == r_rr.mu_s
            assert np.array_equal(r_rd.mu_pk, r_rr.mu_pk)


class TestParamValidation:
    def test_omega_simplex_enforced(self):
        with pytest.raises(ConfigError):
            StrategyParams(StrategyKind.ROUND_ROBIN, [0.5, 0.4], [0.5, 0.5],
                           [1, 1], [1, 1])

    def test_ordered_requires_orders(self):
        with pytest.raises(ConfigError):
            StrategyParams(StrategyKind.ORDERED, [1.0], [0.5], [1], [1])

    def test_random_requires_beta(self):
        with pytest.raises(ConfigError):
            StrategyParams(StrategyKind.RANDOM, [1.0], [0.5], [1], [1])

    def test_round_robin_rejects_beta(self):
        with pytest.raises(ConfigError):
            StrategyParams(StrategyKind.ROUND_ROBIN, [1.0], [0.5], [1], [1],
                           beta=np.array([1.0]))


class TestNanRejected:
    """NaN fails every range and sum check at the input boundary."""

    VALID = dict(omega=[0.5, 0.5], alpha=[0.5, 0.5], f_p=[1.0, 1.0],
                 f_s=[1.0, 1.0])

    @pytest.mark.parametrize("field", ["omega", "alpha", "f_p", "f_s"])
    @pytest.mark.parametrize("value", [[np.nan, np.nan], [np.nan, 0.5]])
    def test_strategy_vectors(self, field, value):
        kw = dict(self.VALID, **{field: value})
        with pytest.raises(ConfigError):
            StrategyParams(StrategyKind.ROUND_ROBIN, **kw)

    @pytest.mark.parametrize("beta", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_strategy_beta(self, beta):
        with pytest.raises(ConfigError):
            StrategyParams(StrategyKind.RANDOM, **self.VALID, beta=beta)

    @pytest.mark.parametrize("field", ["pu_relay", "su_relay", "relay_pd",
                                       "relay_sd"])
    def test_outage_vectors(self, field):
        kw = dict(pu_relay=[0.1, 0.02], su_relay=[0.1, 0.1],
                  relay_pd=[0.1, 0.1], relay_sd=[0.1, 0.1])
        kw[field] = [np.nan, 0.02]
        with pytest.raises(ConfigError):
            OutageTable(0.1, 0.2, **kw)

    @pytest.mark.parametrize("field", ["pu_pd", "su_sd"])
    def test_outage_scalars(self, field):
        kw = dict(pu_pd=0.1, su_sd=0.2)
        kw[field] = np.nan
        with pytest.raises(ConfigError):
            OutageTable(**kw, pu_relay=[0.1], su_relay=[0.1],
                        relay_pd=[0.1], relay_sd=[0.1])

    @pytest.mark.parametrize("field", ["p_md_primary", "p_md_secondary",
                                       "p_false_alarm"])
    def test_sensing_vectors(self, field):
        kw = dict(p_md_primary=[0.1, 0.1], p_md_secondary=[0.1, 0.1],
                  p_false_alarm=[0.1, 0.1])
        kw[field] = [0.1, np.nan]
        with pytest.raises(ConfigError):
            SensingErrorParams(**kw)

    @pytest.mark.parametrize("lam_p, lam_s", [(np.nan, 0.1), (0.1, np.nan)])
    def test_traffic(self, lam_p, lam_s):
        with pytest.raises(ConfigError):
            TrafficParams(lam_p, lam_s)
