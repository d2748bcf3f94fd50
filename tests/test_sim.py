import math
import warnings

import numpy as np
import pytest

from cogrelay.channel import StrategyKind
from cogrelay.errors import ConfigError, UnstableQueueError
from cogrelay.network import OutageTable, SensingErrorParams, TrafficParams
from cogrelay.orders import OrderDistribution
from cogrelay.rates import (StrategyParams, apply_sensing_errors,
                            end_to_end_delays, rate_report)
from cogrelay.sim import (conditional_service, derive_replication_seed, run,
                          run_replicated)

from support import estimates_equal, oracle_batch_ci

TABLE_ROWS12 = OutageTable(0.1, 0.2, [0.1, 0.02], [0.1, 0.1],
                           [0.1, 0.1], [0.1, 0.1])


def od2(f=1.0):
    v = np.full(2, f)
    return StrategyParams(StrategyKind.ORDERED, [0.5, 0.5], [0.5, 0.5], v, v,
                          OrderDistribution.uniform(2),
                          OrderDistribution.uniform(2))


def single_queue(mu):
    """Isolated primary queue: no secondary traffic, no relays."""
    out = OutageTable(1.0 - mu, 1.0, np.zeros(0), np.zeros(0),
                      np.zeros(0), np.zeros(0))
    params = StrategyParams(StrategyKind.ROUND_ROBIN, np.zeros(0),
                            np.zeros(0), np.zeros(0), np.zeros(0))
    return out, params


class TestReproducibility:
    def test_bit_identical_for_same_seed(self):
        kw = dict(slots=50_000, seed=99)
        a = run(TABLE_ROWS12, od2(), TrafficParams(0.3, 0.2), **kw)
        b = run(TABLE_ROWS12, od2(), TrafficParams(0.3, 0.2), **kw)
        assert estimates_equal(a, b)

    def test_bit_identical_with_never_nonempty_relays(self):
        # no relay ever accepts, so every relay service rate is NaN
        kw = dict(slots=20_000, seed=98)
        a = run(TABLE_ROWS12, od2(0.0), TrafficParams(0.3, 0.2), **kw)
        b = run(TABLE_ROWS12, od2(0.0), TrafficParams(0.3, 0.2), **kw)
        assert np.isnan(a.mu_pk_hat).all() and np.isnan(a.mu_sk_hat).all()
        assert estimates_equal(a, b)

    def test_seed_changes_output(self):
        a = run(TABLE_ROWS12, od2(), TrafficParams(0.3, 0.2), slots=50_000, seed=1)
        b = run(TABLE_ROWS12, od2(), TrafficParams(0.3, 0.2), slots=50_000, seed=2)
        assert not estimates_equal(a, b)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_replication_seed(123, 0) == derive_replication_seed(123, 0)

    def test_distinct_indices(self):
        assert derive_replication_seed(123, 0) != derive_replication_seed(123, 1)

    def test_collision_scan(self):
        seeds = {derive_replication_seed(2024, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            derive_replication_seed(1, 2 ** 32)


class TestDegenerateTraffic:
    def test_zero_traffic_empty_system(self):
        est = run(TABLE_ROWS12, od2(), TrafficParams(0.0, 0.0),
                  slots=10_000, seed=3)
        assert est.pi_p0_hat == 1.0 and est.pi_s0_hat == 1.0
        assert np.all(est.lambda_pk_hat == 0)
        assert math.isnan(est.mu_p_hat)  # no service samples
        served = conditional_service(est)
        assert served["primary"] is None and served["secondary"] is None

    def test_deterministic_channel_always_busy(self):
        out, params = single_queue(1.0)
        est = run(out, params, TrafficParams(1.0, 0.0), slots=10_000, seed=4)
        assert est.mu_p_hat == 1.0
        assert conditional_service(est)["primary"] == 1.0


class TestAgainstAnalytics:
    def test_saturated_source_table1(self):
        est = run(TABLE_ROWS12, od2(), TrafficParams(1.0, 0.0),
                  slots=400_000, seed=5)
        assert abs(est.mu_p_hat - 0.9998) <= max(3 * est.ci["mu_p"], 1e-3)

    def test_true_queue_run_matches_report(self):
        traffic = TrafficParams(0.2, 0.15)
        report = rate_report(TABLE_ROWS12, od2(), traffic)
        est = run(TABLE_ROWS12, od2(), traffic, slots=10 ** 6, seed=6)
        assert abs(est.mu_p_hat - report.mu_p) < 0.01
        assert abs(est.mu_s_hat - report.mu_s) < 0.01
        assert abs(est.pi_p0_hat - report.pi_p0) < 0.01
        assert abs(est.pi_s0_hat - report.pi_s0) < 0.01
        assert np.allclose(est.lambda_pk_hat, report.lambda_pk, atol=0.005)
        assert np.allclose(est.lambda_sk_hat, report.lambda_sk, atol=0.005)

    def test_rank_order_asymmetry_visible(self):
        # a point-mass order sends nearly all captures to the first-ranked
        # relay; swapping the order must swap the arrival pattern
        traffic = TrafficParams(0.4, 0.0)
        base = dict(strategy=StrategyKind.ORDERED, omega=[0.5, 0.5],
                    alpha=[0.5, 0.5], f_p=[1.0, 1.0], f_s=[1.0, 1.0])
        p12 = StrategyParams(order_p=OrderDistribution.point_mass((1, 2)),
                             order_s=OrderDistribution.point_mass((1, 2)), **base)
        p21 = StrategyParams(order_p=OrderDistribution.point_mass((2, 1)),
                             order_s=OrderDistribution.point_mass((2, 1)), **base)
        for params in (p12, p21):
            report = rate_report(TABLE_ROWS12, params, traffic)
            est = run(TABLE_ROWS12, params, traffic, slots=400_000, seed=7)
            assert np.allclose(est.lambda_pk_hat, report.lambda_pk, atol=0.005)
        r12 = rate_report(TABLE_ROWS12, p12, traffic)
        assert r12.lambda_pk[0] > 5 * r12.lambda_pk[1]

    def test_delay_law_single_queue(self):
        out, params = single_queue(0.5)
        est = run(out, params, TrafficParams(0.2, 0.0), slots=10 ** 6, seed=8)
        want = (1 - 0.2) / (0.5 - 0.2)
        assert est.d_p_total_hat == pytest.approx(want, rel=0.02)

    def test_mixed_path_end_to_end_delay(self):
        # ~30% of either user's packets detour through a relay queue; the
        # decoupled relay-delay terms sit a few percent under the measured
        # per-packet value (the relay queue is fullest exactly when the
        # users are busiest), so the tolerance is relative, not CI-sized
        out = OutageTable(0.3, 0.3, [0.05, 0.05], [0.05, 0.05],
                          [0.05, 0.05], [0.05, 0.05])
        traffic = TrafficParams(0.15, 0.1)
        report = rate_report(out, od2(), traffic)
        d_p, d_s = end_to_end_delays(report, traffic)
        est = run(out, od2(), traffic, slots=2 * 10 ** 6, seed=71)
        assert report.lambda_pk.sum() > 0.2 * traffic.lambda_p
        assert est.d_p_total_hat == pytest.approx(d_p, rel=0.05)
        assert est.d_s_total_hat == pytest.approx(d_s, rel=0.05)


class TestSensingErrors:
    SE = SensingErrorParams([0.15, 0.2], [0.1, 0.12], [0.08, 0.05])

    def test_perfect_sensing_never_collides(self):
        est = run(TABLE_ROWS12, od2(), TrafficParams(0.5, 0.3),
                  slots=200_000, seed=9)
        assert est.collisions == 0

    def test_errors_cause_collisions_in_saturated_mode(self):
        est = run(TABLE_ROWS12, od2(), TrafficParams(0.5, 0.3),
                  sensing=self.SE, mode="saturated_relays",
                  slots=200_000, seed=10)
        assert est.collisions > 0

    def test_saturated_mode_matches_adjusted_analytics(self):
        params = StrategyParams(StrategyKind.RANDOM, [0.6, 0.4], [0.5, 0.5],
                                [0.8, 0.7], [0.6, 0.9], beta=[0.5, 0.5])
        traffic = TrafficParams(0.1, 0.15)
        adjusted = apply_sensing_errors(
            rate_report(TABLE_ROWS12, params, traffic), params, self.SE)
        est = run(TABLE_ROWS12, params, traffic, sensing=self.SE,
                  mode="saturated_relays", slots=10 ** 6, seed=11)
        # primary-side quantities and relay arrivals are exact;
        # secondary-side ones carry the queue-decoupling approximation
        assert abs(est.mu_p_hat - adjusted.mu_p) <= max(3 * est.ci["mu_p"], 0.003)
        assert abs(est.pi_p0_hat - adjusted.pi_p0) <= 0.003
        assert np.allclose(est.lambda_pk_hat, adjusted.lambda_pk, atol=0.003)
        assert abs(est.mu_s_hat - adjusted.mu_s) <= 0.02
        assert np.allclose(est.lambda_sk_hat, adjusted.lambda_sk, atol=0.01)
        assert np.allclose(est.mu_pk_hat, adjusted.mu_pk, atol=0.02)

    def test_saturated_mode_exact_secondary_when_primary_idle(self):
        # with no primary traffic the decoupling is exact, so the
        # secondary reduction factor can be checked tightly
        params = StrategyParams(StrategyKind.RANDOM, [0.6, 0.4], [0.5, 0.5],
                                [0.8, 0.7], [0.6, 0.9], beta=[0.5, 0.5])
        traffic = TrafficParams(0.0, 0.3)
        adjusted = apply_sensing_errors(
            rate_report(TABLE_ROWS12, params, traffic), params, self.SE)
        est = run(TABLE_ROWS12, params, traffic, sensing=self.SE,
                  mode="saturated_relays", slots=10 ** 6, seed=12)
        assert abs(est.mu_s_hat - adjusted.mu_s) <= max(3 * est.ci["mu_s"], 0.003)

    def test_true_queue_rates_at_least_saturated_bound(self):
        params = od2(0.9)
        traffic = TrafficParams(0.1, 0.1)
        adjusted = apply_sensing_errors(
            rate_report(TABLE_ROWS12, params, traffic), params, self.SE)
        est = run(TABLE_ROWS12, params, traffic, sensing=self.SE,
                  mode="true_queues", slots=400_000, seed=13)
        slack = 0.005
        assert est.mu_p_hat >= adjusted.mu_p - slack
        assert est.mu_s_hat >= adjusted.mu_s - slack


class TestGuardsAndTrace:
    def test_unstable_queue_guard_trips(self):
        out, params = single_queue(0.0)  # no service at all
        with pytest.raises(UnstableQueueError) as err:
            run(out, params, TrafficParams(1.0, 0.0),
                slots=10_000_001, seed=14)
        assert err.value.queue == "primary"

    def test_trace_invariants(self):
        est = run(TABLE_ROWS12, od2(0.5), TrafficParams(0.5, 0.4),
                  slots=2_000, seed=15, trace_limit=2_000)
        assert len(est.trace) == 2_000
        seen_accept = False
        for slot in est.trace:
            if slot.collision:
                assert not slot.delivered
            if slot.accepting_relay >= 0:
                seen_accept = True
                assert slot.feedback == "nack"
                assert slot.decode_mask & (1 << slot.accepting_relay)
            if slot.transmitter == "none":
                assert slot.feedback == "none"
        assert seen_accept

    def test_trace_sized_by_the_run(self):
        # a trace limit past the run's length asks for no more rows than
        # the run has slots
        est = run(TABLE_ROWS12, od2(0.5), TrafficParams(0.5, 0.4),
                  slots=10, seed=15, trace_limit=10 ** 12)
        assert len(est.trace) == 10

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_trace_refused_past_63_relays(self, strategy):
        # decode_mask is an int64 trace column: relay 62 is its last bit.
        # Only the last relay decodes and none accepts, so a NACK carries
        # the last relay's bit when it is the decoder, and no other
        def call(n, trace_limit):
            last = np.eye(n)[n - 1]
            out = OutageTable(0.9, 0.9, 1.0 - last, 1.0 - last,
                              np.full(n, 0.5), np.full(n, 0.5))
            kw = {}
            if strategy is StrategyKind.ORDERED:
                order = OrderDistribution(n, {tuple(range(1, n + 1)): 1.0})
                kw = dict(order_p=order, order_s=order)
            elif strategy is StrategyKind.RANDOM:
                kw = dict(beta=last)
            params = StrategyParams(strategy, np.full(n, 1.0 / n),
                                    np.full(n, 0.5), np.zeros(n),
                                    np.zeros(n), **kw)
            return run(out, params, TrafficParams(0.3, 0.2), slots=2_000,
                       seed=1, trace_limit=trace_limit)

        masks = {slot.decode_mask for slot in call(63, 2_000).trace}
        assert masks == {0, 1 << 62}
        with pytest.raises(ConfigError, match="63 relays"):
            call(70, 2_000)
        assert call(70, 0).trace == ()

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            run(TABLE_ROWS12, od2(), TrafficParams(0.1, 0.1),
                slots=10, seed=0, mode="bogus")

    @pytest.mark.parametrize("simulate,kw", [
        (run, dict(batches=0)),
        (run, dict(batches=-3)),
        (run, dict(batches=2.5)),
        (run, dict(trace_limit=-1)),
        (run_replicated, dict(replications=2, batches=0)),
        (run_replicated, dict(replications=2, batches=-3)),
        (run_replicated, dict(replications=2, batches=2.5)),
    ])
    def test_batches_and_trace_limit_validation(self, simulate, kw):
        with pytest.raises(ConfigError):
            simulate(TABLE_ROWS12, od2(), TrafficParams(0.1, 0.1),
                     slots=100, seed=0, **kw)

    @pytest.mark.parametrize("simulate,kw", [
        (run, dict(slots=2.5, seed=0)),
        (run, dict(slots=100.0, seed=0)),
        (run, dict(slots=0, seed=0)),
        (run, dict(slots=-5, seed=0)),
        (run, dict(slots=100, seed=-1)),
        (run, dict(slots=100, seed=1.5)),
        (run, dict(slots=100, seed=3.0)),
        (run_replicated, dict(replications=2, slots=2.5, seed=0)),
        (run_replicated, dict(replications=2, slots=0, seed=0)),
        (run_replicated, dict(replications=2, slots=100, seed=-1)),
        (run_replicated, dict(replications=2, slots=100, seed=1.5)),
        (run_replicated, dict(replications=1.5, slots=100, seed=0)),
        (run, dict(slots=True, seed=0)),       # a bool is not a count
        (run, dict(slots=100, seed=False)),
    ])
    def test_slots_and_seed_validation(self, simulate, kw):
        with pytest.raises(ConfigError):
            simulate(TABLE_ROWS12, od2(), TrafficParams(0.1, 0.1), **kw)


class TestReplications:
    def test_replicated_run_deterministic(self):
        kw = dict(replications=3, slots=20_000, seed=77)
        a = run_replicated(TABLE_ROWS12, od2(), TrafficParams(0.3, 0.2), **kw)
        b = run_replicated(TABLE_ROWS12, od2(), TrafficParams(0.3, 0.2), **kw)
        assert estimates_equal(a, b)
        assert a.slots == 60_000

    def test_replication_tightens_consistency(self):
        traffic = TrafficParams(0.3, 0.2)
        report = rate_report(TABLE_ROWS12, od2(), traffic)
        est = run_replicated(TABLE_ROWS12, od2(), traffic,
                             replications=4, slots=100_000, seed=78)
        assert abs(est.mu_p_hat - report.mu_p) < 0.01

    @pytest.mark.parametrize("replications", [2, 3])
    def test_merge_keeps_nan_of_an_unsampled_relay(self, replications):
        # rr over two relays, all scheduled on relay 1 and nothing
        # admitted by relay 2: relay 2's queues are never nonempty, so
        # their service estimates are NaN in every replication and stay
        # NaN in the merge, without a warning; each estimate is the mean
        # over the replications with a sample, its half-width the spread
        # of those replications (`oracle_batch_ci`)
        params = StrategyParams(StrategyKind.ROUND_ROBIN, [1.0, 0.0],
                                [0.5, 0.5], [1.0, 0.0], [1.0, 0.0])
        traffic = TrafficParams(0.3, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = run_replicated(TABLE_ROWS12, params, traffic,
                                 replications=replications, slots=2_000,
                                 seed=79)
        assert np.isnan(est.mu_pk_hat[1]) and np.isnan(est.mu_sk_hat[1])
        assert est.mu_pk_hat[0] > 0
        runs = [run(TABLE_ROWS12, params, traffic, slots=2_000,
                    seed=derive_replication_seed(79, i))
                for i in range(replications)]
        for name, key in (("mu_p_hat", "mu_p"), ("d_s_total_hat", "d_s_total"),
                          ("lambda_pk_hat", "lambda_pk"),
                          ("mu_pk_hat", "mu_pk"), ("mu_sk_hat", "mu_sk")):
            vals = np.array([getattr(r, name) for r in runs]).reshape(
                replications, -1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = np.nanmean(vals, axis=0)
            spread = [oracle_batch_ci(column) for column in vals.T]
            assert np.array_equal(np.ravel(getattr(est, name)), want,
                                  equal_nan=True), name
            assert np.array_equal(np.ravel(est.ci[key]), spread), name
