"""Closed-form queueing analysis of the cooperative MAC.

Mean service and arrival rates for every queue in the system (two user
queues plus two relaying queues per relay), empty-queue probabilities,
best-case rate bounds, queueing delays and the sensing-error corrections.
`evaluate` runs the whole chain for one operating point and is what the
sweeps, the comparison harness and the QoS search call.

The system is triangular: the primary queue is a plain Geo/Geo/1 queue, the
secondary sees service only when the primary is empty, and the relaying
queues see service only when both users are silent.  Rates are therefore
evaluated in the fixed order mu_p -> pi_p -> mu_s -> pi_s -> relay rates;
no fixed-point iteration is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import StrategyKind
from .errors import ConfigError, UnstableQueueError
from .network import OutageTable, SensingErrorParams, TrafficParams
from .orders import OrderDistribution

# Strict stability inequalities carry a concrete numerical margin:
# a queue counts as stable when lambda <= mu - EPS_STAB (or lambda == 0).
EPS_STAB = 1e-6
# how far from 1 the sum of the schedule omega and of the assignment beta
# may lie
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class StrategyParams:
    """Decision variables of a decoding strategy.

    omega: relay transmit-schedule probabilities (simplex over relays).
    alpha[k]: probability relay k serves its primary queue when scheduled.
    f_p[k], f_s[k]: probability relay k admits a correctly decoded
        primary / secondary packet.
    order_p, order_s: decoding-rank distributions (ordered strategy only).
    beta[k]: probability relay k is the assigned decoder (random
        assignment only; round robin uses the uniform assignment).

    Every instance is checked on construction.  The QoS search builds one
    only for the point it reports; its trial points stay plain floats.
    """

    strategy: StrategyKind
    omega: np.ndarray
    alpha: np.ndarray
    f_p: np.ndarray
    f_s: np.ndarray
    order_p: OrderDistribution | None = None
    order_s: OrderDistribution | None = None
    beta: np.ndarray | None = None

    def __post_init__(self):
        n = np.asarray(self.omega).size
        for name in ("omega", "alpha", "f_p", "f_s"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (n,):
                raise ConfigError(f"{name} must have length {n}")
            # written so that NaN fails every range and sum check
            if not (np.all(v >= 0) and np.all(v <= 1)):
                raise ConfigError(f"{name} entries must lie in [0, 1]")
            object.__setattr__(self, name, v)
        if n > 0 and not abs(self.omega.sum() - 1.0) <= SIMPLEX_TOL:
            raise ConfigError(f"omega must sum to 1, got {self.omega.sum():.12g}")
        if self.strategy is StrategyKind.ORDERED:
            if n > 0 and (self.order_p is None or self.order_s is None):
                raise ConfigError("ordered strategy requires order_p and order_s")
            for name in ("order_p", "order_s"):
                dist = getattr(self, name)
                if dist is not None and dist.n_relays != n:
                    raise ConfigError(f"{name} is over {dist.n_relays} relays, "
                                      f"expected {n}")
        elif self.strategy is StrategyKind.RANDOM:
            if n > 0:
                if self.beta is None:
                    raise ConfigError("random assignment requires beta")
                b = np.asarray(self.beta, dtype=float)
                if b.shape != (n,) or not (
                        np.all(b >= 0) and abs(b.sum() - 1.0) <= SIMPLEX_TOL):
                    raise ConfigError("beta must be a probability vector over relays")
                object.__setattr__(self, "beta", b)
        elif self.strategy is StrategyKind.ROUND_ROBIN:
            if self.beta is not None:
                raise ConfigError("round robin fixes the assignment to 1/N; "
                                  "do not pass beta")

    @property
    def n_relays(self) -> int:
        return self.omega.size

    def assignment(self) -> np.ndarray:
        """Effective decoder-assignment distribution for the two
        assignment-based strategies."""
        if self.strategy is StrategyKind.RANDOM:
            return self.beta
        if self.strategy is StrategyKind.ROUND_ROBIN:
            n = self.n_relays
            return np.full(n, 1.0 / n) if n else np.zeros(0)
        raise ConfigError("ordered strategy has no single-decoder assignment")

    def ranked_support(self, user: str) -> tuple:
        """The (prob, rank order) pairs user "p" or "s" draws its decoder
        order from: its `OrderDistribution`'s under od, the one-relay
        orders (k,) weighted by `assignment()` under rd and rr.  None over
        no relay, where od's distributions may be missing."""
        if self.strategy is not StrategyKind.ORDERED:
            return tuple(zip(self.assignment().tolist(),
                             ((k,) for k in range(self.n_relays))))
        dist = self.order_p if user == "p" else self.order_s
        return dist.ranked_support if self.n_relays else ()


@dataclass(frozen=True)
class RateReport:
    """All analytic rates at one operating point.

    Unstable queues are flagged, not raised: an unstable queue is never
    empty, so its empty-queue probability is reported as 0 and every
    downstream rate follows from that.
    """

    strategy: StrategyKind
    traffic: TrafficParams
    outages: OutageTable     # the table the rates were evaluated over
    mu_p: float
    mu_s: float
    pi_p0: float
    pi_s0: float
    lambda_pk: np.ndarray
    lambda_sk: np.ndarray
    mu_pk: np.ndarray
    mu_sk: np.ndarray
    stable_p: bool
    stable_s: bool
    stable_pk: np.ndarray
    stable_sk: np.ndarray


def is_stable(lam: float, mu: float) -> bool:
    """Stability with the shared numerical margin; an empty arrival stream
    is stable regardless of service."""
    return lam == 0.0 or lam <= mu - EPS_STAB


def capture_weights(outage_relay: list[float], f: list[float],
                    params: StrategyParams, which: str) -> list[float]:
    """Per-relay probability that relay k ends up decoding AND accepting an
    undelivered packet, given the source transmitted and the direct link
    failed.

    Relay k captures the packet only if every relay ranked before it in
    the decoder order (`StrategyParams.ranked_support`) failed to decode
    or declined.  Works over plain floats, as numpy would.
    """
    return _ordered_capture(_acceptance(outage_relay, f),
                            params.ranked_support(which))


def _acceptance(outage_relay: list[float], f: list[float]) -> list[float]:
    """Per-relay probability of decoding and accepting a packet."""
    return [(1.0 - o) * a for o, a in zip(outage_relay, f)]


def _ordered_capture(accept: list[float], support) -> list[float]:
    """Capture weights over the (prob, order) pairs of a rank-order
    distribution (`ranked_support`).  A one-relay order (k,) gives relay
    k exactly `prob * accept[k]`; an order of probability 0 would add 0
    to every weight, and is skipped."""
    weights = [0.0] * len(accept)
    for prob, order in support:
        if prob == 0.0:
            continue
        miss = 1.0
        for k in order:                     # relays in rank order
            a = accept[k]
            weights[k] += prob * a * miss
            miss *= 1.0 - a
    return weights


def _array_sum(values: list[float]) -> float:
    """`np.sum` of `values`, bit for bit: numpy's pairwise summation adds
    fewer than eight terms one by one from the left."""
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for v in values:
        total += v
    return total


def relay_service_rates(outages: OutageTable, params: StrategyParams,
                        pi_p0: float, pi_s0: float) -> tuple[np.ndarray, np.ndarray]:
    """A relaying queue is served when its relay is scheduled, both users
    are silent, the queue wins the per-relay coin flip and the link to the
    destination is not in outage."""
    _check_relay_count(outages, params)
    mu_pk, mu_sk = _relay_service(params.omega.tolist(), params.alpha.tolist(),
                                  *_serve(outages), pi_p0, pi_s0)
    return np.array(mu_pk), np.array(mu_sk)


def _check_relay_count(outages: OutageTable, params: StrategyParams) -> None:
    if params.n_relays != outages.n_relays:
        raise ConfigError(f"params are over {params.n_relays} relays, the "
                          f"outage table over {outages.n_relays}")


def _serve(outages: OutageTable,
           terms: SensingTerms | None = None) -> tuple[list, list]:
    """Per relay, 1 - outage of its links to the two destinations, times
    the probability (1 - p_false_alarm)^2 that the relay raises no false
    alarm in either sensing interval under the sensing errors `terms`."""
    serve = ([1.0 - v for v in outages.relay_pd.tolist()],
             [1.0 - v for v in outages.relay_sd.tolist()])
    if terms is None:
        return serve
    return tuple([s * f for s, f in zip(side, terms.no_false_alarm)]
                 for side in serve)


def _relay_service(omega, alpha, serve_p: list, serve_s: list,
                   pi_p0: float, pi_s0: float) -> tuple[list, list]:
    """`relay_service_rates` over plain floats, the links from `_serve`."""
    mu_pk, mu_sk = [], []
    for w, a, sp, ss in zip(omega, alpha, serve_p, serve_s):
        idle = w * pi_p0 * pi_s0
        mu_pk.append(idle * a * sp)
        mu_sk.append(idle * (1.0 - a) * ss)
    return mu_pk, mu_sk


def _relay_miss_factor(outage_vec: np.ndarray, strategy: StrategyKind) -> float:
    """Best-case probability that no relay captures the packet.

    Ordered acceptance fails only when every relay link is in outage;
    random assignment at best always picks the strongest relay; round
    robin averages over the relays.
    """
    if outage_vec.size == 0:
        return 1.0
    if strategy is StrategyKind.ORDERED:
        return float(np.prod(outage_vec))
    if strategy is StrategyKind.RANDOM:
        return float(np.min(outage_vec))
    return float(np.mean(outage_vec))


def primary_rate_bound(outages: OutageTable, strategy: StrategyKind) -> float:
    """Primary service rate with all acceptance probabilities 1."""
    return 1.0 - outages.pu_pd * _relay_miss_factor(outages.pu_relay, strategy)


def max_service_rates(outages: OutageTable, traffic: TrafficParams,
                      strategy: StrategyKind) -> tuple[float, float]:
    """Best-case user service rates (all acceptance probabilities 1)."""
    mu_p_max = primary_rate_bound(outages, strategy)
    if traffic.lambda_p >= mu_p_max:
        raise UnstableQueueError(
            "primary", f"lambda_p {traffic.lambda_p:.6g} >= best-case service"
                       f" rate {mu_p_max:.6g}")
    mu_s_max = ((1.0 - outages.su_sd
                 * _relay_miss_factor(outages.su_relay, strategy))
                * (1.0 - traffic.lambda_p / mu_p_max))
    return mu_p_max, mu_s_max


def secondary_rate_cap(traffic: TrafficParams) -> float:
    """Strategy-independent ceiling on the secondary service rate: the
    secondary can at best use every slot the primary leaves empty."""
    return 1.0 - traffic.lambda_p


def queue_delay(lam: float, mu: float) -> float:
    """Mean queueing delay (slots, service included) of a stable discrete
    queue with Bernoulli arrivals and geometric service."""
    if mu <= lam:
        raise UnstableQueueError("queue", f"mu {mu:.6g} <= lambda {lam:.6g}")
    return (1.0 - lam) / (mu - lam)


def _stable_flags(lam: list[float], mu: list[float]) -> np.ndarray:
    """Per-relay `is_stable` over plain floats."""
    return np.array([is_stable(l, m) for l, m in zip(lam, mu)], dtype=bool)


def _flagged_pi0(lam: float, mu: float) -> tuple[bool, float]:
    """(stable, empty probability), with unstable mapped to never-empty."""
    if lam == 0.0:
        return True, 1.0
    if is_stable(lam, mu):
        return True, 1.0 - lam / mu
    return False, 0.0


class _Rates(NamedTuple):
    """A `RateReport`'s rates as plain floats, per relay as lists, without
    the per-relay flags.  The user rates and relay arrivals do not depend
    on the schedule; `mu_pk`, `mu_sk` are None until it is known."""

    mu_p: float
    mu_s: float
    pi_p0: float
    pi_s0: float
    stable_p: bool
    stable_s: bool
    lambda_pk: list
    lambda_sk: list
    mu_pk: list | None = None
    mu_sk: list | None = None


def _user_rates(outages: OutageTable, params: StrategyParams,
                traffic: TrafficParams, surv_p: float = 1.0,
                surv_s: float = 1.0) -> _Rates:
    """User rates, empty probabilities and relay arrival rates.  They
    depend on the acceptance probabilities and the rank orders or
    assignment, and on the survival factors of `_survival`, only: `omega`
    and `alpha` are not read."""
    cap_p = capture_weights(outages.pu_relay.tolist(), params.f_p.tolist(),
                            params, "p")
    cap_s = capture_weights(outages.su_relay.tolist(), params.f_s.tolist(),
                            params, "s")
    return _user_chain(float(outages.pu_pd), float(outages.su_sd), cap_p,
                       cap_s, traffic, surv_p, surv_s)


def _user_chain(pu_pd: float, su_sd: float, cap_p: list, cap_s: list,
                traffic: TrafficParams, surv_p: float = 1.0,
                surv_s: float = 1.0) -> _Rates:
    """`_user_rates` from the capture weights on: the direct-link outages
    `pu_pd`, `su_sd` and the capture weights of each user give the user
    rates, empty probabilities and relay arrival rates.  A user's service
    and its hand-off to the relays are scaled by its survival factor
    (1.0 under perfect sensing, where the product is exact).  The chain
    is `_user_head`, then `_user_tail`."""
    return _user_tail(_user_head(pu_pd, su_sd, cap_p, cap_s, traffic,
                                 surv_p, surv_s),
                      pu_pd, su_sd, cap_p, cap_s, traffic, surv_p, surv_s)


def _user_head(pu_pd: float, su_sd: float, cap_p: list, cap_s: list,
               traffic: TrafficParams, surv_p: float = 1.0,
               surv_s: float = 1.0) -> tuple:
    """The head of `_user_chain`, which takes the same arguments:
    (mu_p, stable_p, pi_p0, mu_s).  A caller that needs only mu_s stops
    here; the rest of the chain is `_user_tail`."""
    mu_p = ((1.0 - pu_pd) + pu_pd * _array_sum(cap_p)) * surv_p
    stable_p, pi_p0 = _flagged_pi0(traffic.lambda_p, mu_p)
    mu_s = pi_p0 * ((1.0 - su_sd) + su_sd * _array_sum(cap_s)) * surv_s
    return mu_p, stable_p, pi_p0, mu_s


def _user_tail(head: tuple, pu_pd: float, su_sd: float, cap_p: list,
               cap_s: list, traffic: TrafficParams, surv_p: float = 1.0,
               surv_s: float = 1.0) -> _Rates:
    """The rest of `_user_chain` after its `head` (`_user_head` of the
    same arguments): pi_s0 and the relay arrival rates."""
    mu_p, stable_p, pi_p0, mu_s = head
    stable_s, pi_s0 = _flagged_pi0(traffic.lambda_s, mu_s)
    to_relay_p = (1.0 - pi_p0) * pu_pd * surv_p
    to_relay_s = (1.0 - pi_s0) * pi_p0 * su_sd * surv_s
    return _Rates(mu_p, mu_s, pi_p0, pi_s0, stable_p, stable_s,
                  [to_relay_p * c for c in cap_p],
                  [to_relay_s * c for c in cap_s])


def _relay_chain(user: _Rates, omega, alpha, serve_p: list,
                 serve_s: list) -> _Rates:
    """`user` with its last two fields, the relay service, filled in."""
    mu_pk, mu_sk = _relay_service(omega, alpha, serve_p, serve_s,
                                  user.pi_p0, user.pi_s0)
    return _Rates(*user[:-2], mu_pk, mu_sk)


def _floats(report: RateReport) -> _Rates:
    return _Rates(report.mu_p, report.mu_s, report.pi_p0, report.pi_s0,
                  report.stable_p, report.stable_s,
                  report.lambda_pk.tolist(), report.lambda_sk.tolist(),
                  report.mu_pk.tolist(), report.mu_sk.tolist())


def _report(strategy: StrategyKind, traffic: TrafficParams,
            outages: OutageTable, rates: _Rates) -> RateReport:
    return RateReport(
        strategy=strategy, traffic=traffic, outages=outages, mu_p=rates.mu_p,
        mu_s=rates.mu_s, pi_p0=rates.pi_p0, pi_s0=rates.pi_s0,
        lambda_pk=np.array(rates.lambda_pk),
        lambda_sk=np.array(rates.lambda_sk),
        mu_pk=np.array(rates.mu_pk), mu_sk=np.array(rates.mu_sk),
        stable_p=rates.stable_p, stable_s=rates.stable_s,
        stable_pk=_stable_flags(rates.lambda_pk, rates.mu_pk),
        stable_sk=_stable_flags(rates.lambda_sk, rates.mu_sk))


def rate_report(outages: OutageTable, params: StrategyParams,
                traffic: TrafficParams) -> RateReport:
    """Full operating point.  Instability is reported through the flags;
    an unstable queue is never empty (empty probability 0), which is what
    every downstream formula then consumes.  The chain runs over plain
    floats in numpy's order of operations."""
    return _report(params.strategy, traffic, outages,
                   _chain(outages, params, traffic))


def _chain(outages: OutageTable, params: StrategyParams,
           traffic: TrafficParams, terms: SensingTerms | None = None
           ) -> _Rates:
    """`rate_report` over plain floats, under the sensing errors `terms`
    (None: perfect sensing)."""
    _check_relay_count(outages, params)
    return _relay_chain(
        _user_rates(outages, params, traffic, *_survival(params.omega, terms)),
        params.omega.tolist(), params.alpha.tolist(), *_serve(outages, terms))


def end_to_end_delays(report: RateReport,
                      traffic: TrafficParams) -> tuple[float, float]:
    """Mean delay from arrival at a user queue to delivery, averaging the
    extra relay-queue residence over the fraction of packets that take
    each relay path.  Raises UnstableQueueError naming the first queue
    that cannot sustain its load."""
    return _delays(_floats(report), traffic)


def _delays(rates: _Rates, traffic: TrafficParams) -> tuple[float, float]:
    """`end_to_end_delays` over plain floats."""

    def user_total(lam, mu, lam_k, mu_k, user):
        # a queue with no arrivals is stable, but with no service either
        # its delay (1 - lam)/(mu - lam) is infinite
        if mu <= lam or not is_stable(lam, mu):
            raise UnstableQueueError(user)
        d = queue_delay(lam, mu)
        if lam == 0.0:
            return d
        relayed = 0.0
        for k, (lam_r, mu_r) in enumerate(zip(lam_k, mu_k)):
            if lam_r == 0.0:
                continue
            if not is_stable(lam_r, mu_r):
                raise UnstableQueueError(f"{user}-relay-{k + 1}")
            relayed += lam_r * queue_delay(lam_r, mu_r)
        return d + relayed / lam

    d_p = user_total(traffic.lambda_p, rates.mu_p,
                     rates.lambda_pk, rates.mu_pk, "primary")
    d_s = user_total(traffic.lambda_s, rates.mu_s,
                     rates.lambda_sk, rates.mu_sk, "secondary")
    return d_p, d_s


class SensingTerms(NamedTuple):
    """The per-relay factors of the sensing-error correction.  They depend
    on the error probabilities alone, so a search works them out once and
    passes them wherever a `SensingErrorParams` is taken."""

    survive_p: np.ndarray   # 1 - p_md_primary**2
    survive_s: np.ndarray   # 1 - p_md_secondary * (1 - p_false_alarm)
    no_false_alarm: list    # (1 - p_false_alarm)**2, as floats


def sensing_terms(se: SensingErrorParams | SensingTerms | None
                  ) -> SensingTerms | None:
    """The terms of `se`; None (perfect sensing) stays None."""
    if se is None or isinstance(se, SensingTerms):
        return se
    return SensingTerms(
        1.0 - se.p_md_primary ** 2,
        1.0 - se.p_md_secondary * (1.0 - se.p_false_alarm),
        [(1.0 - fa) * (1.0 - fa) for fa in se.p_false_alarm.tolist()])


def _survival(omega, terms: SensingTerms | None) -> tuple[float, float]:
    """Probability that the transmission-scheduled relay does not disrupt
    the primary / the secondary user, averaged over the schedule `omega`
    (an array or a sequence of floats); 1.0 each under perfect sensing
    (`terms` None).

    Disrupting the primary takes a misdetection in both sensing intervals;
    the secondary is safe if the relay either detects it or false-alarms
    on the (idle) first interval.
    """
    if terms is None or len(omega) == 0:
        return 1.0, 1.0
    omega = np.asarray(omega, dtype=float)
    return (float(np.dot(omega, terms.survive_p)),
            float(np.dot(omega, terms.survive_s)))


def apply_sensing_errors(report: RateReport, params: StrategyParams,
                         se: SensingErrorParams | SensingTerms) -> RateReport:
    """Rates under imperfect sensing at the relays, with every relaying
    queue treated as backlogged (dummy packets), which makes the results
    lower bounds on the true rates.  `report` is the perfect-sensing
    report of `params`; its outage table and traffic are read.

    The chain of `rate_report` runs once more with the sensing errors as
    factors: each user's service and its hand-off to the relays shrink by
    the schedule-averaged survival factor (`_survival`), the empty-queue
    probabilities follow from the reduced service rates, and each relay's
    service shrinks with them (fuller user queues mean fewer idle slots)
    and by the probability that the relay raises no false alarm in either
    sensing interval (`_serve`).
    """
    return _report(report.strategy, report.traffic, report.outages,
                   _chain(report.outages, params, report.traffic,
                          sensing_terms(se)))


@dataclass(frozen=True)
class Evaluation:
    """One operating point through the whole analytic chain.

    `status` is "ok" or "unstable:<queue>", naming the first queue that
    cannot sustain its load in the order primary, secondary,
    primary-relay-k, secondary-relay-k.  The delays are inf unless the
    status is "ok".
    """

    report: RateReport
    d_p: float
    d_s: float
    status: str


def _unstable_queue(rates: _Rates) -> str | None:
    if not rates.stable_p:
        return "primary"
    if not rates.stable_s:
        return "secondary"
    for user, lams, mus in (("primary", rates.lambda_pk, rates.mu_pk),
                            ("secondary", rates.lambda_sk, rates.mu_sk)):
        for k, (lam, mu) in enumerate(zip(lams, mus)):
            if not is_stable(lam, mu):
                return f"{user}-relay-{k + 1}"
    return None


def _outcome(rates: _Rates, traffic: TrafficParams) -> tuple:
    """(d_p, d_s, status) of `Evaluation` at `rates`; the end-to-end
    delays are worked out only when every queue is stable."""
    queue = _unstable_queue(rates)
    if queue is None:
        try:
            return (*_delays(rates, traffic), "ok")
        except UnstableQueueError as err:
            queue = err.queue
    return math.inf, math.inf, f"unstable:{queue}"


def evaluate(outages: OutageTable, params: StrategyParams,
             traffic: TrafficParams,
             sensing: SensingErrorParams | SensingTerms | None = None
             ) -> Evaluation:
    """Rates, sensing-error correction (when `sensing` is given), status
    and end-to-end delays at one operating point: the float chain of
    `rate_report`, `apply_sensing_errors` and `end_to_end_delays`, run
    once."""
    rates = _chain(outages, params, traffic, sensing_terms(sensing))
    return Evaluation(_report(params.strategy, traffic, outages, rates),
                      *_outcome(rates, traffic))
