"""Shared test helpers: the exhaustive slot-outcome oracle, the per-slot
simulator loop and the per-queue tally it counts with, a relaxation
bound on the delay-limited secondary rate, the QoS search's closed-form
schedule and its water-filling as first written, the QoS search's moves
and merit over arrays and parameters, random configuration generators,
equality of simulator estimates and the batch-means half-width of one
estimate.

The oracle enumerates every joint decode/acceptance outcome of one slot
instead of using the prefix-product formulas, so it is an independent
check of the closed-form rates.  The slot loop (`slot_kernel`) walks the
protocol's state machine slot by slot on the same draws as the
simulator's vectorized chunk kernel, as the oracle of the lockstep tests.
"""

import dataclasses
import itertools
import math

import numpy as np

import cogrelay.sim as sim
from cogrelay.channel import StrategyKind
from cogrelay.network import (OutageTable, SensingErrorParams,
                              TrafficParams)
from cogrelay.orders import OrderDistribution
from cogrelay.qos import QosSpec, _CaptureScorer, _violation
from cogrelay.rates import EPS_STAB, StrategyParams, _user_rates
from cogrelay.sim import SimEstimate

ROUNDING = 1e-12   # relative allowance of `delay_limited_secondary_ceiling`


def oracle_capture(outage_relay, f, scenarios):
    """P(relay k is the first in decoding order to decode and accept), by
    brute-force enumeration over decode and acceptance outcomes.

    `scenarios` is a list of (weight, order) pairs where `order` lists
    0-based relay indices in decoding order (a prefix is allowed: relays
    not listed never decode, which models single-decoder assignment).
    """
    n = len(outage_relay)
    pbar = 1.0 - np.asarray(outage_relay, dtype=float)
    f = np.asarray(f, dtype=float)
    captured = np.zeros(n)
    for weight, order in scenarios:
        for decode_bits in itertools.product((0, 1), repeat=n):
            p_dec = np.prod([pbar[k] if b else 1.0 - pbar[k]
                             for k, b in enumerate(decode_bits)])
            for accept_bits in itertools.product((0, 1), repeat=n):
                p_acc = np.prod([f[k] if b else 1.0 - f[k]
                                 for k, b in enumerate(accept_bits)])
                w = weight * p_dec * p_acc
                if w == 0.0:
                    continue
                for k in order:
                    if decode_bits[k] and accept_bits[k]:
                        captured[k] += w
                        break
    return captured


def oracle_scenarios(params: StrategyParams, which: str):
    """Decoding-order scenarios for the oracle, matching the strategy."""
    if params.strategy is StrategyKind.ORDERED:
        dist = params.order_p if which == "p" else params.order_s
        probs, orders = dist.rank_orders()
        return [(p, list(o)) for p, o in zip(probs, orders)]
    beta = params.assignment()
    return [(beta[k], [k]) for k in range(params.n_relays)]


def oracle_user_rates(outages: OutageTable, params: StrategyParams,
                      traffic: TrafficParams):
    """mu_p, mu_s, lambda_pk, lambda_sk by exhaustive enumeration."""
    cap_p = oracle_capture(outages.pu_relay, params.f_p,
                           oracle_scenarios(params, "p"))
    cap_s = oracle_capture(outages.su_relay, params.f_s,
                           oracle_scenarios(params, "s"))
    mu_p = (1.0 - outages.pu_pd) + outages.pu_pd * cap_p.sum()
    pi_p0 = 1.0 if traffic.lambda_p == 0 else 1.0 - traffic.lambda_p / mu_p
    mu_s = pi_p0 * ((1.0 - outages.su_sd) + outages.su_sd * cap_s.sum())
    pi_s0 = 1.0 if traffic.lambda_s == 0 else 1.0 - traffic.lambda_s / mu_s
    lambda_pk = (1.0 - pi_p0) * outages.pu_pd * cap_p
    lambda_sk = (1.0 - pi_s0) * pi_p0 * outages.su_sd * cap_s
    return mu_p, mu_s, lambda_pk, lambda_sk


def draw(rng, count, n):
    """One chunk's uniforms, in the layout the chunk kernel consumes: nine
    per-slot rows (user arrivals, destination decoding, schedule,
    assignment, rank order, relay queue choice, the two sensing
    intervals), then per-relay decoding and acceptance."""
    u = rng.random((9, count))
    return (*u, rng.random((count, max(n, 1))), rng.random((count, max(n, 1))))


def slot_kernel(model, rng, start, count, queues, stats, trace):
    """Walk the chunk of `count` slots that starts at slot `start` of the
    run, on `draw(rng, count, n)`, then tally them with `oracle_tally`.
    `queues[c, j]` is the class-c queue j (0 the user, 1 + k relay k),
    carried across chunks; the first `len(trace)` slots of the run are
    written to `trace`.  Returns 0, or 1 (2) when the primary (secondary)
    queue passed the guard, after that slot.  It takes the place of
    `sim._lindley_kernel` and must agree with it bit for bit."""
    (n, ordered, saturated, errors, lam_p, lam_s, pbar_ppd, pbar_ssd,
     pbar_pk, pbar_sk, pbar_kpd, pbar_ksd, omega_cum, alpha,
     f_p, f_s, perm_p_cum, perm_p_orders, perm_s_cum, perm_s_orders,
     pmd_p, pmd_s, pfa, *_) = model
    (u_arr_p, u_arr_s, u_dest, u_sched, u_assign, u_perm, u_alpha,
     u_md1, u_md2, u_dec, u_acc) = draw(rng, count, n)
    # per class: destination and relay decoding, acceptance, rank orders
    pbar_d = (pbar_ppd, pbar_ssd)
    pbar_r = (pbar_pk, pbar_sk)
    pbar_rd = (pbar_kpd, pbar_ksd)
    accept = (f_p, f_s)
    perm_cum = (perm_p_cum, perm_s_cum)
    perm_orders = (perm_p_orders, perm_s_orders)
    guard = sim.QUEUE_GUARD
    trace_limit = len(trace)

    arrivals = (u_arr_p < lam_p, u_arr_s < lam_s)
    arr_p, arr_s = arrivals
    # per-slot events, -1 for none: the class of the user packet that
    # left its queue, the relay that admitted it, and the relay whose
    # packet (of class `sent_class`) reached the destination
    relay_index = np.min_scalar_type(-n - 1)
    left = np.full(count, -1, dtype=np.int8)
    admitted = np.full(count, -1, dtype=relay_index)
    sent = np.full(count, -1, dtype=relay_index)
    sent_class = np.zeros(count, dtype=np.int8)
    collided = np.zeros(count, dtype=bool)
    q0 = queues.tolist()
    qp, qs = q0[0][0], q0[1][0]
    relay = [row[1:] for row in q0]   # relay[c][k]

    m = count
    status = 0
    for i in range(count):
        # arrivals at slot start; a fresh packet may be served this slot
        if arr_p[i]:
            qp += 1
        if arr_s[i]:
            qs += 1
        pu_tx = qp > 0
        su_tx = (not pu_tx) and qs > 0

        # schedule-selected relay and (assignment strategies) the decoder
        r = -1
        if n > 0:
            r = 0
            while r < n - 1 and u_sched[i] >= omega_cum[r]:
                r += 1
        a_dec = -1
        if n > 0 and not ordered:
            # `sim.run` keeps rd's and rr's assignment as their rank-order
            # distribution, one one-relay order per relay
            a_dec = 0
            while a_dec < n - 1 and u_assign[i] >= perm_p_cum[a_dec]:
                a_dec += 1

        # the scheduled relay transmits only if both sensing intervals
        # come back idle; a relay that believed the channel idle is not
        # listening for a data packet that slot
        relay_tx = False
        relay_real = False
        relay_class = 0
        scheduled_listening = True
        if n > 0:
            if errors:
                if pu_tx:
                    idle1 = u_md1[i] < pmd_p[r]
                    idle2 = u_md2[i] < pmd_p[r]
                elif su_tx:
                    idle1 = u_md1[i] >= pfa[r]
                    idle2 = u_md2[i] < pmd_s[r]
                else:
                    idle1 = u_md1[i] >= pfa[r]
                    idle2 = u_md2[i] >= pfa[r]
                senses_idle = idle1 and idle2
            else:
                senses_idle = (not pu_tx) and (not su_tx)
            if senses_idle:
                scheduled_listening = False
                relay_class = 0 if u_alpha[i] < alpha[r] else 1
                relay_real = relay[relay_class][r] > 0
                relay_tx = relay_real or saturated

        n_tx = pu_tx + su_tx + relay_tx
        who = 0
        direct_ok = False
        decode_mask = 0
        verdict = 0
        acceptor = -1

        if n_tx >= 2:
            # concurrent transmissions are all lost; nobody decodes
            collided[i] = True
            verdict = 2
            who = 1 if pu_tx else 2
        elif pu_tx or su_tx:
            c = 0 if pu_tx else 1
            who = 1 + c
            verdict = 2
            pk, fk = pbar_r[c], accept[c]
            if u_dest[i] < pbar_d[c]:
                direct_ok = True
                verdict = 1
            elif n > 0 and ordered:
                cum, orders = perm_cum[c], perm_orders[c]
                j = 0
                while j < cum.shape[0] - 1 and u_perm[i] >= cum[j]:
                    j += 1
                for rank in range(n):
                    k = orders[j, rank]
                    if k == r and not scheduled_listening:
                        continue
                    if u_dec[i, k] < pk[k]:
                        decode_mask |= 1 << k
                        if u_acc[i, k] < fk[k]:
                            acceptor = k
                            break
            elif n > 0:
                k = a_dec
                if (k != r or scheduled_listening) and u_dec[i, k] < pk[k]:
                    decode_mask |= 1 << k
                    if u_acc[i, k] < fk[k]:
                        acceptor = k
            if direct_ok or acceptor >= 0:
                left[i] = c
                if c == 0:
                    qp -= 1
                else:
                    qs -= 1
            if acceptor >= 0:
                admitted[i] = acceptor
                relay[c][acceptor] += 1
        elif relay_tx:
            who = 3
            if relay_real:  # dummy packets deliver nothing
                verdict = 2
                if u_dest[i] < pbar_rd[relay_class][r]:
                    direct_ok = True
                    verdict = 1
                    relay[relay_class][r] -= 1
                    sent[i] = r
                    sent_class[i] = relay_class

        t = start + i
        if t < trace_limit:
            trace[t] = (who, r if who == 3 else -1, direct_ok, decode_mask,
                        verdict, acceptor, n_tx >= 2)

        if qp > guard or qs > guard:
            status = 1 if qp > guard else 2
            m = i + 1
            break

    queues[:, 0] = qp, qs
    queues[:, 1:] = relay
    del (u_arr_p, u_arr_s, u_dest, u_sched, u_assign, u_perm, u_alpha,
         u_md1, u_md2, u_dec, u_acc)   # free the draws before the sums
    # every queue's length, slot by slot, from its events: one cumulative
    # sum of its increments from the chunk's starting length
    left, admitted, sent, sent_class = (left[:m], admitted[:m], sent[:m],
                                        sent_class[:m])
    flows = ([], [])
    delivered = []
    for c in (0, 1):
        out = left == c
        x = np.subtract(arrivals[c][:m], out, dtype=np.int8)
        flows[c].append((arrivals[c], out,
                         q0[c][0] + np.cumsum(x, dtype=np.int32) + out))
        relay_out = (sent >= 0) & (sent_class == c)
        for k in range(n):
            adm = out & (admitted == k)
            dep = relay_out & (sent == k)
            x = np.subtract(adm, dep, dtype=np.int8)
            flows[c].append((adm, dep,
                             q0[c][1 + k] + np.cumsum(x, dtype=np.int32) - x))
        delivered.append((out & (admitted < 0)) | relay_out)
    idle = (flows[0][0][2] == 0) & (flows[1][0][2] == 0)
    oracle_tally(stats, start, m, flows, delivered, collided, idle)
    return status


def oracle_tally(stats, start, m, flows, delivered, collisions, idle):
    """`sim._tally` as first written, one queue at a time: count slots
    `start .. start + m - 1` into the batches they fall in.

    `flows[c][j]` is queue j of class c (j = 0 the user, 1 + k relay k)
    as three per-slot arrays: its arrivals (admissions at a relay), its
    departures, and the queue length the slot's accounting sees.
    `delivered[c]` marks each slot that brought a class-c packet to the
    destination; `collisions` is None where none can occur.  Every array
    may run past `m`.  Each batch's slots are summed by `np.add.reduceat`
    over the batch starts."""
    n_batches = stats.slots.size
    b0 = min(start // stats.batch_len, n_batches - 1)
    b1 = min((start + m - 1) // stats.batch_len, n_batches - 1)
    # where each batch's slots start in the chunk, and where the last ends
    bounds = np.maximum(np.arange(b0, b1 + 2) * stats.batch_len - start, 0)
    bounds[-1] = m
    seg = bounds[:-1]
    at = slice(b0, b1 + 1)

    def sums(x, dtype=np.int32):
        return np.add.reduceat(x[:m], seg, dtype=dtype)

    stats.slots[at] += bounds[1:] - seg
    for c, queues in enumerate(flows):
        for j, (arrivals, departures, length) in enumerate(queues):
            for f, x in enumerate((arrivals, departures, length > 0)):
                stats.queues[at, c, j, f] += sums(x)
            stats.queues[at, c, j, 3] += sums(length, np.int64)
        stats.delivered[at, c] += sums(delivered[c])
    if collisions is not None:
        stats.collisions[at] += sums(collisions)
    stats.idle[at] += sums(idle)


def delay_limited_secondary_ceiling(outages: OutageTable,
                                    traffic: TrafficParams, d_p_max: float,
                                    d_s_max: float, grid: int = 801):
    """Largest secondary service rate that any strategy can reach under
    the end-to-end delay ceilings (d_p_max, d_s_max), or None when no
    operating point meets them.  Perfect sensing is assumed.

    The bound maximizes mu_s over a relaxation of the model in `rates`:
    every operating point the package scores as feasible is feasible
    here, so the result is never below a feasible point's mu_s.  Steps:

    1. Capture totals.  The user rates depend on the strategy only
       through the total capture probabilities C_p = sum_k cap_pk and
       C_s = sum_k cap_sk, and every strategy has C_p <= 1 - prod_k
       pu_relay[k] and C_s <= 1 - prod_k su_relay[k] (ordered acceptance
       with every relay admitting attains them; a single assigned
       decoder captures at most max_k (1 - outage) of the mass).  C_p and
       C_s are scanned independently over these ranges on a grid x grid
       mesh, dropping any coupling through shared acceptance choices.
       Given (C_p, C_s), the chain mu_p -> pi_p0 -> mu_s -> pi_s0 and the
       pooled relay arrivals Lambda_P = (1 - pi_p0) pu_pd C_p and
       Lambda_S = (1 - pi_s0) pi_p0 su_sd C_s are exact.
    2. Pooling.  A user's relayed delay term sum_k l_k (1 - l_k) /
       (m_k - l_k) is at least the one of a single queue with the pooled
       rates L = sum_k l_k and M = sum_k m_k: each 1 - l_k >= 1 - L, and
       with x_k = l_k / (m_k - l_k), (sum_j x_j)(l_k / x_k) >= l_k for
       every k, so summing over k gives sum_k x_k >= L / (M - L).
       Merging a user's relaying queues can only lower its delay.
    3. Relay service.  Relay k serves its two queues at a combined rate
       omega_k pi_p0 pi_s0 (alpha_k (1 - relay_pd[k]) + (1 - alpha_k)
       (1 - relay_sd[k])), so the pooled primary and secondary relay
       queues share at most M = max(1 - relay outage) pi_p0 pi_s0.
    4. Primary coupling.  The primary delay ceiling fixes the least
       pooled service M_P that its relayed share Lambda_P can get:
       M_P >= Lambda_P + Lambda_P (1 - Lambda_P) /
       (lambda_p (d_p_max - D_p)), with D_p = (1 - lambda_p) /
       (mu_p - lambda_p) the primary's own queueing delay.  The secondary
       delay falls as its relay service grows, so it gets all the rest,
       M - M_P, and must then meet d_s_max.

    Stability is relaxed to a strict inequality without the EPS_STAB
    margin.  The result is the best grid point of the relaxation; for the
    criterion-07 table the default grid is within 1e-3 of a grid twice as
    fine.  It is raised by ROUNDING, relative: where the bound is attained
    (every relay capturing, at low primary load), `rate_report` computes
    the same rate by other floating-point steps, up to a few units in the
    last place above the grid's value.
    """
    lam_p, lam_s = traffic.lambda_p, traffic.lambda_s
    c_p = np.linspace(0.0, 1.0 - np.prod(outages.pu_relay), grid)[:, None]
    c_s = np.linspace(0.0, 1.0 - np.prod(outages.su_relay), grid)[None, :]
    relay_best = np.max(1.0 - np.concatenate((outages.relay_pd,
                                              outages.relay_sd)), initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_p = 1.0 - outages.pu_pd + outages.pu_pd * c_p
        pi_p0 = 1.0 - lam_p / mu_p
        d_p = (1.0 - lam_p) / (mu_p - lam_p)
        mu_s = pi_p0 * (1.0 - outages.su_sd + outages.su_sd * c_s)
        pi_s0 = 1.0 - lam_s / mu_s
        d_s = (1.0 - lam_s) / (mu_s - lam_s)
        relayed_p = (1.0 - pi_p0) * outages.pu_pd * c_p
        relayed_s = (1.0 - pi_s0) * pi_p0 * outages.su_sd * c_s

        # step 4: the least relay service the primary's ceiling allows
        need_p = np.where(relayed_p > 0, relayed_p + relayed_p
                          * (1.0 - relayed_p) / (lam_p * (d_p_max - d_p)),
                          0.0)
        primary_ok = (mu_p > lam_p) & np.where(relayed_p > 0, d_p < d_p_max,
                                               d_p <= d_p_max)
        # step 3: the secondary's pooled relay queue gets the rest
        left_s = relay_best * pi_p0 * pi_s0 - need_p
        extra_s = np.where(relayed_s > 0, relayed_s * (1.0 - relayed_s)
                           / (lam_s * (left_s - relayed_s)), 0.0)
        secondary_ok = ((mu_s > lam_s) & (left_s >= 0)
                        & ((relayed_s == 0) | (left_s > relayed_s))
                        & (d_s + extra_s <= d_s_max))
    feasible = primary_ok & secondary_ok
    if not feasible.any():
        return None
    return (float(np.broadcast_to(mu_s, feasible.shape)[feasible].max())
            * (1.0 + ROUNDING))


def closed_form(outages: OutageTable, params: StrategyParams,
                qos: QosSpec) -> tuple[bool, StrategyParams]:
    """The QoS search's closed-form verdict at the captures of `params`
    under perfect sensing, and the operating point with the schedule it
    gives those captures."""
    scorer = _CaptureScorer(outages, qos)
    feasible = capture_merit(scorer, params)[:2] == (0.0, 0.0)
    return feasible, scorer.result_params(params)


def oracle_least_mass(lam: float, mu: float, lam_k: list, c_k: list,
                      d_max: float) -> tuple[float, list | None]:
    """`qos._least_mass` as first written, with generator sums, the
    spread of every relay and `max` for the clamps: the oracle of the
    rewritten function's bits, (excess, z) at the same inputs."""
    z = [0.0] * len(lam_k)
    if lam == 0.0:
        return max(0.0, 1.0 / mu - d_max), z
    own = (1.0 - lam) / (mu - lam)
    excess = max(0.0, own - d_max)
    free = [k for k, l in enumerate(lam_k) if l > 0.0]
    if not free:
        return excess, z
    budget = lam * (d_max - own)
    if budget <= 0.0:
        return excess, None
    spread = [l * (1.0 - l) for l in lam_k]
    while free:
        ratio = sum(math.sqrt(spread[k] / c_k[k]) for k in free) / budget
        kept = []
        for k in free:
            slack = ratio * math.sqrt(spread[k] * c_k[k])
            if slack < EPS_STAB:
                slack = EPS_STAB
                budget -= spread[k] / EPS_STAB
            else:
                kept.append(k)
            z[k] = (lam_k[k] + slack) / c_k[k]
        if len(kept) == len(free):
            break
        free = kept
    return excess, z


def oracle_normalized(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    if total <= 0:
        return np.full(v.size, 1.0 / v.size)
    return v / total


def oracle_coordinate_moves(space, point: dict, scale: float):
    """The QoS search's candidate single-coordinate moves over a dict of
    arrays, as (group name, new array): the numpy oracle of
    `qos._coordinate_moves`."""
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
            yield name, oracle_normalized(toward)
            if vec[i] > 0.0:
                away = vec.copy()
                away[i] = max(0.0, away[i] - scale)
                yield name, oracle_normalized(away)


def as_groups(space, point: dict) -> tuple:
    """A search point given as a dict of arrays, as the search holds it:
    a tuple of float groups in the order of `space.names`."""
    return tuple(tuple(np.asarray(point[name], dtype=float).tolist())
                 for name in space.names)


def capture_merit(scorer: _CaptureScorer, params: StrategyParams) -> tuple:
    """The perfect-sensing search's merit of the captures of `params`,
    through `rates._user_rates`."""
    return scorer._solve(_user_rates(scorer.outages, params,
                                     scorer.traffic))[0]


def checked_params(space, point: dict) -> StrategyParams:
    """A search point (a dict of arrays) through the checking
    constructors, built from the arrays and not through `_Space`: od's
    rank weights over `space.perms` divided by their sum; without the
    schedule in the space, omega is uniform and alpha 0.5."""
    kw = {}
    if space.strategy is StrategyKind.RANDOM:
        kw["beta"] = point["beta"]
    if space.strategy is StrategyKind.ORDERED:
        for name, key in (("order_p", "rho_p"), ("order_s", "rho_s")):
            weights = point[key]
            total = weights.sum()
            kw[name] = OrderDistribution(space.n, {
                p: w / total for p, w in zip(space.perms, weights) if w > 0})
    n = space.n
    omega, alpha = ((point["omega"], point["alpha"]) if space.schedule else
                    (np.full(n, 1.0 / n) if n else np.zeros(0),
                     np.full(n, 0.5)))
    return StrategyParams(space.strategy, omega, alpha, point["f_p"],
                          point["f_s"], **kw)


def oracle_merit(scorer, space, point: dict) -> tuple:
    """The merit of a search point (a dict of arrays) through the
    parameters it stands for, built by `checked_params`:
    `rates._user_rates` and the closed-form schedule under
    `_CaptureScorer`, `evaluate` under `_Evaluator`; the oracle of the
    scorers' `score`."""
    params = checked_params(space, point)
    if isinstance(scorer, _CaptureScorer):
        return capture_merit(scorer, params)
    residuals, mu_s = scorer.residuals(params)
    return _violation(residuals), -mu_s


def random_outages(rng: np.random.Generator, n: int,
                   low: float = 0.01, high: float = 0.9) -> OutageTable:
    u = lambda size=None: rng.uniform(low, high, size)
    return OutageTable(u(), u(), u(n), u(n), u(n), u(n))


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.dirichlet(np.ones(n))
    return w / w.sum()


def nth_permutation(n: int, index: int) -> tuple[int, ...]:
    """The `index`-th permutation of 1..n in lexicographic order, the
    order of `itertools.permutations`, decoded in the factorial number
    system without listing the n! permutations."""
    left = list(range(1, n + 1))
    perm = []
    for k in range(n - 1, -1, -1):
        digit, index = divmod(index, math.factorial(k))
        perm.append(left.pop(digit))
    return tuple(perm)


def random_order_distribution(rng: np.random.Generator, n: int,
                              support: int = 4) -> OrderDistribution:
    count = math.factorial(n)
    take = min(support, count)
    idx = rng.choice(count, size=take, replace=False)
    w = random_simplex(rng, take)
    return OrderDistribution(n, {nth_permutation(n, int(i)): w[j]
                                 for j, i in enumerate(idx)})


def random_params(rng: np.random.Generator, n: int,
                  strategy: StrategyKind) -> StrategyParams:
    kw = {}
    if strategy is StrategyKind.ORDERED:
        kw["order_p"] = random_order_distribution(rng, n)
        kw["order_s"] = random_order_distribution(rng, n)
    elif strategy is StrategyKind.RANDOM:
        kw["beta"] = random_simplex(rng, n)
    return StrategyParams(strategy, random_simplex(rng, n),
                          rng.uniform(0, 1, n), rng.uniform(0, 1, n),
                          rng.uniform(0, 1, n), **kw)


def random_sensing_errors(rng: np.random.Generator, n: int,
                          high: float = 0.3) -> SensingErrorParams:
    return SensingErrorParams(rng.uniform(0, high, n),
                              rng.uniform(0, high, n),
                              rng.uniform(0, high, n))


def oracle_batch_ci(values: np.ndarray) -> float:
    """The batch-means half-width of one estimate from its per-batch
    values: 1.96 sample standard deviations of the finite ones over the
    square root of their count, inf with fewer than two; the reference of
    `sim._half_widths`, which works out every entry at once."""
    vals = values[np.isfinite(values)]
    if vals.size < 2:
        return math.inf
    return 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(vals.size)


def estimates_equal(a: SimEstimate, b: SimEstimate) -> bool:
    """Field-by-field equality of two estimates, bit for bit, with NaN
    equal to NaN: a queue that was never nonempty has NaN rates."""
    for field in dataclasses.fields(SimEstimate):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, dict):
            if x.keys() != y.keys() or not all(
                    np.array_equal(np.asarray(x[key]), np.asarray(y[key]),
                                   equal_nan=True) for key in x):
                return False
        elif isinstance(x, np.ndarray):
            if not np.array_equal(x, y, equal_nan=True):
                return False
        elif isinstance(x, float) and math.isnan(x):
            if not (isinstance(y, float) and math.isnan(y)):
                return False
        elif x != y:
            return False
    return True
