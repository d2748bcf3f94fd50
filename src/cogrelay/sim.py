"""Slot-level Monte Carlo simulation of the cooperative MAC protocol.

One replication walks the protocol slot by slot: Bernoulli arrivals, the
primary transmitting whenever backlogged, the secondary after sensing the
primary idle, the schedule-selected relay after sensing both users idle,
independent per-listener channel draws, ACK/NACK feedback, ranked or
assigned relay acceptance of undelivered packets, and relay forwarding.
It is the independent check for every closed-form rate in `rates`.

All randomness is pre-drawn in a fixed order from one seeded generator,
so a run is bit-reproducible regardless of the code path taken inside a
slot.  The per-slot state machine lives in `_slot_kernel`.  Wherever the
queues form a chain, each upstream of the next (perfect sensing, or
sensing errors with saturated relays), `_lindley_kernel` computes the
same chunk with one Lindley recursion per queue; `run` uses the slot
loop only for true queues with sensing errors and for traced runs.

Queue-delay estimates use the time-average queue length divided by the
delivery rate; with arrivals applied at slot start and a packet counted
in its arrival and departure slots, a packet served immediately has delay
one slot, matching the closed-form (1-lambda)/(mu-lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import StrategyKind
from .errors import ConfigError, UnstableQueueError
from .network import (NetworkConfig, OutageTable, SensingErrorParams,
                      TrafficParams)
from .rates import StrategyParams

QUEUE_GUARD = 10_000_000  # abort threshold: the configuration is unstable
CHUNK = 1 << 16

# stats column layout (per batch)
_SLOTS, _ARR_P, _ARR_S, _NE_P, _DEP_P, _CUM_P, _NE_S, _DEP_S, _CUM_S, \
    _DLV_P, _DLV_S, _COLL, _IDLE2 = range(13)
_RELAY0 = 13
_RW = 8  # per relay: adm_p, dep_p, ne_p, cum_p, adm_s, dep_s, ne_s, cum_s


def _slot_kernel(start, count, batch_len, n_batches, n,
                 ordered, saturated, errors,
                 lam_p, lam_s,
                 pbar_ppd, pbar_ssd, pbar_pk, pbar_sk, pbar_kpd, pbar_ksd,
                 omega_cum, assign_cum, alpha, f_p, f_s,
                 perm_p_cum, perm_p_orders, perm_s_cum, perm_s_orders,
                 pmd_p, pmd_s, pfa,
                 u_arr_p, u_arr_s, u_dest, u_sched, u_assign, u_perm,
                 u_alpha, u_md1, u_md2, u_dec, u_acc,
                 user_q, relay_q, stats, trace, trace_limit):
    qp = user_q[0]
    qs = user_q[1]
    for i in range(count):
        t = start + i
        b = t // batch_len
        if b >= n_batches:
            b = n_batches - 1
        stats[b, _SLOTS] += 1.0

        # arrivals at slot start; a fresh packet may be served this slot
        if u_arr_p[i] < lam_p:
            qp += 1
            stats[b, _ARR_P] += 1.0
        if u_arr_s[i] < lam_s:
            qs += 1
            stats[b, _ARR_S] += 1.0

        pu_tx = qp > 0
        if pu_tx:
            stats[b, _NE_P] += 1.0
        su_tx = (not pu_tx) and qs > 0
        if qs > 0:
            stats[b, _NE_S] += 1.0
        if not pu_tx and not su_tx:
            stats[b, _IDLE2] += 1.0

        # queue-length accounting: after arrivals, before departures;
        # packets admitted to a relay this slot count from the next slot
        stats[b, _CUM_P] += qp
        stats[b, _CUM_S] += qs
        for k in range(n):
            base = _RELAY0 + _RW * k
            if relay_q[0, k] > 0:
                stats[b, base + 2] += 1.0
            if relay_q[1, k] > 0:
                stats[b, base + 6] += 1.0
            stats[b, base + 3] += relay_q[0, k]
            stats[b, base + 7] += relay_q[1, k]

        # schedule-selected relay and (assignment strategies) the decoder
        r = -1
        if n > 0:
            r = 0
            while r < n - 1 and u_sched[i] >= omega_cum[r]:
                r += 1
        a_dec = -1
        if n > 0 and not ordered:
            a_dec = 0
            while a_dec < n - 1 and u_assign[i] >= assign_cum[a_dec]:
                a_dec += 1

        # the scheduled relay transmits only if both sensing intervals
        # come back idle; a relay that believed the channel idle is not
        # listening for a data packet that slot
        relay_tx = False
        relay_real = False
        relay_use_p = False
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
                relay_use_p = u_alpha[i] < alpha[r]
                if relay_use_p:
                    relay_real = relay_q[0, r] > 0
                else:
                    relay_real = relay_q[1, r] > 0
                relay_tx = relay_real or saturated

        n_tx = 0
        if pu_tx:
            n_tx += 1
        if su_tx:
            n_tx += 1
        if relay_tx:
            n_tx += 1

        who = 0
        direct_ok = False
        decode_mask = 0
        verdict = 0
        acceptor = -1

        if n_tx >= 2:
            # concurrent transmissions are all lost; nobody decodes
            stats[b, _COLL] += 1.0
            verdict = 2
            who = 1 if pu_tx else 2
        elif pu_tx:
            who = 1
            if u_dest[i] < pbar_ppd:
                direct_ok = True
                verdict = 1
                qp -= 1
                stats[b, _DEP_P] += 1.0
                stats[b, _DLV_P] += 1.0
            else:
                verdict = 2
                winner = -1
                if n > 0 and ordered:
                    j = 0
                    while j < perm_p_cum.shape[0] - 1 and \
                            u_perm[i] >= perm_p_cum[j]:
                        j += 1
                    for rank in range(n):
                        k = perm_p_orders[j, rank]
                        if k == r and not scheduled_listening:
                            continue
                        if u_dec[i, k] < pbar_pk[k]:
                            decode_mask |= 1 << k
                            if u_acc[i, k] < f_p[k]:
                                winner = k
                                break
                elif n > 0:
                    k = a_dec
                    if (k != r or scheduled_listening) and \
                            u_dec[i, k] < pbar_pk[k]:
                        decode_mask |= 1 << k
                        if u_acc[i, k] < f_p[k]:
                            winner = k
                if winner >= 0:
                    acceptor = winner
                    qp -= 1
                    stats[b, _DEP_P] += 1.0
                    relay_q[0, winner] += 1
                    stats[b, _RELAY0 + _RW * winner] += 1.0
        elif su_tx:
            who = 2
            if u_dest[i] < pbar_ssd:
                direct_ok = True
                verdict = 1
                qs -= 1
                stats[b, _DEP_S] += 1.0
                stats[b, _DLV_S] += 1.0
            else:
                verdict = 2
                winner = -1
                if n > 0 and ordered:
                    j = 0
                    while j < perm_s_cum.shape[0] - 1 and \
                            u_perm[i] >= perm_s_cum[j]:
                        j += 1
                    for rank in range(n):
                        k = perm_s_orders[j, rank]
                        if k == r and not scheduled_listening:
                            continue
                        if u_dec[i, k] < pbar_sk[k]:
                            decode_mask |= 1 << k
                            if u_acc[i, k] < f_s[k]:
                                winner = k
                                break
                elif n > 0:
                    k = a_dec
                    if (k != r or scheduled_listening) and \
                            u_dec[i, k] < pbar_sk[k]:
                        decode_mask |= 1 << k
                        if u_acc[i, k] < f_s[k]:
                            winner = k
                if winner >= 0:
                    acceptor = winner
                    qs -= 1
                    stats[b, _DEP_S] += 1.0
                    relay_q[1, winner] += 1
                    stats[b, _RELAY0 + _RW * winner + 4] += 1.0
        elif relay_tx:
            who = 3
            if relay_real:  # dummy packets deliver nothing
                base = _RELAY0 + _RW * r
                if relay_use_p:
                    if u_dest[i] < pbar_kpd[r]:
                        direct_ok = True
                        verdict = 1
                        relay_q[0, r] -= 1
                        stats[b, base + 1] += 1.0
                        stats[b, _DLV_P] += 1.0
                    else:
                        verdict = 2
                else:
                    if u_dest[i] < pbar_ksd[r]:
                        direct_ok = True
                        verdict = 1
                        relay_q[1, r] -= 1
                        stats[b, base + 5] += 1.0
                        stats[b, _DLV_S] += 1.0
                    else:
                        verdict = 2

        if t < trace_limit:
            trace[t, 0] = who
            trace[t, 1] = r if who == 3 else -1
            trace[t, 2] = 1 if direct_ok else 0
            trace[t, 3] = decode_mask
            trace[t, 4] = verdict
            trace[t, 5] = acceptor
            trace[t, 6] = 1 if n_tx >= 2 else 0

        if qp > QUEUE_GUARD or qs > QUEUE_GUARD:
            user_q[0] = qp
            user_q[1] = qs
            return 1 if qp > QUEUE_GUARD else 2

    user_q[0] = qp
    user_q[1] = qs
    return 0


def _draw(rng, count, n):
    """One chunk's uniforms, in the layout every kernel consumes: nine
    per-slot rows (user arrivals, destination decoding, schedule,
    assignment, rank order, relay queue choice, the two sensing
    intervals), then per-relay decoding and acceptance."""
    u = rng.random((9, count))
    return (*u, rng.random((count, max(n, 1))), rng.random((count, max(n, 1))))


def _lindley(x, q0):
    """Queue after each slot of `q_t = max(0, q_{t-1} + x_t)` from `q0`:
    the cumulative sum less its running minimum, floored at `-q0`.  A
    chunk's increments sum to at most CHUNK in size, so int32 holds it."""
    s = np.cumsum(x, dtype=np.int32)
    return s - np.minimum(np.minimum.accumulate(s), -q0)


def _before(q, q0):
    """Queue at the start of each slot, given the queue after each slot."""
    prev = np.empty_like(q)
    prev[0] = q0
    prev[1:] = q[:-1]
    return prev


def _pick(cum, u):
    """Index the `while i < len(cum) and u >= cum[i]` scan of the slot
    loop stops at, for every slot, in the narrowest signed integer type
    that also holds -1."""
    return np.searchsorted(cum, u, side="right").astype(
        np.min_scalar_type(-cum.size - 1))


def _first_taker(order, orders, takes):
    """Relay that admits a NACKed packet in each slot, -1 for none: the
    first in the slot's rank order that decodes and accepts."""
    ranked = orders.astype(np.min_scalar_type(-orders.shape[1]))[order]
    hit = np.take_along_axis(takes, ranked, axis=1)
    first = hit.argmax(axis=1)[:, None]
    return np.where(np.take_along_axis(hit, first, axis=1),
                    np.take_along_axis(ranked, first, axis=1), -1)[:, 0]


def _lindley_kernel(rng, start, count, batch_len, n_batches, n,
                    ordered, saturated, errors,
                    lam_p, lam_s,
                    pbar_ppd, pbar_ssd, pbar_pk, pbar_sk, pbar_kpd, pbar_ksd,
                    omega_cum, assign_cum, alpha, f_p, f_s,
                    perm_p_cum, perm_p_orders, perm_s_cum, perm_s_orders,
                    pmd_p, pmd_s, pfa,
                    user_q, relay_q, stats):
    """`_slot_kernel` on `_draw(rng, count, n)` without a per-slot loop:
    the same stats, queues and status, bit for bit, and no trace.

    Valid when no queue's increment depends on a queue downstream of it:
    under perfect sensing, and with sensing errors when relays are
    saturated (a relay that senses idle transmits whatever its queue
    holds).  Each queue then follows the Lindley recursion with an
    increment fixed by the draws and the queues upstream of it, in the
    order primary, secondary, relays.  A relay admits packets only in
    slots where a user transmits and serves only in slots where neither
    does.  The draws are taken one row at a time and cut at once to the
    few bits the chain needs, so that no chunk of floats stays live.
    """
    assert saturated or not errors, "coupled queues need the slot loop"
    arr_p = rng.random(count) < lam_p
    arr_s = rng.random(count) < lam_s
    u_dest = rng.random(count)
    direct_p = u_dest < pbar_ppd
    direct_s = u_dest < pbar_ssd
    r = _pick(omega_cum[:n - 1], rng.random(count))   # scheduled relay
    u = rng.random(count)
    decoder = None if ordered else _pick(assign_cum[:n - 1], u)
    u = rng.random(count)
    if ordered:
        order_p = _pick(perm_p_cum[:-1], u)
        order_s = _pick(perm_s_cum[:-1], u)
    use_p = rng.random(count) < alpha[r]
    send_p = use_p & (u_dest < pbar_kpd[r])
    send_s = ~use_p & (u_dest < pbar_ksd[r])
    del u_dest, use_p
    errors = errors and n > 0      # with no relay nothing senses
    if errors:
        # the scheduled relay's verdict on each sensing interval
        u = rng.random(count)
        clear1 = u >= pfa[r]       # an idle first interval is heard idle
        miss_p = u < pmd_p[r]      # the primary is missed in the first
        u = rng.random(count)
        miss_p &= u < pmd_p[r]     # and in the second
        miss_s = clear1 & (u < pmd_s[r])
        hears_idle = clear1 & (u >= pfa[r])
        del clear1
    else:
        rng.random((2, count))
    del u

    u = rng.random((count, max(n, 1)))
    if ordered:
        takes_p = u < pbar_pk
        takes_s = u < pbar_sk
        u = rng.random((count, max(n, 1)))
        takes_p &= u < f_p
        takes_s &= u < f_s
        del u
        win_p = _first_taker(order_p, perm_p_orders, takes_p)
        win_s = _first_taker(order_s, perm_s_orders, takes_s)
    else:
        at = decoder[:, None]
        u_k = np.take_along_axis(u, at, axis=1)[:, 0]
        takes_p = u_k < pbar_pk[decoder]
        takes_s = u_k < pbar_sk[decoder]
        u = rng.random((count, max(n, 1)))
        u_k = np.take_along_axis(u, at, axis=1)[:, 0]
        del u
        takes_p &= u_k < f_p[decoder]
        takes_s &= u_k < f_s[decoder]
        win_p = np.where(takes_p, decoder, -1)
        win_s = np.where(takes_s, decoder, -1)
    del takes_p, takes_s

    # a relay that senses idle under a user transmits (it is saturated),
    # so the slot collides; the loop's rule that such a relay is not
    # listening therefore never changes a capture here
    serve_p = direct_p | (win_p >= 0)
    serve_s = direct_s | (win_s >= 0)
    if errors:
        serve_p &= ~miss_p
        serve_s &= ~miss_s

    qp = _lindley(np.subtract(arr_p, serve_p, dtype=np.int8), user_q[0])
    qp_in = _before(qp, user_q[0]) + arr_p   # after arrivals
    pu_tx = qp_in > 0
    serve_s &= ~pu_tx
    qs = _lindley(np.subtract(arr_s, serve_s, dtype=np.int8), user_q[1])
    qs_in = _before(qs, user_q[1]) + arr_s
    backlog_s = qs_in > 0

    status = 0
    m = count
    over = (qp > QUEUE_GUARD) | (qs > QUEUE_GUARD)
    if over.any():
        m = int(over.argmax()) + 1
        status = 1 if qp[m - 1] > QUEUE_GUARD else 2
    user_q[0] = qp[m - 1]
    user_q[1] = qs[m - 1]
    del qp, qs, over

    b0 = min(start // batch_len, n_batches - 1)
    b1 = min((start + m - 1) // batch_len, n_batches - 1)
    bids = np.arange(b0, b1 + 1)
    seg = np.maximum(bids * batch_len - start, 0)
    stats[bids, _SLOTS] += np.diff(np.append(seg, m))

    def add(col, x):
        stats[bids, col] += np.add.reduceat(x[:m], seg, dtype=np.float64)

    idle = ~pu_tx & ~backlog_s
    dlv_p = pu_tx & serve_p & direct_p
    dlv_s = backlog_s & serve_s & direct_s
    add(_ARR_P, arr_p)
    add(_ARR_S, arr_s)
    add(_NE_P, pu_tx)
    add(_DEP_P, pu_tx & serve_p)
    add(_CUM_P, qp_in)
    add(_NE_S, backlog_s)
    add(_DEP_S, backlog_s & serve_s)
    add(_CUM_S, qs_in)
    add(_IDLE2, idle)
    if n > 0:
        if errors:
            add(_COLL, (pu_tx & miss_p) | (~pu_tx & backlog_s & miss_s))
            idle &= hears_idle
        cap_p = pu_tx & serve_p & ~direct_p
        cap_s = backlog_s & serve_s & ~direct_s
        send_p &= idle
        send_s &= idle
        for k in range(n):
            at_k = r == k
            base = _RELAY0 + _RW * k
            for cls, cap, win, send, dlv in ((0, cap_p, win_p, send_p, dlv_p),
                                             (1, cap_s, win_s, send_s, dlv_s)):
                adm = cap & (win == k)
                out = send & at_k
                q0 = relay_q[cls, k]
                q = _lindley(np.subtract(adm[:m], out[:m], dtype=np.int8), q0)
                prev = _before(q, q0)
                dep = out[:m] & (prev > 0)
                relay_q[cls, k] = q[-1]
                col = base + 4 * cls
                add(col, adm)
                add(col + 1, dep)
                add(col + 2, prev > 0)
                add(col + 3, prev)
                dlv[:m] |= dep
    add(_DLV_P, dlv_p)
    add(_DLV_S, dlv_s)
    return status


@dataclass(frozen=True)
class SlotOutcome:
    """Decoded trace row for one slot (debugging aid)."""

    transmitter: str          # "none", "primary", "secondary", "relay"
    relay_index: int          # transmitting relay, -1 otherwise
    delivered: bool           # destination decoded the packet
    decode_mask: int          # bit k set: relay k decoded the user packet
    feedback: str             # "none", "ack", "nack"
    accepting_relay: int      # relay that admitted the packet, -1 if none
    collision: bool


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimates with 95% batch-means half-widths.

    Conditional service rates are NaN when their queue was never nonempty
    ("no samples"); the nonempty-slot counters tell them apart from true
    zeros.  `ci` maps each estimate name to its half-width (scalar or
    per-relay array).
    """

    mu_p_hat: float
    mu_s_hat: float
    pi_p0_hat: float
    pi_s0_hat: float
    lambda_pk_hat: np.ndarray
    lambda_sk_hat: np.ndarray
    mu_pk_hat: np.ndarray
    mu_sk_hat: np.ndarray
    d_p_total_hat: float
    d_s_total_hat: float
    ci: dict
    seed: int
    slots: int
    collisions: int
    nonempty_p: int
    nonempty_s: int
    nonempty_pk: np.ndarray
    nonempty_sk: np.ndarray
    both_idle_fraction: float = 0.0  # slots with neither user transmitting
    trace: tuple = ()


def derive_replication_seed(base_seed: int, replication_index: int) -> int:
    """Distinct, reproducible seed per replication: injective in the
    replication index for any fixed base seed."""
    if replication_index < 0 or replication_index >= 2 ** 32:
        raise ConfigError("replication_index must fit in 32 bits")
    return int(base_seed) * (2 ** 32) + int(replication_index)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else math.nan


def _batch_ci(values: np.ndarray) -> float:
    vals = values[np.isfinite(values)]
    if vals.size < 2:
        return math.inf
    return 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(vals.size)


def _success_vectors(outages: OutageTable):
    return (1.0 - outages.pu_pd, 1.0 - outages.su_sd,
            1.0 - outages.pu_relay, 1.0 - outages.su_relay,
            1.0 - outages.relay_pd, 1.0 - outages.relay_sd)


def run(cfg: OutageTable | NetworkConfig, params: StrategyParams,
        traffic: TrafficParams, *, sensing: SensingErrorParams | None = None,
        mode: str = "true_queues", slots: int, seed: int,
        batches: int = 20, trace_limit: int = 0) -> SimEstimate:
    """Simulate `slots` slots of the MAC protocol and estimate every rate
    the closed-form analysis reports.

    mode "true_queues" runs the honest system; "saturated_relays" makes
    every scheduled relay transmit (dummy packets when its queue is
    empty), the regime the sensing-error analysis bounds.

    Raises UnstableQueueError when a user queue exceeds the runaway
    guard.  With perfect sensing a collision is impossible and asserted
    to be absent.  True queues with sensing errors, and runs that keep a
    trace, go through the per-slot loop; every other run through the
    Lindley kernel, with the same result.
    """
    if slots < 1:
        raise ConfigError("slots must be >= 1")
    if mode not in ("true_queues", "saturated_relays"):
        raise ConfigError(f"unknown mode {mode!r}")
    if isinstance(cfg, NetworkConfig):
        outages = cfg.outages(params.strategy)
        if sensing is None:
            sensing = cfg.sensing
    else:
        outages = cfg
    n = outages.n_relays
    if params.n_relays != n:
        raise ConfigError("params sized for a different relay count")
    if sensing is not None and sensing.n_relays != n:
        raise ConfigError("sensing-error vectors sized for a different relay count")

    pbar_ppd, pbar_ssd, pbar_pk, pbar_sk, pbar_kpd, pbar_ksd = \
        _success_vectors(outages)

    ordered = params.strategy is StrategyKind.ORDERED
    if ordered and n > 0:
        pp, po = params.order_p.rank_orders()
        sp, so = params.order_s.rank_orders()
    else:
        pp, po = np.zeros(1), np.zeros((1, max(n, 1)), dtype=np.int64)
        sp, so = np.zeros(1), np.zeros((1, max(n, 1)), dtype=np.int64)
    perm_p_cum = np.cumsum(pp)
    perm_s_cum = np.cumsum(sp)

    omega_cum = np.cumsum(params.omega) if n else np.zeros(1)
    assign_cum = (np.cumsum(params.assignment())
                  if (n and not ordered) else np.zeros(1))
    alpha = params.alpha if n else np.zeros(1)
    f_p = params.f_p if n else np.zeros(1)
    f_s = params.f_s if n else np.zeros(1)
    if sensing is not None:
        pmd_p, pmd_s, pfa = (sensing.p_md_primary, sensing.p_md_secondary,
                             sensing.p_false_alarm)
    else:
        pmd_p = pmd_s = pfa = np.zeros(max(n, 1))

    batches = min(batches, slots)
    batch_len = slots // batches
    width = _RELAY0 + _RW * n
    stats = np.zeros((batches, width))
    user_q = np.zeros(2, dtype=np.int64)
    relay_q = np.zeros((2, max(n, 1)), dtype=np.int64)
    trace_rows = np.zeros((trace_limit, 7), dtype=np.int64)

    # with sensing errors a true-queue relay with nothing to send stays
    # silent, so whether the primary collides depends on relay queues
    loop = trace_limit > 0 or (sensing is not None and mode == "true_queues")
    model = (batch_len, batches, n, ordered, mode == "saturated_relays",
             sensing is not None, traffic.lambda_p, traffic.lambda_s,
             pbar_ppd, pbar_ssd,
             np.atleast_1d(pbar_pk) if n else np.zeros(1),
             np.atleast_1d(pbar_sk) if n else np.zeros(1),
             np.atleast_1d(pbar_kpd) if n else np.zeros(1),
             np.atleast_1d(pbar_ksd) if n else np.zeros(1),
             omega_cum, assign_cum, alpha, f_p, f_s,
             perm_p_cum, po, perm_s_cum, so, pmd_p, pmd_s, pfa)
    rng = np.random.default_rng(seed)
    done = 0
    status = 0
    while done < slots:
        count = min(CHUNK, slots - done)
        if loop:
            status = _slot_kernel(done, count, *model,
                                  *_draw(rng, count, n), user_q, relay_q,
                                  stats, trace_rows, trace_limit)
        else:
            status = _lindley_kernel(rng, done, count, *model,
                                     user_q, relay_q, stats)
        done += count
        if status != 0:
            raise UnstableQueueError(
                "primary" if status == 1 else "secondary",
                f"queue exceeded {QUEUE_GUARD} packets after <= {done} slots; "
                f"the configuration is unstable")

    tot = stats.sum(axis=0)

    # packet conservation, per queue
    assert tot[_ARR_P] == tot[_DEP_P] + user_q[0]
    assert tot[_ARR_S] == tot[_DEP_S] + user_q[1]
    for k in range(n):
        base = _RELAY0 + _RW * k
        assert tot[base] == tot[base + 1] + relay_q[0, k]
        assert tot[base + 4] == tot[base + 5] + relay_q[1, k]
    if sensing is None:
        assert tot[_COLL] == 0, "collision under perfect sensing"

    bs = stats[:, _SLOTS]
    est = {
        "mu_p": _ratio(tot[_DEP_P], tot[_NE_P]),
        "mu_s": _ratio(tot[_DEP_S], tot[_NE_S]),
        "pi_p0": 1.0 - tot[_NE_P] / slots,
        "pi_s0": 1.0 - tot[_NE_S] / slots,
    }
    ci = {
        "mu_p": _batch_ci(stats[:, _DEP_P] / np.where(stats[:, _NE_P] > 0,
                                                      stats[:, _NE_P], np.nan)),
        "mu_s": _batch_ci(stats[:, _DEP_S] / np.where(stats[:, _NE_S] > 0,
                                                      stats[:, _NE_S], np.nan)),
        "pi_p0": _batch_ci(1.0 - stats[:, _NE_P] / bs),
        "pi_s0": _batch_ci(1.0 - stats[:, _NE_S] / bs),
    }

    lam_pk = np.zeros(n)
    lam_sk = np.zeros(n)
    mu_pk = np.zeros(n)
    mu_sk = np.zeros(n)
    ci_lpk = np.zeros(n)
    ci_lsk = np.zeros(n)
    ci_mpk = np.zeros(n)
    ci_msk = np.zeros(n)
    for k in range(n):
        base = _RELAY0 + _RW * k
        lam_pk[k] = tot[base] / slots
        lam_sk[k] = tot[base + 4] / slots
        mu_pk[k] = _ratio(tot[base + 1], tot[base + 2])
        mu_sk[k] = _ratio(tot[base + 5], tot[base + 6])
        ci_lpk[k] = _batch_ci(stats[:, base] / bs)
        ci_lsk[k] = _batch_ci(stats[:, base + 4] / bs)
        ci_mpk[k] = _batch_ci(stats[:, base + 1] /
                              np.where(stats[:, base + 2] > 0,
                                       stats[:, base + 2], np.nan))
        ci_msk[k] = _batch_ci(stats[:, base + 5] /
                              np.where(stats[:, base + 6] > 0,
                                       stats[:, base + 6], np.nan))

    cum_p_total = tot[_CUM_P] + sum(tot[_RELAY0 + _RW * k + 3] for k in range(n))
    cum_s_total = tot[_CUM_S] + sum(tot[_RELAY0 + _RW * k + 7] for k in range(n))
    d_p = _ratio(cum_p_total, tot[_DLV_P])
    d_s = _ratio(cum_s_total, tot[_DLV_S])
    batch_cum_p = stats[:, _CUM_P].copy()
    batch_cum_s = stats[:, _CUM_S].copy()
    for k in range(n):
        batch_cum_p += stats[:, _RELAY0 + _RW * k + 3]
        batch_cum_s += stats[:, _RELAY0 + _RW * k + 7]
    ci["d_p_total"] = _batch_ci(batch_cum_p / np.where(stats[:, _DLV_P] > 0,
                                                       stats[:, _DLV_P], np.nan))
    ci["d_s_total"] = _batch_ci(batch_cum_s / np.where(stats[:, _DLV_S] > 0,
                                                       stats[:, _DLV_S], np.nan))
    ci["lambda_pk"] = ci_lpk
    ci["lambda_sk"] = ci_lsk
    ci["mu_pk"] = ci_mpk
    ci["mu_sk"] = ci_msk

    trace = tuple(_decode_trace(row) for row in trace_rows[:min(trace_limit, slots)])
    return SimEstimate(
        mu_p_hat=est["mu_p"], mu_s_hat=est["mu_s"],
        pi_p0_hat=est["pi_p0"], pi_s0_hat=est["pi_s0"],
        lambda_pk_hat=lam_pk, lambda_sk_hat=lam_sk,
        mu_pk_hat=mu_pk, mu_sk_hat=mu_sk,
        d_p_total_hat=d_p, d_s_total_hat=d_s,
        ci=ci, seed=seed, slots=slots, collisions=int(tot[_COLL]),
        nonempty_p=int(tot[_NE_P]), nonempty_s=int(tot[_NE_S]),
        nonempty_pk=np.array([int(tot[_RELAY0 + _RW * k + 2]) for k in range(n)]),
        nonempty_sk=np.array([int(tot[_RELAY0 + _RW * k + 6]) for k in range(n)]),
        both_idle_fraction=tot[_IDLE2] / slots,
        trace=trace)


def _decode_trace(row) -> SlotOutcome:
    names = ("none", "primary", "secondary", "relay")
    verdicts = ("none", "ack", "nack")
    return SlotOutcome(
        transmitter=names[int(row[0])], relay_index=int(row[1]),
        delivered=bool(row[2]), decode_mask=int(row[3]),
        feedback=verdicts[int(row[4])], accepting_relay=int(row[5]),
        collision=bool(row[6]))


def conditional_service(estimate: SimEstimate) -> dict:
    """Departures per nonempty slot for every queue, with "no samples"
    (None) when a queue was never nonempty."""
    out = {
        "primary": None if estimate.nonempty_p == 0 else estimate.mu_p_hat,
        "secondary": None if estimate.nonempty_s == 0 else estimate.mu_s_hat,
    }
    for k in range(estimate.lambda_pk_hat.size):
        out[f"primary-relay-{k + 1}"] = (
            None if estimate.nonempty_pk[k] == 0 else estimate.mu_pk_hat[k])
        out[f"secondary-relay-{k + 1}"] = (
            None if estimate.nonempty_sk[k] == 0 else estimate.mu_sk_hat[k])
    return out


def run_replicated(cfg, params, traffic, *, replications: int,
                   sensing: SensingErrorParams | None = None,
                   mode: str = "true_queues", slots: int,
                   seed: int, batches: int = 20) -> SimEstimate:
    """Independent replications with derived seeds, merged in index order.

    The half-widths come from the spread across replications when there
    are at least two, otherwise from the single run's batch means.
    """
    if replications < 1:
        raise ConfigError("replications must be >= 1")
    runs = [run(cfg, params, traffic, sensing=sensing, mode=mode,
                slots=slots, seed=derive_replication_seed(seed, i),
                batches=batches)
            for i in range(replications)]
    if replications == 1:
        return runs[0]

    def merge(name):
        vals = np.array([getattr(r, name) for r in runs], dtype=float)
        est = float(np.nanmean(vals)) if np.any(np.isfinite(vals)) else math.nan
        hw = _batch_ci(vals)
        return est, hw

    def merge_vec(name):
        vals = np.array([getattr(r, name) for r in runs], dtype=float)
        est = np.nanmean(vals, axis=0)
        hw = np.array([_batch_ci(vals[:, k]) for k in range(vals.shape[1])])
        return est, hw

    ci = {}
    scalars = {}
    for name, key in (("mu_p_hat", "mu_p"), ("mu_s_hat", "mu_s"),
                      ("pi_p0_hat", "pi_p0"), ("pi_s0_hat", "pi_s0"),
                      ("d_p_total_hat", "d_p_total"),
                      ("d_s_total_hat", "d_s_total")):
        scalars[name], ci[key] = merge(name)
    vectors = {}
    for name, key in (("lambda_pk_hat", "lambda_pk"),
                      ("lambda_sk_hat", "lambda_sk"),
                      ("mu_pk_hat", "mu_pk"), ("mu_sk_hat", "mu_sk")):
        vectors[name], ci[key] = merge_vec(name)

    return SimEstimate(
        mu_p_hat=scalars["mu_p_hat"], mu_s_hat=scalars["mu_s_hat"],
        pi_p0_hat=scalars["pi_p0_hat"], pi_s0_hat=scalars["pi_s0_hat"],
        lambda_pk_hat=vectors["lambda_pk_hat"],
        lambda_sk_hat=vectors["lambda_sk_hat"],
        mu_pk_hat=vectors["mu_pk_hat"], mu_sk_hat=vectors["mu_sk_hat"],
        d_p_total_hat=scalars["d_p_total_hat"],
        d_s_total_hat=scalars["d_s_total_hat"],
        ci=ci, seed=seed, slots=slots * replications,
        collisions=sum(r.collisions for r in runs),
        nonempty_p=sum(r.nonempty_p for r in runs),
        nonempty_s=sum(r.nonempty_s for r in runs),
        nonempty_pk=np.sum([r.nonempty_pk for r in runs], axis=0),
        nonempty_sk=np.sum([r.nonempty_sk for r in runs], axis=0),
        both_idle_fraction=float(np.mean([r.both_idle_fraction
                                          for r in runs])))
