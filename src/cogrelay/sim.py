"""Slot-level Monte Carlo simulation of the cooperative MAC protocol.

One replication walks the protocol slot by slot: Bernoulli arrivals, the
primary transmitting whenever backlogged, the secondary after sensing the
primary idle, the schedule-selected relay after sensing both users idle,
independent per-listener channel draws, ACK/NACK feedback, ranked or
assigned relay acceptance of undelivered packets, and relay forwarding.
It is the independent check for every closed-form rate in `rates`.

All randomness is pre-drawn in a fixed order from one seeded generator,
which skips the rows of draws a run does not use, so a run is
bit-reproducible.  One kernel, `_lindley_kernel`, computes a
chunk of slots from those draws with one Lindley recursion per queue,
each queue upstream of the next, and one tally, `_tally`, counts it.
With true queues and sensing errors a relay's queue decides whether a
user's slot collides, so there the kernel iterates the recursions to
their causal fixed point over windows of slots.  Traced runs go through
the same kernel, which decodes the trace rows from its per-slot arrays.
The kernel writes every queue's arrivals, departures, nonempty slots
and length slot by slot into two matrices, and `_tally` alone writes
the per-batch counters, four per queue, from a fixed handful of batch
sums whatever the relay count.  The test suite keeps a per-slot loop
over the same draws, and the tally as first written, as the kernel's
oracle.

Queue-delay estimates use the time-average queue length divided by the
delivery rate; with arrivals applied at slot start and a packet counted
in its arrival and departure slots, a packet served immediately has delay
one slot, matching the closed-form (1-lambda)/(mu-lambda).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import StrategyKind
from .errors import ConfigError, UnstableQueueError, check_integer
from .network import (NetworkConfig, OutageTable, SensingErrorParams,
                      TrafficParams)
from .orders import support_arrays
from .rates import StrategyParams

QUEUE_GUARD = 10_000_000  # abort threshold: the configuration is unstable
CHUNK = 1 << 16
# The least window of slots a coupled pass of `_lindley_kernel` covers.
# At N = 2 in 65,536-slot chunks a pass costs about 55 ns a slot of its
# window, plus about 0.2 ms that a narrower window does not save (numpy
# calls, and the relay events before the window, which it keeps): a
# window of a few thousand slots spends about as much on either.  Floors
# of 2,048 and 8,192 slots are each slower on one of three stress cases
# with high misdetection, and alike on fig11's own sensing errors.
_WINDOW = 4096
# A coupled pass after one that got slots wrong covers this many mean
# gaps between those slots, and one after a window that came back right
# this many times its width.  On nine 40,000-slot runs with fig11's
# sensing errors 4, 6, 8 and 16 take 35, 32, 30 and 28 passes over
# 813,000-885,000 slots, in the same time; on the three stress cases 6
# is 3-10% faster than 8, which sweeps 5-18% more slots.  Without the
# growth after a right window the nine runs take 39 passes.
_WIDEN = 6

# A cumulative distribution this long or shorter is searched by a scan
# (`_pick`).  Runs come in chunks of CHUNK slots plus one remainder.  On
# uniform draws in chunks of 40,000-65,536 slots the scan costs about
# 0.25 ns per entry and slot, and `searchsorted` 50-75 ns/slot at 64-719
# entries: the scan is 2-3x faster at 64 and 119 entries (the uniform
# order support at N=5), 1.5x at 160, and they break even near 250.  A
# short remainder chunk pays the scan's per-entry call more: at 10,000
# slots the break-even is near 140 entries, at 3,392 near 64.
_PICK_SCAN = 160
# The entries of a per-relay threshold row (`_below`): p tiled over
# 8,192 // n slots.  `u < p` of a (count, n) array of draws against n
# thresholds runs numpy's inner loop n entries at a time: at n = 2 it
# takes about 54 us over 10,000 slots and 208 us over 40,000, against
# 7.5 and 19 us row by row; at n = 3-13 row by row takes a fifth to a
# half of the time.  Rows of 1,024 slots take up to twice as long at
# n = 2-4.  At n = 1 the broadcast is a compare with a scalar, 2.5 us
# against 5.4 over 10,000 slots, a loss that the other savings of a
# one-relay run cover several times over.
_ROW = 8192
# The largest capture table (`_capture_table`) built, in entries: it
# holds every uniform order distribution up to six relays (720 x 64), and
# rd's and rr's one-relay orders up to twelve (12 x 4096).
_CAPTURE_CAP = 1 << 16

# Everything the kernel needs to know about the system, built once per
# run.  The per-relay vectors have length max(n, 1); the `_cum` ones are
# cumulative distributions, the `_orders` ones rank orders, the
# `capture_` ones their capture tables (None past `_CAPTURE_CAP`), all
# from `StrategyParams.ranked_support`: rd and rr decode as one-relay
# rank orders, one per relay, drawn from the assignment; `ordered` only
# says which draw picks the order.  When both users draw from one
# rank-order distribution, their three share the same arrays.
_Model = namedtuple("_Model", (
    "n ordered saturated errors lam_p lam_s pbar_ppd pbar_ssd pbar_pk "
    "pbar_sk pbar_kpd pbar_ksd omega_cum alpha f_p f_s "
    "perm_p_cum perm_p_orders perm_s_cum perm_s_orders pmd_p pmd_s pfa "
    "capture_p capture_s"))


class _Stats(NamedTuple):
    """Per-batch counters of a run; `_tally` is the only code that writes
    them.  Batch b counts slots b*batch_len to (b+1)*batch_len - 1, and
    the last batch also the slots left over."""

    batch_len: int
    slots: np.ndarray       # (batches,)
    queues: np.ndarray      # (batches, 2, 1 + n, 4): class (primary,
    #   secondary) x queue (user, relay 1..n) x (arrivals, departures,
    #   nonempty slots, queue-length sum)
    delivered: np.ndarray   # (batches, 2): packets reaching the destination
    collisions: np.ndarray  # (batches,)
    idle: np.ndarray        # (batches,): slots with neither user backlogged


def _tally(stats, start, m, flags, lengths, events):
    """Count slots `start .. start + m - 1` into the batches they fall in.

    `flags[c, j]` is queue j of class c (j = 0 the user, 1 + k relay k)
    as three rows of per-slot marks: its arrivals (admissions at a
    relay), its departures, and whether it is nonempty; `lengths[c, j]`
    is the queue length the slot's accounting sees.  A user queue is
    counted after the slot's arrival, a relay queue at slot start, so a
    packet admitted to a relay counts there from the next slot.  The rows
    of `events` mark the slots that brought a primary and a secondary
    packet to the destination, that collided, and where neither user was
    backlogged.  Every array may run past `m`.  The sums are exact
    integers, as they are in float64, so the float64 counters get the
    same bits: int32 holds a count of marks in a chunk, and a sum of
    queue lengths where the bound below fits it, int64 any other.
    """
    n_batches = stats.slots.size
    size = stats.batch_len
    b0 = min(start // size, n_batches - 1)
    b1 = min((start + m - 1) // size, n_batches - 1)
    # where each batch's slots start in the chunk, and where the last ends
    bounds = np.maximum(np.arange(b0, b1 + 2) * size - start, 0)
    bounds[-1] = m
    at = slice(b0, b1 + 1)
    stats.slots[at] += bounds[1:] - bounds[:-1]
    stats.queues[at, :, :, :3] += np.moveaxis(
        _batch_sums(flags, bounds, size, np.int32), -1, 0)
    # a queue grows by at most a packet a slot, so its lengths sum below
    # this bound, and where that fits int32 holds them (4x faster to sum)
    most = m * (int(lengths[..., 0].max()) + m)
    stats.queues[at, :, :, 3] += np.moveaxis(_batch_sums(
        lengths, bounds, size, np.int32 if most < 2 ** 31 else np.int64),
        -1, 0)
    counts = _batch_sums(events, bounds, size, np.int32)
    stats.delivered[at] += counts[:2].T
    stats.collisions[at] += counts[2]
    stats.idle[at] += counts[3]


def _batch_sums(x, bounds, size, dtype):
    """Sums in `dtype` of `x` over its last axis, one per segment
    `bounds[i] .. bounds[i + 1] - 1`.  The segments between the first
    and the last hold `size` slots each and are summed as one reshape,
    which casts in buffers (`np.add.reduceat` with a dtype casts its
    whole input first).  The first and the last are summed on their own:
    a chunk may start inside a batch, the last batch takes the slots
    left over, and the guard may cut a chunk short."""
    out = np.empty(x.shape[:-1] + (bounds.size - 1,), dtype=dtype)
    for i in {0, bounds.size - 2}:
        out[..., i] = x[..., bounds[i]:bounds[i + 1]].sum(axis=-1, dtype=dtype)
    whole = x[..., bounds[1]:bounds[-2]]
    out[..., 1:-1] = whole.reshape(x.shape[:-1] + (-1, size)).sum(
        axis=-1, dtype=dtype)
    return out


def _lindley(x, q0):
    """Queue after each slot of `q_t = max(0, q_{t-1} + x_t)` from `q0`:
    the cumulative sum less its running minimum, floored at `-q0`.  A
    chunk's increments sum to at most CHUNK in size, so int32 holds the
    queue while it stays below 2**31 - CHUNK; numpy raises past that."""
    s = np.cumsum(x, dtype=np.int32)
    low = np.minimum.accumulate(s)
    np.minimum(low, -int(q0), out=low)
    return np.subtract(s, low, out=s)


def _arrivals(rng, count, lam):
    """`rng.random(count) < lam`, a row of Bernoulli arrivals.  The draws
    lie in [0, 1), so at `lam` 0 or 1 the row is a constant and is
    skipped, one generator step a double."""
    if lam == 0.0 or lam == 1.0:
        rng.bit_generator.advance(count)
        return np.full(count, lam == 1.0)
    return rng.random(count) < lam


def _before(q, q0):
    """Queue at the start of each slot, given the queue after each slot."""
    prev = np.empty_like(q)
    prev[0] = q0
    prev[1:] = q[:-1]
    return prev


def _pick(cum, u):
    """Index the `while i < len(cum) and u >= cum[i]` scan of the slot
    loop stops at, for every slot, in the narrowest signed integer type
    that also holds -1.  On a nondecreasing `cum` that is the number of
    entries at or below `u`, which a short `cum` counts entry by entry
    and a long one finds by binary search (`_PICK_SCAN`)."""
    kind = np.min_scalar_type(-cum.size - 1)
    if cum.size > _PICK_SCAN:
        return np.searchsorted(cum, u, side="right").astype(kind)
    at = np.zeros(u.shape, dtype=kind)
    for c in cum:
        at += u >= c
    return at


def _below(u, row):
    """`u < p` for per-relay draws `u` (count, n), given `row`, the n
    thresholds p tiled over whole slots (`_ROW`): the flat draws are
    compared a row at a time, the last slots against a prefix of it."""
    flat = u.reshape(-1)
    out = np.empty(flat.size, dtype=bool)
    whole = flat.size - flat.size % row.size
    np.less(flat[:whole].reshape(-1, row.size), row,
            out=out[:whole].reshape(-1, row.size))
    np.less(flat[whole:], row[:flat.size - whole], out=out[whole:])
    return out.reshape(u.shape)


def _capture_table(orders, n):
    """The capture rule over `n` relays as a table, or None past
    `_CAPTURE_CAP` entries: entry [j, code] is the first relay in rank
    order `orders[j]` whose bit is set in `code`, -1 for none.  The codes
    span all `n` relays, however few an order ranks: rd's and rr's rank
    only the assigned decoder."""
    count = orders.shape[0]
    if count << n > _CAPTURE_CAP:
        return None
    codes = np.arange(1 << n)
    table = np.full((count, 1 << n), -1, dtype=np.int8)
    for k in orders.T[::-1]:       # the last rank first, the first wins
        k = k[:, None]
        np.copyto(table, k, where=(codes >> k) & 1 == 1)
    return table


def _first_taker(order, orders, takes):
    """Relay that admits a NACKed packet in each slot, -1 for none: the
    first in the slot's rank order that decodes and accepts.  Relay
    indices are sized by the relay count: rd's and rr's orders are one
    relay wide."""
    ranked = orders.astype(np.min_scalar_type(-takes.shape[1]))[order]
    hit = np.take_along_axis(takes, ranked, axis=1)
    first = hit.argmax(axis=1)[:, None]
    return np.where(np.take_along_axis(hit, first, axis=1),
                    np.take_along_axis(ranked, first, axis=1), -1)[:, 0]


def _captures(order, orders, table, takes, deaf, r):
    """`_first_taker` in every slot, save that in the slots `deaf` marks
    (None for none) the slot's relay `r` is not listening.  With a
    capture table a slot's takers are one code, the sum over k of
    `takes[:, k] << k`, and the winner one lookup at (rank order, code);
    without one the rank orders are gathered row by row.  Under rd and
    rr the order is the assigned decoder alone, so the winner is that
    relay if it takes the packet and is listening."""
    if table is None:
        win = _first_taker(order, orders, takes)
        if deaf is not None:
            rows = np.flatnonzero(deaf)
            takes = takes[rows]
            takes[np.arange(rows.size), r[rows]] = False
            win[rows] = _first_taker(order[rows], orders, takes)
        return win
    n = takes.shape[1]
    at = order.astype(np.int32) << n
    for k in range(n):
        at |= np.left_shift(takes[:, k], k, dtype=np.int32)
    win = table.take(at)
    if deaf is not None:
        rows = np.flatnonzero(deaf)
        win[rows] = table.take(at[rows] & ~np.left_shift(1, r[rows],
                                                          dtype=np.int32))
    return win


def _lindley_kernel(model, rng, start, count, queues, stats, trace):
    """Compute and tally the chunk of `count` slots that starts at slot
    `start` of the run; return 0, or 1 (2) when the primary (secondary)
    queue passed the guard, after that slot.  `queues[c, j]` is the
    class-c queue j (0 the user, 1 + k relay k), carried across chunks;
    the first `len(trace)` slots of the run are written to `trace`.

    Each queue follows the Lindley recursion, in the order primary,
    secondary, relays: a relay admits packets only in slots where a user
    transmits and serves only in slots where neither does.  The increment
    of a queue is fixed by the draws and the queues upstream of it, save
    in one case: with sensing errors, the scheduled relay may sense idle
    while a user transmits; it is then not listening, and the slot
    collides only if the relay's chosen queue holds a packet.  Under
    perfect sensing no relay senses idle under a user, and saturated
    relays always transmit, so one pass over the chunk is exact.  With
    true queues the pass runs on a guess of which of those slots collide
    and reads the truth back from the relay queues.  The truth of a slot
    depends only on the slots before it, so the slots before the first
    one the guess got wrong are exact, and the next pass, with the truth
    it read as the guess, starts there.  The fixed point is unique, and
    every pass fixes at least one more slot.  The first pass guesses that
    no relay queue holds a packet, as it mostly does not (each of
    fig11's holds one in 0.5-14% of the slots), and covers the chunk;
    each later one covers a window from the first open slot, `_WIDEN`
    times the mean gap between the wrong slots of the pass before it
    (its width over their count) but at least `_WINDOW`, and after a
    window that came back right, `_WIDEN` times its width from its end.
    A window that would leave less than itself takes the rest.  So where
    wrong slots are dense a pass sweeps a few thousand slots, and a
    chunk where they are sparse takes a few passes over its rest.

    The draws are taken one row at a time and cut at once to the few
    bits the chain needs, so that no chunk of floats stays live; a row
    the chunk does not use, or an arrival row at load 0 or 1, is
    skipped, one generator step a double.  A relay queue is kept as the
    slots where it may change: a pass keeps those before its window and
    redoes those in it.  A slot's draws pick its relay and rank order by
    counting cumulative entries (`_pick`).  Every strategy captures
    through rank orders, rd's and rr's holding one relay, the assigned
    decoder, so a slot's winner is one lookup in the run's capture table
    (`_captures`), with no per-row gather, and its trace mask one rule.
    Every queue's per-slot marks and lengths go into the two matrices
    that `_tally` counts: the passes write the user rows and each relay
    queue's admissions and sends, and the relay queues' lengths,
    nonempty marks and departures follow from their events, expanded
    slot by slot once the chunk is exact.  The trace rows are decoded
    from the exact per-slot arrays and the relay-decoding bits kept for
    the traced slots.
    """
    (n, ordered, saturated, errors, lam_p, lam_s, pbar_ppd, pbar_ssd,
     pbar_pk, pbar_sk, pbar_kpd, pbar_ksd, omega_cum, alpha,
     f_p, f_s, perm_p_cum, perm_p_orders, perm_s_cum, perm_s_orders,
     pmd_p, pmd_s, pfa, capture_p, capture_s) = model
    errors = errors and n > 0      # with no relay nothing senses
    coupled = errors and not saturated
    shown = min(max(len(trace) - start, 0), count)   # slots traced
    arr_p, arr_s = _arrivals(rng, count, lam_p), _arrivals(rng, count, lam_s)
    u_dest = rng.random(count)
    direct = u_dest < np.array([[pbar_ppd], [pbar_ssd]])
    direct_p, direct_s = direct
    r = _pick(omega_cum[:n - 1], rng.random(count))   # scheduled relay
    r_ix = r.astype(np.intp)   # numpy gathers by np.intp without a cast
    # rd and rr draw the assigned decoder, their one-relay order, from
    # the first of these two rows, od its rank order from the second; the
    # generator skips the other, one step per double
    rng.bit_generator.advance(count if ordered else 0)
    u = rng.random(count)
    rng.bit_generator.advance(0 if ordered else count)
    order_p = _pick(perm_p_cum[:-1], u)
    # both users on one distribution: the same draw, the same order
    order_s = (order_p if perm_s_cum is perm_p_cum
               else _pick(perm_s_cum[:-1], u))
    use_p = rng.random(count) < alpha[r_ix]
    send_p = use_p & (u_dest < pbar_kpd[r_ix])
    send_s = ~use_p & (u_dest < pbar_ksd[r_ix])
    del u_dest
    if errors:
        # the scheduled relay's verdict on each sensing interval
        false_alarm, missed = pfa[r_ix], pmd_p[r_ix]
        rng.random(out=u)           # the order's draws are spent
        clear1 = u >= false_alarm   # an idle first interval is heard idle
        miss_p = u < missed         # the primary is missed in the first
        rng.random(out=u)
        miss_p &= u < missed        # and in the second
        miss_s = clear1 & (u < pmd_s[r_ix])
        hears_idle = clear1 & (u >= false_alarm)
        del clear1, false_alarm, missed
    else:
        rng.bit_generator.advance(2 * count)   # the rows go unused
    del u, r_ix

    # each relay's decoding and acceptance thresholds, tiled for `_below`
    rows = np.tile((pbar_pk, pbar_sk, f_p, f_s),
                   min(count, max(1, _ROW // pbar_pk.size)))
    u = rng.random((count, max(n, 1)))
    takes_p = _below(u, rows[0])
    takes_s = _below(u, rows[1])
    heard = takes_p[:shown].copy(), takes_s[:shown].copy()   # traced
    u = rng.random((count, max(n, 1)))
    takes_p &= _below(u, rows[2])
    takes_s &= _below(u, rows[3])
    del u, rows
    # a relay that senses idle is not listening, so where it missed the
    # user the packet goes to the next taker in order (under rd and rr,
    # to none)
    win_p = _captures(order_p, perm_p_orders, capture_p, takes_p,
                      miss_p if coupled else None, r)
    win_s = _captures(order_s, perm_s_orders, capture_s, takes_s,
                      miss_s if coupled else None, r)
    del takes_p, takes_s
    base_p = direct_p | (win_p >= 0)   # served unless the slot collides
    base_s = direct_s | (win_s >= 0)

    # every queue's per-slot marks and lengths, and the slots' events, as
    # `_tally` counts them; the sweeps write the user rows
    flags = np.empty((2, 1 + n, 3, count), dtype=bool)
    lengths = np.empty((2, 1 + n, count), dtype=np.int32)
    events = np.empty((4, count), dtype=bool)
    flags[0, 0, 0], flags[1, 0, 0] = arr_p, arr_s
    (arr_p, dep_p, pu_tx), (arr_s, dep_s, backlog_s) = flags[:, 0]
    qp_in, qs_in = lengths[:, 0]
    idle = events[3]
    # each relay queue as the slots where it may change and its level
    # before the first of them and after each; its rows of `flags` hold
    # its admissions and the slots where it sends if nonempty
    relay = [[(np.empty(0, dtype=np.intp), queues[c, 1 + k:2 + k].astype(
        np.int32)) for k in range(n)] for c in (0, 1)]
    # the guess that the scheduled relay's chosen queue holds a packet: a
    # saturated relay always has one to send, a true one is guessed empty
    busy = np.full(count, saturated) if errors else None

    def sweep(lo, hi):
        """Every queue in slots `lo .. hi - 1`, from its state after slot
        `lo - 1`, which the slots before `lo` fix."""
        at = slice(lo, hi)
        serve_p, serve_s = base_p[at], base_s[at]
        if errors:
            serve_p = serve_p & ~(miss_p[at] & busy[at])
            serve_s = serve_s & ~(miss_s[at] & busy[at])
        q0 = int(queues[0, 0] if lo == 0 else qp_in[lo - 1] - dep_p[lo - 1])
        np.add(_before(_lindley(np.subtract(
            arr_p[at], serve_p, dtype=np.int8), q0), q0), arr_p[at],
            out=qp_in[at])
        tx = np.greater(qp_in[at], 0, out=pu_tx[at])
        np.logical_and(tx, serve_p, out=dep_p[at])
        serve_s &= ~tx
        q0 = int(queues[1, 0] if lo == 0 else qs_in[lo - 1] - dep_s[lo - 1])
        np.add(_before(_lindley(np.subtract(
            arr_s[at], serve_s, dtype=np.int8), q0), q0), arr_s[at],
            out=qs_in[at])
        backlog = np.greater(qs_in[at], 0, out=backlog_s[at])
        np.logical_and(backlog, serve_s, out=dep_s[at])
        sends = np.logical_not(tx | backlog, out=idle[at])
        if n == 0:
            return
        if errors:
            sends = sends & hears_idle[at]
        caps = (dep_p[at] & ~direct_p[at], dep_s[at] & ~direct_s[at])
        wins = (win_p[at], win_s[at])
        sent = (send_p[at] & sends, send_s[at] & sends)
        r_at = r[at]
        for k in range(n):
            at_k = r_at == k
            for c in (0, 1):
                adm = np.logical_and(caps[c], wins[c] == k,
                                     out=flags[c, 1 + k, 0, at])
                out = np.logical_and(sent[c], at_k,
                                     out=flags[c, 1 + k, 1, at])
                # the slots from `lo` on are redone, those from `hi` on
                # dropped until a later pass reaches them
                ev, level = relay[c][k]
                keep = np.searchsorted(ev, lo)
                new = np.flatnonzero(adm | out)
                relay[c][k] = (
                    np.concatenate((ev[:keep], new + lo)),
                    np.concatenate((level[:keep + 1], _lindley(np.subtract(
                        adm[new], out[new], dtype=np.int8), level[keep]))))

    sweep(0, count)
    if coupled:
        # the slots a guess can matter in, grouped by the queue each reads
        rows = np.flatnonzero(miss_p | miss_s)
        missed = miss_p[rows], miss_s[rows]
        reads = [(c, k, np.flatnonzero((use_p[rows] == (c == 0))
                                       & (r[rows] == k)))
                 for c in (0, 1) for k in range(n)]
        truth = np.empty(rows.size, dtype=bool)
        lo, hi = 0, count   # the slots before `lo` are exact
        last = -1           # the last slot a pass got wrong
        while True:
            j0, j1 = np.searchsorted(rows, (lo, hi))
            for c, k, sel in reads:
                ev, level = relay[c][k]
                sel = sel[slice(*np.searchsorted(sel, (j0, j1)))]
                truth[sel] = level[np.searchsorted(ev, rows[sel])] > 0
            at = rows[j0:j1]
            # the relay sensed idle while a user transmitted
            unheard = np.where(pu_tx[at], missed[0][j0:j1],
                               missed[1][j0:j1] & backlog_s[at])
            wrong = unheard & (truth[j0:j1] != busy[at])
            busy[at] = truth[j0:j1]
            if wrong.any():
                first = int(at[wrong.argmax()])
                assert first > last, "a pass fixed no slot"
                width = max(_WINDOW, _WIDEN * (hi - lo)
                            // int(np.count_nonzero(wrong)))
                lo = last = first
            elif hi < count:
                width = _WIDEN * (hi - lo)
                lo = hi
            else:
                break
            # a window that would leave less than itself takes the rest
            hi = lo + width if lo + 2 * width < count else count
            sweep(lo, hi)

    status = 0
    m = count
    over = (qp_in - dep_p > QUEUE_GUARD) | (qs_in - dep_s > QUEUE_GUARD)
    if over.any():
        m = int(over.argmax()) + 1
        status = 1 if qp_in[m - 1] - dep_p[m - 1] > QUEUE_GUARD else 2
    del over
    last = m - 1
    events[2] = (busy & np.where(pu_tx, miss_p, backlog_s & miss_s)
                 if errors else False)
    for c in (0, 1):
        for k, (ev, level) in enumerate(relay[c]):
            # the level before each slot: its last change before it
            edges = np.empty(ev.size + 2, dtype=np.intp)
            edges[0], edges[1:-1], edges[-1] = -1, ev, count - 1
            lengths[c, 1 + k] = np.repeat(level, edges[1:] - edges[:-1])
    held = flags[:, 1:, 2]
    np.greater(lengths[:, 1:], 0, out=held)
    flags[:, 1:, 1] &= held      # a relay sends only a packet it holds
    queues[:, 0] = lengths[:, 0, last] - flags[:, 0, 1, last]
    queues[:, 1:] = (lengths[:, 1:, last] + flags[:, 1:, 0, last]
                     - flags[:, 1:, 1, last])
    np.logical_or.reduce(flags[:, 1:, 1], axis=1, out=events[:2])
    events[:2] |= flags[:, 0, 1] & direct
    _tally(stats, start, m, flags, lengths, events)
    shown = min(shown, m)
    if shown == 0:
        return status

    # the trace: who sent, what the destination and the relays decoded
    t = slice(0, shown)
    pu, su = pu_tx[t], ~pu_tx[t] & backlog_s[t]
    user = pu | su
    who = np.where(pu, 1, np.where(su, 2, 0))
    sender = np.full(shown, -1)
    relayed = np.zeros(shown, dtype=bool)    # a relay sent a real packet
    clash = np.zeros(shown, dtype=bool)
    mask = np.zeros(shown, dtype=np.int64)
    if n:
        r_t = r[t]
        if errors:
            senses_idle = np.where(pu, miss_p[t],
                                   np.where(su, miss_s[t], hears_idle[t]))
        else:
            senses_idle = ~user
        relayed = senses_idle & held[np.where(use_p[t], 0, 1), r_t,
                                     np.arange(shown)]
        relay_tx = relayed | (senses_idle & saturated)
        clash = user & relay_tx
        relay_only = relay_tx & ~user
        who[relay_only] = 3
        sender = np.where(relay_only, r_t, -1)
        relayed &= relay_only
        deaf = senses_idle & user    # the relay missed the user
    user_only = user & ~clash
    ok = (user_only & np.where(pu, direct_p[t], direct_s[t])
          | relayed & (send_p[t] | send_s[t]))
    verdict = np.where(ok, 1, np.where(user | relayed, 2, 0))
    nack = user_only & ~ok
    acceptor = np.where(nack, np.where(pu, win_p[t], win_s[t]), -1)
    if n:
        decoded = np.where(pu[:, None],
                           *(h[t] for h in heard))   # cut at the guard
        decoded[deaf, r_t[deaf]] = False
        ranked = np.where(pu[:, None], perm_p_orders[order_p[t]],
                          perm_s_orders[order_s[t]])
        # the relays in rank order that decoded, up to the acceptor, in
        # int64 as the orders are: `run` traces at most 63 relays
        hit = np.take_along_axis(decoded, ranked, axis=1)
        taker = ranked == acceptor[:, None]
        hit &= np.cumsum(taker, axis=1) - taker == 0
        mask = np.where(nack, np.sum(hit << ranked, axis=1), 0)
    trace[start:start + shown] = np.column_stack(
        (who, sender, ok, mask, verdict, acceptor, clash))
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


def _per(num, den):
    """`num / den` elementwise, NaN where `den` is 0 ("no samples")."""
    return num / np.where(den > 0, den, np.nan)


def _half_widths(per_batch: np.ndarray) -> np.ndarray:
    """The batch-means half-width of every entry of a per-batch quantity
    (batch axis first): 1.96 times the sample standard deviation of the
    entry's finite batches over the square root of their count, inf with
    fewer than two.  The entries with the same number of finite batches
    take one `np.std` over a matrix of their finite values, one
    contiguous row per entry, so each sums in the order of `np.std` over
    that entry's finite values alone, bit for bit."""
    rows = per_batch.reshape(per_batch.shape[0], -1).T
    finite = np.isfinite(rows)
    sizes = finite.sum(axis=1)
    out = np.full(rows.shape[0], math.inf)
    for size in set(sizes.tolist()) - {0, 1}:
        at = sizes == size
        vals = rows[at][finite[at]].reshape(-1, size)
        out[at] = 1.96 * np.std(vals, axis=1, ddof=1) / math.sqrt(size)
    return out.reshape(per_batch.shape[1:])


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
    to be absent.  Every run, traced or not, goes through the one chunk
    kernel, `_lindley_kernel`; a trace records the first
    `min(trace_limit, slots)` slots and leaves the estimate as it is.
    """
    check_integer("slots", slots, 1)
    check_integer("seed", seed, 0)
    check_integer("batches", batches, 1)
    check_integer("trace_limit", trace_limit, 0)
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
    if trace_limit > 0 and n > 63:
        raise ConfigError(f"a traced run holds decode_mask in 64 bits, so "
                          f"at most 63 relays; got {n}")

    ordered = params.strategy is StrategyKind.ORDERED
    if n > 0:
        (pp, po), (sp, so) = (support_arrays(params.ranked_support(user))
                              for user in "ps")
        perm_p = np.cumsum(pp), po, _capture_table(po, n)
        perm_s = (perm_p if np.array_equal(sp, pp) and np.array_equal(so, po)
                  else (np.cumsum(sp), so, _capture_table(so, n)))
    else:
        # over no relay, one order over one empty column: every slot's
        # winner is still one lookup, not a gather
        po = np.zeros((1, 1), dtype=np.int64)
        perm_p = perm_s = np.zeros(1), po, _capture_table(po, 1)

    omega_cum = np.cumsum(params.omega) if n else np.zeros(1)
    if sensing is not None:
        pmd_p, pmd_s, pfa = (sensing.p_md_primary, sensing.p_md_secondary,
                             sensing.p_false_alarm)
    else:
        pmd_p = pmd_s = pfa = np.zeros(max(n, 1))
    pbar_pk, pbar_sk, pbar_kpd, pbar_ksd, alpha, f_p, f_s = (
        np.atleast_1d(v) if n else np.zeros(1) for v in (
            1.0 - outages.pu_relay, 1.0 - outages.su_relay,
            1.0 - outages.relay_pd, 1.0 - outages.relay_sd,
            params.alpha, params.f_p, params.f_s))
    model = _Model(n, ordered, mode == "saturated_relays", sensing is not None,
                   traffic.lambda_p, traffic.lambda_s, 1.0 - outages.pu_pd,
                   1.0 - outages.su_sd, pbar_pk, pbar_sk, pbar_kpd, pbar_ksd,
                   omega_cum, alpha, f_p, f_s, *perm_p[:2],
                   *perm_s[:2], pmd_p, pmd_s, pfa, perm_p[2], perm_s[2])

    batches = min(batches, slots)
    stats = _Stats(slots // batches, np.zeros(batches),
                   np.zeros((batches, 2, 1 + n, 4)), np.zeros((batches, 2)),
                   np.zeros(batches), np.zeros(batches))
    queues = np.zeros((2, 1 + n), dtype=np.int64)
    trace_rows = np.zeros((min(trace_limit, slots), 7), dtype=np.int64)

    rng = np.random.default_rng(seed)
    done = 0
    status = 0
    while done < slots:
        count = min(CHUNK, slots - done)
        status = _lindley_kernel(model, rng, done, count, queues, stats,
                                 trace_rows)
        done += count
        if status != 0:
            raise UnstableQueueError(
                "primary" if status == 1 else "secondary",
                f"queue exceeded {QUEUE_GUARD} packets after <= {done} slots; "
                f"the configuration is unstable")

    # per queue, over the batches: arrivals, departures, nonempty slots
    # and queue-length sums, each shaped (2, 1 + n) as `queues`
    arrived, left, busy, length = np.moveaxis(stats.queues.sum(axis=0), -1, 0)
    assert np.array_equal(arrived, left + queues), "packets not conserved"
    delivered = stats.delivered.sum(axis=0)
    collisions = int(stats.collisions.sum())
    if sensing is None:
        assert collisions == 0, "collision under perfect sensing"

    served = _per(left, busy)
    empty = 1.0 - busy[:, 0] / slots
    arrival = arrived[:, 1:] / slots
    delay = _per(length.sum(axis=1), delivered)

    # every estimate batch by batch, per class: the queues' conditional
    # service (user, then relays), the user's idle fraction, the relays'
    # arrival rates and the delay, so one call finds every half-width
    b_arrived, b_left, b_busy, b_length = np.moveaxis(stats.queues, -1, 0)
    b_slots = stats.slots[:, None, None]
    ci_p, ci_s = _half_widths(np.concatenate((
        _per(b_left, b_busy), 1.0 - b_busy[:, :, :1] / b_slots,
        b_arrived[:, :, 1:] / b_slots,
        _per(b_length.sum(axis=2), stats.delivered)[:, :, None]), axis=2))
    ci = {"mu_p": ci_p[0], "mu_s": ci_s[0],
          "pi_p0": ci_p[1 + n], "pi_s0": ci_s[1 + n],
          "d_p_total": ci_p[-1], "d_s_total": ci_s[-1],
          "lambda_pk": ci_p[2 + n:-1], "lambda_sk": ci_s[2 + n:-1],
          "mu_pk": ci_p[1:1 + n], "mu_sk": ci_s[1:1 + n]}

    trace = tuple(_decode_trace(row) for row in trace_rows)
    return SimEstimate(
        mu_p_hat=served[0, 0], mu_s_hat=served[1, 0],
        pi_p0_hat=empty[0], pi_s0_hat=empty[1],
        lambda_pk_hat=arrival[0], lambda_sk_hat=arrival[1],
        mu_pk_hat=served[0, 1:], mu_sk_hat=served[1, 1:],
        d_p_total_hat=delay[0], d_s_total_hat=delay[1],
        ci=ci, seed=seed, slots=slots, collisions=collisions,
        nonempty_p=int(busy[0, 0]), nonempty_s=int(busy[1, 0]),
        nonempty_pk=busy[0, 1:].astype(np.int64),
        nonempty_sk=busy[1, 1:].astype(np.int64),
        both_idle_fraction=stats.idle.sum() / slots,
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
    check_integer("slots", slots, 1)
    check_integer("seed", seed, 0)
    check_integer("batches", batches, 1)
    check_integer("replications", replications, 1)
    runs = [run(cfg, params, traffic, sensing=sensing, mode=mode,
                slots=slots, seed=derive_replication_seed(seed, i),
                batches=batches)
            for i in range(replications)]
    if replications == 1:
        return runs[0]

    def merge(name):
        """The mean over the replications with a sample (NaN where none
        has one), and the half-width of their spread."""
        vals = np.array([getattr(r, name) for r in runs], dtype=float)
        sampled = ~np.isnan(vals)
        return (_per(np.where(sampled, vals, 0.0).sum(axis=0),
                     sampled.sum(axis=0)), _half_widths(vals))

    ci = {}
    scalars = {}
    for name, key in (("mu_p_hat", "mu_p"), ("mu_s_hat", "mu_s"),
                      ("pi_p0_hat", "pi_p0"), ("pi_s0_hat", "pi_s0"),
                      ("d_p_total_hat", "d_p_total"),
                      ("d_s_total_hat", "d_s_total")):
        est, hw = merge(name)
        scalars[name], ci[key] = float(est), float(hw)
    vectors = {}
    for name, key in (("lambda_pk_hat", "lambda_pk"),
                      ("lambda_sk_hat", "lambda_sk"),
                      ("mu_pk_hat", "mu_pk"), ("mu_sk_hat", "mu_sk")):
        vectors[name], ci[key] = merge(name)

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
