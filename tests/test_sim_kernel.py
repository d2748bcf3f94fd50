"""Kernel-level checks: the Lindley chunk kernel and the per-slot loop of
`support.slot_kernel` are the same function of the draws, trace rows
included, and the random-draw layout is stable across chunking.  The
loop counts through `support.oracle_tally`, the tally as first written,
one queue at a time, and the kernel through `sim._tally`, so the
lockstep checks cover the tally too."""

import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cogrelay.sim as sim
from cogrelay.channel import StrategyKind
from cogrelay.errors import UnstableQueueError
from cogrelay.network import OutageTable, SensingErrorParams, TrafficParams
from cogrelay.orders import OrderDistribution
from cogrelay.rates import StrategyParams, apply_sensing_errors, rate_report

from support import (estimates_equal, oracle_batch_ci, oracle_tally,
                     slot_kernel)

TABLE_ROWS12 = OutageTable(0.1, 0.2, [0.1, 0.02], [0.1, 0.1],
                           [0.1, 0.1], [0.1, 0.1])


def od2(f=1.0):
    v = np.full(2, f)
    return StrategyParams(StrategyKind.ORDERED, [0.5, 0.5], [0.5, 0.5], v, v,
                          OrderDistribution.uniform(2),
                          OrderDistribution.uniform(2))


_STRATEGIES = (StrategyKind.ORDERED, StrategyKind.RANDOM,
               StrategyKind.ROUND_ROBIN)
_MODES = (("true_queues", False), ("saturated_relays", False),
          ("saturated_relays", True), ("true_queues", True))


def _probs(rng, size):
    """Uniform probabilities with exact 0s and 1s mixed in."""
    v = rng.uniform(size=size)
    edge = rng.uniform(size=size)
    v[edge < 0.15] = 0.0
    v[edge > 0.85] = 1.0
    return v


def _simplex(rng, n):
    if rng.uniform() < 0.2:
        return np.eye(n)[rng.integers(n)]
    return rng.dirichlet(np.ones(n))


def _orders(rng, n):
    perms = list(itertools.permutations(range(1, n + 1)))
    picks = rng.choice(len(perms), size=min(len(perms), 4), replace=False)
    weights = _simplex(rng, picks.size)
    return OrderDistribution(n, {perms[i]: float(w)
                                 for i, w in zip(picks, weights)})


def random_case(rng, n, strategy, uniform=False):
    """A random outage table, strategy point and traffic over n relays;
    `uniform` puts equal weight on every rank order (od, the same draws)."""
    out = OutageTable(*_probs(rng, 2), *(_probs(rng, n) for _ in range(4)))
    omega = _simplex(rng, n) if n else np.zeros(0)
    extra = {}
    if strategy is StrategyKind.ORDERED and n:
        extra = dict(order_p=_orders(rng, n), order_s=_orders(rng, n))
    elif strategy is StrategyKind.RANDOM and n:
        extra = dict(beta=_simplex(rng, n))
    params = StrategyParams(strategy, omega, _probs(rng, n), _probs(rng, n),
                            _probs(rng, n), **extra)
    traffic = TrafficParams(*rng.uniform(0.0, 0.6, 2))
    sensing = SensingErrorParams(*(rng.uniform(0.0, 0.3, n)
                                   for _ in range(3)))
    if uniform:
        params = dataclasses.replace(params,
                                     order_p=OrderDistribution.uniform(n),
                                     order_s=OrderDistribution.uniform(n))
    return out, params, traffic, sensing


_LINDLEY_KERNEL = sim._lindley_kernel


def _lockstep(model, rng, start, count, queues, stats, trace):
    """Run the chunk kernel and the slot loop on one chunk's draws and
    require the same status, queues, stats and trace rows, and the same
    draws consumed; the slot loop's state is the one kept."""
    twin = copy.deepcopy(rng)
    fast_queues, fast_stats = queues.copy(), copy.deepcopy(stats)
    fast_trace = trace.copy()
    got = _LINDLEY_KERNEL(model, twin, start, count, fast_queues, fast_stats,
                          fast_trace)
    want = slot_kernel(model, rng, start, count, queues, stats, trace)
    assert got == want
    assert twin.bit_generator.state == rng.bit_generator.state
    assert np.array_equal(queues, fast_queues), "queues"
    for name, a, b in zip(stats._fields, stats, fast_stats):
        assert np.array_equal(a, b), name
    # both write the traced slots up to the one the guard stopped at
    assert np.array_equal(trace, fast_trace), "trace"
    return want


def _loop_and_fast(call):
    """`call()` with every chunk checked in lockstep (the loop's
    estimate), then as `run` does it (the vectorized estimate)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_lindley_kernel", _lockstep)
        loop = call()
    return loop, call()


_SATURATED = (1.0, 0.0)   # the loads of `compare`'s saturated runs


def _check_case(n, strategy, mode, errors, seed, slots, batches,
                uniform=False, lam=None):
    """`lam`, the two loads, replaces the random ones."""
    rng = np.random.default_rng(seed)
    out, params, traffic, sensing = random_case(rng, n, strategy, uniform)
    if lam is not None:
        traffic = TrafficParams(*lam)
    loop, fast = _loop_and_fast(lambda: sim.run(
        out, params, traffic, sensing=sensing if errors else None,
        mode=mode, slots=slots, seed=seed, batches=batches))
    assert estimates_equal(loop, fast)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("strategy", _STRATEGIES)
@pytest.mark.parametrize("mode,errors", _MODES)
def test_lindley_kernel_matches_loop(monkeypatch, n, strategy, mode, errors):
    # a small chunk so that a short run crosses several chunk and batch
    # boundaries; 2,503 slots in 7 batches leaves a longer last batch
    monkeypatch.setattr(sim, "CHUNK", 1000)
    seed = 100 * n + 10 * _STRATEGIES.index(strategy) + \
        _MODES.index((mode, errors))
    _check_case(n, strategy, mode, errors, seed, slots=2_503, batches=7)


@pytest.mark.parametrize("n", (0, 1, 3, 5))
@pytest.mark.parametrize("strategy", _STRATEGIES)
@pytest.mark.parametrize("mode,errors", _MODES)
@pytest.mark.parametrize("lam", (_SATURATED, (0.0, 1.0)),
                         ids=("primary_saturated", "secondary_saturated"))
def test_lindley_kernel_matches_loop_saturated_sources(monkeypatch, n,
                                                       strategy, mode,
                                                       errors, lam):
    # loads of exactly 0 and 1, whose arrival rows the kernel skips and
    # the slot loop draws and compares
    monkeypatch.setattr(sim, "CHUNK", 1000)
    seed = 9000 + 100 * n + 10 * _STRATEGIES.index(strategy) + \
        _MODES.index((mode, errors)) + 5 * lam.index(1.0)
    _check_case(n, strategy, mode, errors, seed, slots=2_503, batches=7,
                lam=lam)


@pytest.mark.parametrize("n,strategy,mode,errors,saturate", [
    (0, StrategyKind.ROUND_ROBIN, "true_queues", False, True),
    (1, StrategyKind.RANDOM, "saturated_relays", True, False),
    (2, StrategyKind.ORDERED, "true_queues", False, False),
    (3, StrategyKind.ORDERED, "saturated_relays", True, True),
    (5, StrategyKind.ROUND_ROBIN, "saturated_relays", False, False),
])
def test_lindley_kernel_matches_loop_across_chunks(n, strategy, mode, errors,
                                                   saturate):
    _check_case(n, strategy, mode, errors, seed=4000 + n,
                slots=sim.CHUNK + 7_777, batches=9,
                lam=_SATURATED if saturate else None)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 5), strategy=st.sampled_from(_STRATEGIES),
       mode=st.sampled_from(_MODES), saturate=st.booleans(),
       slots=st.integers(1, 1_500), batches=st.integers(1, 25),
       chunk=st.integers(1, 700), seed=st.integers(0, 2 ** 32 - 1))
def test_lindley_kernel_matches_loop_property(n, strategy, mode, saturate,
                                              slots, batches, chunk, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "CHUNK", chunk)
        _check_case(n, strategy, *mode, seed, slots, batches,
                    lam=_SATURATED if saturate else None)


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("mode,errors", _MODES)
def test_lindley_kernel_matches_loop_full_support(monkeypatch, n, mode,
                                                  errors):
    # od over every rank order, as the bundled configs run it (6 orders
    # at N = 3, 120 at N = 5), through the capture table
    monkeypatch.setattr(sim, "CHUNK", 1000)
    seed = 7000 + 10 * n + _MODES.index((mode, errors))
    _check_case(n, StrategyKind.ORDERED, mode, errors, seed, slots=2_503,
                batches=7, uniform=True)


def test_lindley_kernel_matches_loop_above_capture_cap():
    # 5,040 rank orders x 2**7 takes codes is past the table cap, so the
    # rank orders are gathered row by row
    assert sim._capture_table(np.array(list(itertools.permutations(
        range(7)))), 7) is None
    _check_case(7, StrategyKind.ORDERED, "true_queues", True, seed=7070,
                slots=400, batches=4, uniform=True)


def _first_in_order(order, orders, takes, deaf, r):
    """The od capture rule slot by slot, as the slot loop states it."""
    win = np.full(order.size, -1)
    for i, j in enumerate(order):
        for k in orders[j]:
            if takes[i, k] and not (deaf is not None and deaf[i]
                                    and k == r[i]):
                win[i] = k
                break
    return win


def _supports(n):
    """Rank-order supports of one, n and n! orders over n relays, and rd's
    and rr's n one-relay orders (one order over a single column at n = 0,
    as `sim.run` builds it)."""
    if n == 0:
        return [np.zeros((1, 1), dtype=np.int64)]
    perms = np.array(list(itertools.permutations(range(n))))
    return [perms[:1], perms[::max(1, perms.shape[0] // n)][:n], perms,
            np.arange(n)[:, None]]


@pytest.mark.parametrize("n", range(7))
def test_capture_table_matches_gather(n):
    rng = np.random.default_rng(50 + n)
    for orders in _supports(n):
        rows, width = 3_000, max(n, 1)
        table = sim._capture_table(orders, width)
        assert table is not None and table.dtype == np.int8
        order = sim._pick(np.cumsum(np.full(orders.shape[0], 1.0))[:-1],
                          rng.uniform(0, orders.shape[0], rows))
        takes = rng.uniform(size=(rows, width)) < rng.uniform()
        r = rng.integers(width, size=rows).astype(np.int8)
        for deaf in (None, rng.uniform(size=rows) < 0.5):
            want = _first_in_order(order, orders, takes, deaf, r)
            for t in (table, None):
                got = sim._captures(order, orders, t, takes, deaf, r)
                assert np.array_equal(got, want)


@pytest.mark.parametrize("orders", [
    np.array(list(itertools.permutations(range(7)))),   # past the cap
    np.arange(8)[None, ::-1],     # one order over eight relays: bit 7 set
    # rd's and rr's one-relay orders: past the cap at 13 relays, and past
    # what an int8 relay index holds at 200
    np.arange(13)[:, None],
    np.arange(200)[:, None],
])
def test_capture_beyond_six_relays(orders):
    rng = np.random.default_rng(len(orders))
    width = int(orders.max()) + 1
    table = sim._capture_table(orders, width)
    assert (table is None) == (orders.shape[0] << width > sim._CAPTURE_CAP)
    rows = 2_000
    order = rng.integers(orders.shape[0], size=rows).astype(
        np.min_scalar_type(-orders.shape[0] - 1))
    takes = rng.uniform(size=(rows, width)) < 0.3
    r = rng.integers(width, size=rows).astype(np.min_scalar_type(-width))
    deaf = rng.uniform(size=rows) < 0.5
    assert np.array_equal(sim._captures(order, orders, table, takes, deaf, r),
                          _first_in_order(order, orders, takes, deaf, r))


@pytest.mark.parametrize("size", (0, 1, 4, sim._PICK_SCAN,
                                  sim._PICK_SCAN + 1, 119, 719))
def test_pick_matches_searchsorted(size):
    rng = np.random.default_rng(size)
    # a distribution with zero weights, so that entries repeat
    weights = rng.uniform(size=size + 1) * (rng.uniform(size=size + 1) < 0.6)
    weights[0] += 1e-3
    cum = np.cumsum(weights / weights.sum())[:-1]
    u = np.concatenate((rng.uniform(size=5_000), cum, [0.0]))
    got = sim._pick(cum, u)
    assert got.dtype == np.min_scalar_type(-size - 1)
    assert np.array_equal(got, np.searchsorted(cum, u, side="right"))


@pytest.mark.parametrize("n", range(1, 14))
def test_below_matches_broadcast_compare(n):
    # slot counts below a row's, equal to it, and not a multiple of it,
    # against a row tiled over the run's slots or over the whole row
    rng = np.random.default_rng(n)
    p = _probs(rng, n)
    block = sim._ROW // n
    for count in (1, 7, block - 1, block, block + 1, 3 * block + 5, 10_000):
        u = rng.uniform(size=(count, n))
        # draws equal to their threshold, where `<` and `<=` differ
        tie = rng.uniform(size=u.shape) < 0.2
        u[tie] = np.broadcast_to(p, u.shape)[tie]
        for slots in (min(block, count), block):
            got = sim._below(u, np.tile(p, slots))
            assert got.shape == u.shape
            assert np.array_equal(got, u < p), (count, slots)


@pytest.mark.parametrize("k", (0, 1, 2, 999, sim.CHUNK + 1))
def test_advance_skips_what_random_draws(k):
    # the kernel skips unused rows of doubles with `advance`, one step of
    # the generator per double; another bit generator fails here first
    drawn, skipped = np.random.default_rng(5), np.random.default_rng(5)
    drawn.random(3)
    skipped.random(3)
    drawn.random(k)
    skipped.bit_generator.advance(k)
    assert drawn.bit_generator.state == skipped.bit_generator.state
    assert np.array_equal(drawn.random(100), skipped.random(100))


_HALF_WIDTH_VALUES = st.one_of(
    st.floats(0.0, 1.0), st.floats(-1e6, 1e6),
    st.sampled_from((math.nan, math.inf, -math.inf)))


@settings(max_examples=200, deadline=None)
@given(batches=st.integers(1, 40), entries=st.integers(1, 6), data=st.data())
def test_half_widths_match_batch_ci(batches, entries, data):
    # every entry's half-width bit for bit as `oracle_batch_ci` of its
    # column, with NaN and inf batches, all-NaN columns and a single batch
    size = batches * 2 * entries
    per_batch = np.array(data.draw(st.lists(
        _HALF_WIDTH_VALUES, min_size=size, max_size=size))).reshape(
            batches, 2, entries)
    blank = data.draw(st.lists(st.booleans(), min_size=entries,
                               max_size=entries))
    per_batch[:, 1, blank] = math.nan
    got = sim._half_widths(per_batch)
    assert got.shape == (2, entries)
    for c, j in itertools.product(range(2), range(entries)):
        want = oracle_batch_ci(per_batch[:, c, j])
        assert float(got[c, j]).hex() == want.hex(), (c, j)


@st.composite
def _tally_chunks(draw):
    """A chunk of a run: relay count, batches, run length, the chunk's
    first slot, its length, the slots it counts (fewer where the guard
    cut it), the queues' scale at its start, and a seed."""
    n = draw(st.integers(0, 6))
    batches = draw(st.integers(1, 29))
    slots = draw(st.integers(batches, 3_000))
    start = draw(st.integers(0, slots - 1))
    count = draw(st.integers(1, slots - start))
    m = draw(st.integers(1, count))
    queue = draw(st.sampled_from((0, 3, 1 << 24)))
    return n, batches, slots, start, count, m, queue, draw(
        st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(chunk=_tally_chunks())
# from inside the last batch to the end of its leftover slots, cut short
@example(chunk=(2, 10, 1_003, 950, 53, 40, 0, 1))
# from inside a batch over whole ones into a partial one, with queue
# lengths that int32 cannot sum
@example(chunk=(6, 29, 3_000, 150, 2_000, 2_000, 1 << 24, 2))
def test_tally_matches_oracle_tally(chunk):
    # the batch sums of `sim._tally` against the per-queue sums of the
    # tally as first written, bit for bit, on counters that already hold
    # counts; queues grow by at most a packet a slot, as in a run
    n, batches, slots, start, count, m, queue, seed = chunk
    rng = np.random.default_rng(seed)
    lengths = np.maximum(rng.integers(0, queue + 1, (2, 1 + n, 1)) + np.cumsum(
        rng.integers(-1, 2, (2, 1 + n, count)), axis=-1), 0).astype(np.int32)
    flags = rng.random((2, 1 + n, 3, count)) < rng.random()
    flags[:, :, 2] = lengths > 0
    events = rng.random((4, count)) < rng.random()

    def counters():
        fill = np.random.default_rng(seed)
        return sim._Stats(slots // batches, *(
            fill.integers(0, 1000, shape).astype(float)
            for shape in (batches, (batches, 2, 1 + n, 4), (batches, 2),
                          batches, batches)))

    got, want = counters(), counters()
    sim._tally(got, start, m, flags, lengths, events)
    oracle_tally(want, start, m, tuple(
        [(flags[c, j, 0], flags[c, j, 1], lengths[c, j])
         for j in range(1 + n)] for c in (0, 1)),
        events[:2], events[2], events[3])
    for name, a, b in zip(want._fields, want, got):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("lam_p,lam_s,queue", [(1.0, 0.0, "primary"),
                                               (0.0, 1.0, "secondary")])
def test_lindley_kernel_guard_matches_loop(monkeypatch, lam_p, lam_s, queue):
    # neither user is ever served, so the guard trips mid-chunk, inside
    # the traced slots
    monkeypatch.setattr(sim, "QUEUE_GUARD", 1_500)
    out = OutageTable(1.0, 1.0, np.ones(2), np.ones(2),
                      np.full(2, 0.5), np.full(2, 0.5))

    def call():
        with pytest.raises(UnstableQueueError) as err:
            sim.run(out, od2(), TrafficParams(lam_p, lam_s),
                    slots=5_000, seed=3, trace_limit=5_000)
        return err.value

    loop, fast = _loop_and_fast(call)
    assert loop.queue == fast.queue == queue
    assert str(loop) == str(fast)


@pytest.mark.parametrize("lam_p,lam_s,queue", [(1.0, 0.0, "primary"),
                                               (0.0, 1.0, "secondary")])
def test_coupled_guard_matches_loop(monkeypatch, lam_p, lam_s, queue):
    # true queues with sensing errors: the users reach the destination
    # only through the relays, which are never idle to forward, so they
    # fill up and the slots where a relay misses the user collide more
    # and more often until the guard trips mid-chunk, inside the traced
    # slots
    monkeypatch.setattr(sim, "QUEUE_GUARD", 1_500)
    out = OutageTable(1.0, 1.0, np.full(2, 0.9), np.full(2, 0.9),
                      np.full(2, 0.5), np.full(2, 0.5))
    se = SensingErrorParams([0.3, 0.5], [0.4, 0.2], [0.1, 0.05])

    def call():
        with pytest.raises(UnstableQueueError) as err:
            sim.run(out, od2(), TrafficParams(lam_p, lam_s), sensing=se,
                    slots=5_000, seed=3, trace_limit=5_000)
        return err.value

    loop, fast = _loop_and_fast(call)
    assert loop.queue == fast.queue == queue
    assert str(loop) == str(fast)


def test_coupled_fallback_matches_loop(monkeypatch):
    # relays that almost never hear a user: most busy slots hinge on a
    # relay queue, each pass fixes little, and the passes go over a chunk
    # window by window, each narrower than the rest of the chunk
    monkeypatch.setattr(sim, "CHUNK", 4_096)
    monkeypatch.setattr(sim, "_WINDOW", 256)
    se = SensingErrorParams([0.9, 0.9], [0.9, 0.9], [0.5, 0.5])
    widths = []   # slots each pass covers: every pass calls `_before` twice
    before = sim._before

    def spy(q, q0):
        widths.append(q.size)
        return before(q, q0)

    def call():
        return sim.run(TABLE_ROWS12, od2(), TrafficParams(0.1, 0.2),
                       sensing=se, slots=8_192, seed=0, batches=7)

    loop, _ = _loop_and_fast(call)
    monkeypatch.setattr(sim, "_before", spy)
    fast = call()
    assert estimates_equal(loop, fast)
    assert fast.collisions > 0
    passes = widths[::2]
    # the two chunks take many passes, some over no more than the least
    # window
    assert len(passes) > 20 and min(passes) <= 256


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), strategy=st.sampled_from(_STRATEGIES),
       p_md=st.lists(st.sampled_from((0.0, 0.5, 0.9, 0.99, 1.0))
                     | st.floats(0.0, 1.0), min_size=3, max_size=3),
       p_fa=st.sampled_from((0.0, 0.01, 0.5, 1.0)) | st.floats(0.0, 1.0),
       slots=st.integers(1, 1_500), batches=st.integers(1, 25),
       chunk=st.integers(1, 700), window=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_coupled_windows_match_loop_property(n, strategy, p_md, p_fa, slots,
                                             batches, chunk, window, seed):
    # true queues with sensing errors up to certain misses and false
    # alarms: small chunks and windows, so that a run spans chunks and
    # batches and a chunk's passes many windows
    rng = np.random.default_rng(seed)
    out, params, traffic, _ = random_case(rng, n, strategy)
    se = SensingErrorParams(*(np.full(n, v) for v in p_md[:2]),
                            np.minimum(rng.uniform(size=n) * 2 * p_fa, 1.0))
    se = dataclasses.replace(se, p_md_secondary=np.where(
        rng.uniform(size=n) < 0.5, p_md[2], se.p_md_secondary))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "CHUNK", chunk)
        mp.setattr(sim, "_WINDOW", window)
        loop, fast = _loop_and_fast(lambda: sim.run(
            out, params, traffic, sensing=se, slots=slots, seed=seed,
            batches=batches))
    assert estimates_equal(loop, fast)


def _check_trace(out, params, traffic, mode, errors, rng, seed):
    """A trace over two chunk boundaries that stops inside the third
    chunk, field by field against the loop's, and the estimates equal.
    Every relay misses the primary in both sensing intervals, so with
    true queues a primary slot whose relay queue is empty has that relay
    deaf to the packet.  Returns the kernel's trace."""
    n = params.n_relays
    se = SensingErrorParams(np.ones(n), rng.uniform(0.0, 1.0, n),
                            rng.uniform(0.0, 0.3, n))
    loop, fast = _loop_and_fast(lambda: sim.run(
        out, params, traffic, sensing=se if errors else None, mode=mode,
        slots=2_503, seed=seed, batches=7, trace_limit=2_222))
    assert len(loop.trace) == len(fast.trace) == 2_222
    for t, (want, got) in enumerate(zip(loop.trace, fast.trace)):
        for field in dataclasses.fields(sim.SlotOutcome):
            assert getattr(got, field.name) == getattr(want, field.name), \
                (t, field.name)
    assert estimates_equal(loop, fast)
    if n and errors and mode == "true_queues" and traffic.lambda_p > 0:
        assert any(slot.transmitter == "primary" and not slot.collision
                   for slot in fast.trace)
    return fast.trace


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("strategy", _STRATEGIES)
@pytest.mark.parametrize("mode,errors", _MODES)
def test_kernel_trace_matches_loop(monkeypatch, n, strategy, mode, errors):
    monkeypatch.setattr(sim, "CHUNK", 1000)
    seed = 9000 + 100 * n + 10 * _STRATEGIES.index(strategy) + \
        _MODES.index((mode, errors))
    rng = np.random.default_rng(seed)
    _check_trace(*random_case(rng, n, strategy)[:3], mode, errors, rng, seed)


@pytest.mark.parametrize("n", (8, 9, 13))
@pytest.mark.parametrize("strategy", _STRATEGIES[1:])
@pytest.mark.parametrize("mode,errors", _MODES)
def test_kernel_trace_matches_loop_many_relays(monkeypatch, n, strategy, mode,
                                               errors):
    # rd and rr take any relay count; relays 7 and up put their decoding
    # bit past what an int8 relay index holds.  At 13 relays the 13
    # one-relay orders times 2**13 takes codes are past the capture table
    # cap, so the assigned decoder's capture goes through `_first_taker`.
    # Weak direct links and strong relay links make NACKs that relays
    # decoded common
    assert (sim._capture_table(np.arange(n)[:, None], n) is None) == (n == 13)
    monkeypatch.setattr(sim, "CHUNK", 1000)
    seed = 9900 + 100 * n + 10 * _STRATEGIES.index(strategy) + \
        _MODES.index((mode, errors))
    rng = np.random.default_rng(seed)
    out = OutageTable(0.7, 0.7, *(rng.uniform(0.0, 0.3, n) for _ in range(4)))
    extra = dict(beta=_simplex(rng, n)) if strategy is StrategyKind.RANDOM \
        else {}
    params = StrategyParams(strategy, _simplex(rng, n), *(
        rng.uniform(0.3, 1.0, n) for _ in range(3)), **extra)
    traffic = TrafficParams(*rng.uniform(0.1, 0.4, 2))
    trace = _check_trace(out, params, traffic, mode, errors, rng, seed)
    # saturated relays that miss every primary packet send over it, so
    # there only the few secondary NACKs carry a mask
    if not (errors and mode == "saturated_relays"):
        assert any(slot.decode_mask >= 1 << 7 for slot in trace)


def test_traced_run_equals_untraced():
    rng = np.random.default_rng(77)
    out, params, traffic, sensing = random_case(rng, 3, StrategyKind.ORDERED)
    kw = dict(slots=3_000, seed=8, batches=11)
    for s, mode in ((None, "true_queues"), (sensing, "saturated_relays"),
                    (sensing, "true_queues")):
        traced = sim.run(out, params, traffic, sensing=s, mode=mode,
                         trace_limit=500, **kw)
        plain = sim.run(out, params, traffic, sensing=s, mode=mode, **kw)
        assert len(traced.trace) == 500 and plain.trace == ()
        assert estimates_equal(dataclasses.replace(traced, trace=()), plain)


def test_reproducible_across_chunk_boundary():
    # the draw layout is per chunk; results must not depend on whether a
    # run spans one chunk or several
    slots = sim.CHUNK + 1234
    a = sim.run(TABLE_ROWS12, od2(), TrafficParams(0.4, 0.2),
                slots=slots, seed=9)
    b = sim.run(TABLE_ROWS12, od2(), TrafficParams(0.4, 0.2),
                slots=slots, seed=9)
    assert estimates_equal(a, b)
    assert a.slots == slots


def test_ordered_strategy_sensing_error_convergence():
    # the saturated-relay bound holds for the ordered strategy too: the
    # primary-side chain is exact, the secondary side is exact once the
    # primary queue is removed from the picture
    params = od2(0.8)
    se = SensingErrorParams([0.12, 0.2], [0.15, 0.08], [0.06, 0.1])
    traffic = TrafficParams(0.1, 0.2)
    adjusted = apply_sensing_errors(
        rate_report(TABLE_ROWS12, params, traffic), params, se)
    est = sim.run(TABLE_ROWS12, params, traffic, sensing=se,
                  mode="saturated_relays", slots=10 ** 6, seed=21)
    assert abs(est.mu_p_hat - adjusted.mu_p) <= max(3 * est.ci["mu_p"], 0.003)
    assert np.allclose(est.lambda_pk_hat, adjusted.lambda_pk, atol=0.003)

    idle_traffic = TrafficParams(0.0, 0.3)
    adjusted0 = apply_sensing_errors(
        rate_report(TABLE_ROWS12, params, idle_traffic), params, se)
    est0 = sim.run(TABLE_ROWS12, params, idle_traffic, sensing=se,
                   mode="saturated_relays", slots=10 ** 6, seed=22)
    assert abs(est0.mu_s_hat - adjusted0.mu_s) <= max(3 * est0.ci["mu_s"], 0.003)
    assert np.allclose(est0.lambda_sk_hat, adjusted0.lambda_sk, atol=0.003)
