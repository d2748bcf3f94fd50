"""Golden values for the simulator: the exact estimate of a few fixed
(configuration, seed) runs, untraced and traced, and the runaway guard.

Every float is pinned by `float.hex`, so any change to what a run draws,
counts or sums shows here, even one that the lockstep oracle of
`tests/support.py` would make alike.
The values in `sim_golden.json` were recorded from the simulator before
its batch statistics moved to the per-queue layout, and the table1 rd and
rr, fig11 rd and traced rr cases before rd and rr captured through
one-relay rank orders; a change that means to alter simulator output
must say so and record them again.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import cogrelay.sim as sim
from cogrelay.channel import StrategyKind
from cogrelay.errors import UnstableQueueError
from cogrelay.experiments import load_spec
from cogrelay.network import OutageTable, SensingErrorParams, TrafficParams
from cogrelay.orders import OrderDistribution
from cogrelay.rates import StrategyParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = json.loads(Path(__file__).with_name("sim_golden.json").read_text())

TABLE_ROWS12 = OutageTable(0.1, 0.2, [0.1, 0.02], [0.1, 0.1],
                           [0.1, 0.1], [0.1, 0.1])


def od2(f_s=(1.0, 1.0)):
    return StrategyParams(StrategyKind.ORDERED, [0.5, 0.5], [0.5, 0.5],
                          np.ones(2), np.asarray(f_s),
                          OrderDistribution.uniform(2),
                          OrderDistribution.uniform(2))


def _pin(x):
    """A JSON form of one estimate value that changes with any bit of it."""
    if isinstance(x, np.ndarray):
        return [_pin(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {key: _pin(v) for key, v in sorted(x.items())}
    if isinstance(x, (float, np.floating)):
        return float.hex(float(x))
    if isinstance(x, (int, np.integer)):
        return int(x)
    raise TypeError(f"no golden form for {type(x).__name__}")


def digest(est: sim.SimEstimate) -> dict:
    out = {}
    for field in dataclasses.fields(sim.SimEstimate):
        x = getattr(est, field.name)
        if field.name == "trace":
            text = "\n".join(repr(slot) for slot in x)
            out["trace"] = {"slots": len(x), "sha256":
                            hashlib.sha256(text.encode()).hexdigest()}
        else:
            out[field.name] = _pin(x)
    return out


def _spec_case(name, strategy):
    spec = load_spec(CONFIGS / f"{name}.cfg")
    return spec.network, spec.params_for(strategy)


def _n0_rr():
    out = OutageTable(0.3, 0.2, np.zeros(0), np.zeros(0), np.zeros(0),
                      np.zeros(0))
    params = StrategyParams(StrategyKind.ROUND_ROBIN, np.zeros(0),
                            np.zeros(0), np.zeros(0), np.zeros(0))
    return sim.run(out, params, TrafficParams(0.3, 0.2), slots=70_000,
                   seed=5, batches=20)


def _table_rows12_od2():
    return sim.run(TABLE_ROWS12, od2(), TrafficParams(0.4, 0.2),
                   slots=70_000, seed=9, batches=7)


def _table_rows12_od2_no_secondary_relaying():
    # the secondary relay queues are never nonempty: NaN service rates
    return sim.run(TABLE_ROWS12, od2(f_s=(0.0, 0.0)), TrafficParams(0.3, 0.2),
                   slots=20_000, seed=10, batches=20)


def _fig11_od3_errors_true_queues():
    net, params = _spec_case("fig11_minrelays_n3", StrategyKind.ORDERED)
    return sim.run(net, params, TrafficParams(0.3, 0.2), slots=70_000,
                   seed=31004, batches=20)


def _table1_rd5_errors_saturated():
    net, params = _spec_case("table1_n5", StrategyKind.RANDOM)
    sensing = SensingErrorParams(np.full(5, 0.1), np.full(5, 0.08),
                                 np.full(5, 0.05))
    return sim.run(net, params, TrafficParams(0.3, 0.2), sensing=sensing,
                   mode="saturated_relays", slots=70_000, seed=20240,
                   batches=20)


def _fig11_od3_traced():
    net, params = _spec_case("fig11_minrelays_n3", StrategyKind.ORDERED)
    return sim.run(net, params, TrafficParams(0.3, 0.2),
                   mode="saturated_relays", slots=5_000, seed=17, batches=9,
                   trace_limit=500)


def _table1_rd5_true_queues():
    # an uneven assignment, so that rd does not draw as rr does
    net, params = _spec_case("table1_n5", StrategyKind.RANDOM)
    params = dataclasses.replace(params, beta=np.array([0.4, 0.1, 0.2, 0.05,
                                                        0.25]))
    return sim.run(net, params, TrafficParams(0.3, 0.2), slots=70_000,
                   seed=20241, batches=20)


def _table1_rr5_true_queues():
    net, params = _spec_case("table1_n5", StrategyKind.ROUND_ROBIN)
    return sim.run(net, params, TrafficParams(0.3, 0.2), slots=70_000,
                   seed=20242, batches=20)


def _fig11_rd3_errors_true_queues():
    # rd over fig11's relays, whose sensing errors leave the assigned
    # decoder deaf when it is the scheduled relay and missed the user
    net, params = _spec_case("fig11_minrelays_n3", StrategyKind.RANDOM)
    return sim.run(net, params, TrafficParams(0.3, 0.2), slots=70_000,
                   seed=31005, batches=20)


def _fig11_rr3_errors_traced():
    net, params = _spec_case("fig11_minrelays_n3", StrategyKind.ROUND_ROBIN)
    return sim.run(net, params, TrafficParams(0.3, 0.2), slots=5_000,
                   seed=18, batches=9, trace_limit=500)


CASES = {
    "n0_rr": _n0_rr,
    "table_rows12_od2_true_queues": _table_rows12_od2,
    "table_rows12_od2_no_secondary_relaying":
        _table_rows12_od2_no_secondary_relaying,
    "fig11_od3_errors_true_queues": _fig11_od3_errors_true_queues,
    "table1_rd5_errors_saturated": _table1_rd5_errors_saturated,
    "fig11_od3_traced_500": _fig11_od3_traced,
    "table1_rd5_true_queues": _table1_rd5_true_queues,
    "table1_rr5_true_queues": _table1_rr5_true_queues,
    "fig11_rd3_errors_true_queues": _fig11_rd3_errors_true_queues,
    "fig11_rr3_errors_traced_500": _fig11_rr3_errors_traced,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_estimate_matches_golden(case):
    got = digest(CASES[case]())
    want = GOLDEN["estimates"][case]
    for name in want:
        assert got[name] == want[name], name
    assert set(got) == set(want)


def guard_messages() -> dict:
    """The runaway guard's message for each user queue, on an untraced
    and on a traced run of the simulator kernel, at a guard of 1,500
    packets."""
    out = OutageTable(1.0, 1.0, np.ones(2), np.ones(2),
                      np.full(2, 0.5), np.full(2, 0.5))
    messages = {}
    for lam_p, lam_s in ((1.0, 0.0), (0.0, 1.0)):
        for trace_limit in (0, 10):
            try:
                sim.run(out, od2(), TrafficParams(lam_p, lam_s), slots=5_000,
                        seed=3, trace_limit=trace_limit)
            except UnstableQueueError as err:
                key = f"{lam_p}/{lam_s}/trace={trace_limit}"
                messages[key] = [err.queue, str(err)]
    return messages


def test_guard_message_matches_golden(monkeypatch):
    monkeypatch.setattr(sim, "QUEUE_GUARD", 1_500)
    assert guard_messages() == GOLDEN["guard"]
