"""Golden values for the QoS search: the exact result of a few fixed
(configuration, strategy, budget, seed) searches.

Every float is pinned by `float.hex`: the best secondary rate, every
constraint residual (in the order the search reports them) and every
coordinate of the best point, next to the evaluation count, the restarts
used, budget exhaustion, the first violation and the certificate
`secondary_rate_ceiling` gave the search.  Any change to how a trial
point is built or scored shows here.  The values in `qos_golden.json`
were recorded once the perfect-sensing search solved the relay schedule
in closed form and the search returned at once where the certificate
rules every point out; again once the certificate took the sensing
errors, which changed only the sensing-error ceilings and the searches
the certificate now rules out; again once od's first-rank weights
above the dense-order limit were divided by their sum, as the weights
below it are, which changed only `six_relays_od_first_rank`; again
once the relay-count ladder stopped carrying each failed count's point
into the next count's search, which emptied the `extra_starts` lists of
`min_relays_three_relays_od_sensing` and left every result as it was;
and again once the certificate capped each capture total by the
strategy and a search stopped at it, which moved the point, the
evaluations, the restarts and the ceiling of `fig3_rd_0.3` and
`table1_rd_0.3` (the latter no longer exhausts its budget), with
`best_mu_s` unchanged, and the ceilings alone of `fig3_rr_0.3` and
`table1_rr_0.3`; and again once the rate chain took the sensing errors
as factors, instead of recovering the captures and the secondary's
bracket from the perfect-sensing rates by division, which moved only
residuals of `fig11_od_0.3_sensing` and
`min_relays_three_relays_od_sensing`, by a few units in the last place.
A change that means to alter search results must say so and record them
again with

    PYTHONPATH=src python tests/test_qos_golden.py
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cogrelay.qos as qos
from cogrelay.channel import StrategyKind
from cogrelay.errors import NoFeasibleRelayCount
from cogrelay.experiments import load_spec
from cogrelay.network import (NetworkConfig, OutageTable, SensingErrorParams,
                              TrafficParams)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_PATH = Path(__file__).with_name("qos_golden.json")

OD, RD, RR = (StrategyKind.ORDERED, StrategyKind.RANDOM,
              StrategyKind.ROUND_ROBIN)

# six relays: above the dense-order limit, so ordered acceptance is
# searched over the six first-rank orders, rank weights divided by their
# sum as at every relay count
SIX_RELAYS = OutageTable(0.3, 0.4,
                         [0.12, 0.3, 0.05, 0.4, 0.2, 0.25],
                         [0.2, 0.1, 0.35, 0.05, 0.3, 0.15],
                         [0.1, 0.2, 0.05, 0.15, 0.1, 0.3],
                         [0.2, 0.05, 0.1, 0.1, 0.25, 0.15])


def _hex(x) -> str:
    return float.hex(float(x))


def _point(params) -> dict | None:
    if params is None:
        return None
    out = {name: [_hex(v) for v in getattr(params, name).tolist()]
           for name in ("omega", "alpha", "f_p", "f_s")}
    if params.beta is not None:
        out["beta"] = [_hex(v) for v in params.beta.tolist()]
    for name in ("order_p", "order_s"):
        dist = getattr(params, name)
        if dist is not None:
            out[name] = [[list(perm), _hex(w)]
                         for perm, w in dist.entries.items()]
    return out


def digest(result: qos.OptResult) -> dict:
    return {
        "best_mu_s": _hex(result.best_mu_s),
        "feasible": bool(result.feasible),
        "residuals": [[key, _hex(v)]
                      for key, v in result.constraint_residuals.items()],
        "best_point": _point(result.best_params),
        "evaluations": int(result.evaluations),
        "restarts_used": int(result.restarts_used),
        "budget_exhausted": bool(result.budget_exhausted),
        "first_violation": result.first_violation,
        "ceiling": None if result.ceiling is None else _hex(result.ceiling),
    }


def _spec_problem(name, strategy, lambda_p, relays=None):
    """(network, strategy, target, seed) of a bundled spec at one load,
    cut to its first `relays` relays when given."""
    spec = load_spec(CONFIGS / f"{name}.cfg")
    network = spec.network_at(lambda_p)
    if relays is not None:
        network = network.take(relays)
    target = qos.QosSpec(spec.qos.d_p_max, spec.qos.d_s_max, network.traffic)
    return network, strategy, target, spec.sim.seed


def _spec_search(problem, budget, restarts):
    network, strategy, target, seed = _spec_problem(*problem)
    return qos.maximize_secondary_throughput(
        network, strategy, target, budget=budget, restarts=restarts,
        seed=seed)


def _six_relay_od():
    network = NetworkConfig(SIX_RELAYS, TrafficParams(0.1, 0.1))
    return qos.maximize_secondary_throughput(
        network, OD, qos.QosSpec(3.0, 6.0, network.traffic), budget=2_000,
        restarts=2, seed=11)


def _ladder(network, strategy, target, n_max, budget, restarts, seed):
    """A minimum-relay ladder: the count it returns and, for every search
    it runs, the result.  Each record keeps an `extra_starts` list, empty:
    every count starts from the search's own starts."""
    searches = []
    search = qos.maximize_secondary_throughput

    def recorded(*args, **kwargs):
        result = search(*args, **kwargs)
        searches.append({"extra_starts": [], "result": digest(result)})
        return result

    qos.maximize_secondary_throughput = recorded
    try:
        count = qos.minimize_relay_count(network, strategy, target, n_max,
                                         budget=budget, restarts=restarts,
                                         seed=seed)
    except NoFeasibleRelayCount:
        count = None
    finally:
        qos.maximize_secondary_throughput = search
    return {"min_relays": count, "searches": searches}


def _min_relays_fig3_rd():
    """The rd ladder on fig3 at lambda_p 0.4; the certificate rules out
    zero relays, so one search runs, at one relay."""
    spec = load_spec(CONFIGS / "fig3_od_n2.cfg")
    network = spec.network_at(0.4)
    target = qos.QosSpec(spec.qos.d_p_max, spec.qos.d_s_max, network.traffic)
    return _ladder(network, RD, target, 2, 700, 2, spec.sim.seed)


def _min_relays_fig11_od_sensing():
    """The od ladder on fig11 with sensing errors at lambda_p 0.72 and
    ceilings (6, 14): with the sensing errors the certificate rules out
    every count, so no search runs."""
    spec = load_spec(CONFIGS / "fig11_minrelays_n3.cfg")
    traffic = TrafficParams(0.72, 0.2)
    network = replace(spec.network, traffic=traffic)
    return _ladder(network, OD, qos.QosSpec(6.0, 14.0, traffic), 3, 300, 1,
                   11)


# three relays with sensing errors: the certificate rules out zero relays
# only, and the ladder searches the other three counts
THREE_RELAYS = OutageTable(0.33, 0.52, [0.27, 0.48, 0.56], [0.15, 0.06, 0.29],
                           [0.08, 0.18, 0.38], [0.2, 0.18, 0.26])
THREE_RELAY_ERRORS = SensingErrorParams([0.05, 0.19, 0.01],
                                        [0.06, 0.07, 0.12],
                                        [0.0, 0.05, 0.09])


def _min_relays_three_relays_sensing():
    """The od ladder on three relays with sensing errors at lambda_p 0.36
    and ceilings (9.2, 5.2): zero relays are ruled out, and the searches
    at one, two and three relays fail."""
    traffic = TrafficParams(0.36, 0.16)
    network = NetworkConfig(THREE_RELAYS, traffic, THREE_RELAY_ERRORS)
    return _ladder(network, OD, qos.QosSpec(9.2, 5.2, traffic), 3, 300, 1,
                   11)


# the single searches on bundled specs: (spec, strategy, lambda_p[,
# relays]), budget and restarts
SPEC_SEARCHES = {
    **{f"fig3_{kind.value}_{lam}": (("fig3_od_n2", kind, lam), 2_000, 3)
       for kind in (OD, RD, RR) for lam in (0.3, 0.5)},
    **{f"table1_{kind.value}_0.3": (("table1_n5", kind, 0.3), 2_000, 2)
       for kind in (RD, RR)},
    "fig11_od_0.3_sensing": (("fig11_minrelays_n3", OD, 0.3), 2_000, 2),
    # one relay with sensing errors at lambda_p 0.74: the certificate
    # rules out every stable point
    "fig11_od_0.74_sensing_one_relay": (
        ("fig11_minrelays_n3", OD, 0.74, 1), 2_000, 2),
}

CASES = {
    **{case: (lambda args=args: digest(_spec_search(*args)))
       for case, args in SPEC_SEARCHES.items()},
    "six_relays_od_first_rank": lambda: digest(_six_relay_od()),
    "min_relays_fig3_rd_0.4": _min_relays_fig3_rd,
    "min_relays_fig11_od_0.72_sensing": _min_relays_fig11_od_sensing,
    "min_relays_three_relays_od_sensing": _min_relays_three_relays_sensing,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_search_matches_golden(case, golden):
    assert CASES[case]() == golden[case]


def test_cases_cover_both_verdicts(golden):
    verdicts = {golden[c]["feasible"] for c in CASES if "feasible" in golden[c]}
    assert verdicts == {True, False}


def _results(record: dict):
    """Every search result in a golden record."""
    if "searches" in record:
        return [search["result"] for search in record["searches"]]
    return [record]


def test_ceiling_bounds_every_result(golden):
    results = [r for c in CASES for r in _results(golden[c])]
    for r in results:
        if r["ceiling"] is not None:
            assert float.fromhex(r["best_mu_s"]) <= float.fromhex(r["ceiling"])
    # a ladder searches only the counts the certificate leaves open
    assert all(r["ceiling"] is not None for c in CASES
               if "searches" in golden[c] for r in _results(golden[c]))
    # a search the certificate rules out names stability where the
    # primary rate bound or the certificate without delay ceilings rules
    # out every point, delay elsewhere
    labels = []
    for case, (problem, _, _) in SPEC_SEARCHES.items():
        r = golden[case]
        if r["ceiling"] is not None:
            continue
        network, strategy, target, _ = _spec_problem(*problem)
        free = qos.secondary_rate_ceiling(
            network.outages(strategy),
            qos.QosSpec(math.inf, math.inf, target.traffic), network.sensing,
            strategy=strategy)
        residuals = dict(r["residuals"])
        unstable = (free is None
                    or float.fromhex(residuals["stability_p"]) <= 0.0)
        assert not r["feasible"] and r["evaluations"] == 0
        assert r["first_violation"] == ("stability" if unstable else "delay")
        labels.append(r["first_violation"])
    assert set(labels) == {"stability", "delay"}


def _count_calls(monkeypatch, classes, method) -> list:
    """Count the calls of `method` on `classes` (classes or modules), in
    a one-element list; the arguments are passed on as they are."""
    calls = [0]
    for cls in classes:
        def counted(*args, wrapped=cls.__dict__[method], **kwargs):
            calls[0] += 1
            return wrapped(*args, **kwargs)
        monkeypatch.setattr(cls, method, counted)
    return calls


def _count_scores(monkeypatch) -> list:
    """Count the trial points the scorers score (a one-element list),
    with the incumbent bound the search passes forwarded."""
    return _count_calls(monkeypatch, (qos._Evaluator, qos._CaptureScorer),
                        "score")


@pytest.mark.parametrize("case", ["fig3_od_0.3", "fig3_rd_0.3", "fig3_rr_0.3",
                                  "fig11_od_0.3_sensing"])
def test_memo_scores_fewer_points_than_evaluations(case, golden, monkeypatch):
    """Trial points seen before are looked up, not scored again, and the
    result is the golden one."""
    calls = _count_scores(monkeypatch)
    result = _spec_search(*SPEC_SEARCHES[case])
    assert digest(result) == golden[case]
    assert 0 < calls[0] < result.evaluations


@pytest.mark.parametrize("case", ["fig3_od_0.3", "fig3_rd_0.3", "fig3_rr_0.3"])
def test_incumbent_bound_skips_solves(case, golden, monkeypatch):
    """Trial points that cannot beat a feasible incumbent are scored
    without the water-filling, and the result is the golden one."""
    scores = _count_scores(monkeypatch)
    solves = _count_calls(monkeypatch, (qos._CaptureScorer,), "_solve")
    result = _spec_search(*SPEC_SEARCHES[case])
    assert digest(result) == golden[case]
    assert 0 < solves[0] < scores[0]


@pytest.mark.parametrize("case", ["fig11_od_0.3_sensing",
                                  "min_relays_three_relays_od_sensing"])
def test_sensing_search_builds_only_its_result(case, golden, monkeypatch):
    """Under sensing errors, with relays, a search scores its trial points
    from their floats: it builds parameters (`_Space.to_params`) and
    calls `evaluate` once each, for the point it reports, however many
    points it scores; and the result is the golden one."""
    evaluations = _count_calls(monkeypatch, (qos,), "evaluate")
    built = _count_calls(monkeypatch, (qos._Space,), "to_params")
    scores = _count_scores(monkeypatch)
    assert CASES[case]() == golden[case]
    searches = len(golden[case].get("searches", [case]))
    assert evaluations[0] == built[0] == searches < scores[0]


def test_no_memo_survives_a_search(monkeypatch):
    """Two identical searches score the same number of points.  The
    load, 0.27, is one no other test searches, so the first search
    starts from a state no earlier search has left."""
    calls = _count_scores(monkeypatch)
    scored = []
    for _ in range(2):
        before = calls[0]
        _spec_search(("fig3_od_n2", OD, 0.27), 1_000, 2)
        scored.append(calls[0] - before)
    assert scored[0] == scored[1] > 0


if __name__ == "__main__":
    record = {case: CASES[case]() for case in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(record)} cases to {GOLDEN_PATH}\n")
