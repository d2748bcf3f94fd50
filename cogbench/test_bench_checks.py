"""Each correctness check of the benchmark passes good outputs and reports
bad ones as a failed check; the tracer's self times subtract children
once."""

import math

import numpy as np

import bench_checks
from bench_trace import Tracer
from cogrelay.channel import StrategyKind
from cogrelay.network import OutageTable, TrafficParams
from cogrelay.orders import OrderDistribution
from cogrelay.rates import StrategyParams

FIG3 = OutageTable(0.1, 0.2, [0.1, 0.02], [0.1, 0.1], [0.1, 0.1], [0.1, 0.1])
TRAFFIC = TrafficParams(0.3, 0.2)
PARAMS = StrategyParams(StrategyKind.ORDERED, [0.5, 0.5], [0.5, 0.5],
                        [1.0, 1.0], [1.0, 1.0],
                        order_p=OrderDistribution.uniform(2),
                        order_s=OrderDistribution.uniform(2))


def compare_point(shift=0.0, drop=None):
    expected = bench_checks.oracle_quantities(FIG3, PARAMS, TRAFFIC)
    comparisons = [(q, v + (shift if q == "mu_s" else 0.0), 0.001)
                   for q, v in expected.items() if q != drop]
    return ("od lambda_p=0.3", expected, comparisons)


def test_compare_passes_oracle_values():
    assert bench_checks.check_compare([compare_point()]) == []


def test_compare_reports_a_rate_off_the_oracle():
    failures = bench_checks.check_compare([compare_point(shift=0.02)])
    assert len(failures) == 1 and "mu_s" in failures[0]


def test_compare_reports_a_missing_quantity():
    failures = bench_checks.check_compare([compare_point(drop="pi_s0")])
    assert failures == ["od lambda_p=0.3: pi_s0 was not compared"]


def optimize_point(**changes):
    scored = bench_checks.oracle_rescore(FIG3, PARAMS, TRAFFIC)
    point = {"label": "od lambda_p=0.3", "outages": FIG3,
             "traffic": TRAFFIC, "d_p_max": scored["d_p"] * 1.1,
             "d_s_max": scored["d_s"] * 1.1, "ceiling": 0.7,
             "feasible": True, "best_mu_s": scored["mu_s"],
             "best_params": PARAMS, "first_violation": None}
    point.update(changes)
    return point, scored


def test_optimize_passes_a_point_within_its_ceilings():
    point, scored = optimize_point()
    assert math.isfinite(scored["d_p"]) and math.isfinite(scored["d_s"])
    assert bench_checks.check_optimize([point]) == []


def test_optimize_reports_a_delay_over_its_ceiling():
    _, scored = optimize_point()
    point, _ = optimize_point(d_p_max=scored["d_p"] * 0.9)
    failures = bench_checks.check_optimize([point])
    assert len(failures) == 1 and "d_p re-scores" in failures[0]


def test_optimize_reports_a_rate_above_the_relaxation_bound():
    _, scored = optimize_point()
    point, _ = optimize_point(ceiling=scored["mu_s"] - 0.01)
    failures = bench_checks.check_optimize([point])
    assert len(failures) == 1 and "exceeds the bound" in failures[0]


def test_optimize_reports_feasible_where_no_point_meets_the_ceilings():
    point, _ = optimize_point(ceiling=None)
    assert len(bench_checks.check_optimize([point])) == 1
    point, _ = optimize_point(ceiling=None, feasible=False,
                              first_violation="delay")
    assert bench_checks.check_optimize([point]) == []


def sensing_point(mu_s):
    return {"label": "simulate od lambda_p=0.1",
            "mu_p": 0.99, "ci_mu_p": 0.001, "lower_mu_p": 0.98,
            "upper_mu_p": 0.995,
            "mu_s": mu_s, "ci_mu_s": 0.001, "lower_mu_s": 0.85,
            "upper_mu_s": 0.9}


def test_sensing_simulation_between_its_bounds():
    assert bench_checks.check_sensing_sim([sensing_point(0.87)]) == []
    failures = bench_checks.check_sensing_sim([sensing_point(0.83)])
    assert len(failures) == 1 and "mu_s" in failures[0]


def ladder(perfect, sensing):
    counts = {}
    for i, (a, b) in enumerate(zip(perfect, sensing)):
        counts[(0.74, i, False)] = a
        counts[(0.74, i, True)] = b
    return counts


def test_ladder_passes_monotone_counts():
    relaxed = {(0.74, i): 0 for i in range(3)}
    counts = ladder([4, 1, 0], [4, 4, 0])
    assert bench_checks.check_ladder(counts, relaxed, 3) == []


def test_ladder_reports_more_relays_under_looser_ceilings():
    relaxed = {(0.74, i): 0 for i in range(3)}
    failures = bench_checks.check_ladder(ladder([1, 2, 0], [4, 4, 0]),
                                         relaxed, 3)
    assert len(failures) == 1 and "rise" in failures[0]


def test_ladder_reports_fewer_relays_with_sensing_errors():
    relaxed = {(0.74, i): 0 for i in range(3)}
    failures = bench_checks.check_ladder(ladder([4, 1, 0], [4, 0, 0]),
                                         relaxed, 3)
    assert len(failures) == 1 and "sensing errors" in failures[0]


def test_ladder_reports_a_count_below_the_relaxation():
    relaxed = {(0.74, 0): 4, (0.74, 1): 2, (0.74, 2): 0}
    failures = bench_checks.check_ladder(ladder([4, 1, 0], [4, 4, 0]),
                                         relaxed, 3)
    assert len(failures) == 1 and "below the relaxation" in failures[0]


def test_rounds_must_repeat_bit_for_bit():
    first = [("od", 0.1, math.nan, 0.5)]
    assert bench_checks.first_difference(first, [("od", 0.1, math.nan,
                                                  0.5)]) is None
    assert bench_checks.first_difference(first, [("od", 0.1, math.nan,
                                                  0.5000001)]) is not None


def test_search_self_time_subtracts_evaluation_spans_once():
    tracer = Tracer()
    spans = [  # (name, parent, start, end)
        ("qos.maximize", -1, 0, 100),
        ("rates.rate_report", 0, 10, 30),
        ("orders.order_distribution", 0, 40, 50),
        ("rates.strategy_params", 0, 60, 90),
        ("orders.order_distribution", 3, 65, 70),
        ("rates.rate_report", -1, 200, 250),     # outside any search
    ]
    for name, parent, start, end in spans:
        tracer.name_id.append(tracer._name(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    assert math.isclose(tracer.evaluation_time_under_searches(), 60e-9)
    own = tracer.self_seconds()
    assert np.allclose(own * 1e9, [40, 20, 10, 25, 5, 50])
    assert tracer.summary()["rates.rate_report"]["calls"] == 2
