import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogrelay.rates as rates
from cogrelay.channel import StrategyKind
from cogrelay.cli import main
from cogrelay.errors import ConfigError, SpecParseError
from cogrelay.experiments import (CSV_COLUMNS, MAX_SWEEP_POINTS, Comparison,
                                  ComparisonTable, ExperimentSpec,
                                  SimSettings, compare_analytic_sim, load_spec,
                                  run_min_relays, run_optimize, run_sweep,
                                  write_rows)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

GOOD_SPEC = """
[experiment]
scenario = unit
strategies = od, rd
sweep = lambda_p
sweep_start = 0.1
sweep_stop = 0.2
sweep_step = 0.1

[network]
pu_pd = 0.1
su_sd = 0.2
pu_relay = 0.1, 0.02
su_relay = 0.1, 0.1
relay_pd = 0.1, 0.1
relay_sd = 0.1, 0.1

[strategy]
omega = 0.5, 0.5
alpha = 0.5, 0.5
f_p = 1, 1
f_s = 1, 1
beta = 0.5, 0.5
perm_p = 1,2 : 0.7
perm_p = 2,1 : 0.3
perm_s = 1,2 : 1.0

[traffic]
lambda_p = 0.1
lambda_s = 0.2

[qos]
d_p_max = 5
d_s_max = 10

[sim]
slots = 30000
replications = 1
seed = 7
"""


def write_spec(tmp_path, text, name="spec.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadSpec:
    def test_good_spec(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC))
        assert spec.scenario == "unit"
        assert spec.strategies == [StrategyKind.ORDERED, StrategyKind.RANDOM]
        assert spec.sweep_values == [0.1, 0.2]
        assert spec.network.n_relays == 2
        params = spec.params_for(StrategyKind.ORDERED)
        assert params.order_p.entries[(1, 2)] == pytest.approx(0.7)

    def test_bundled_configs_load(self):
        for name in ("table1_n5.cfg", "fig3_od_n2.cfg", "fig6_nodirect_n2.cfg",
                     "fig10_feedback_n2.cfg", "fig11_minrelays_n3.cfg"):
            spec = load_spec(CONFIG_DIR / name)
            for kind in spec.strategies:
                spec.params_for(kind)

    def test_table1_padding(self):
        spec = load_spec(CONFIG_DIR / "table1_n5.cfg")
        assert spec.network.n_relays == 5
        assert spec.network.outages(StrategyKind.RANDOM).pu_relay.tolist() == \
            [0.1, 0.02, 0.2, 0.1, 0.01]

    def test_sensing_errors_parsed(self):
        spec = load_spec(CONFIG_DIR / "fig11_minrelays_n3.cfg")
        assert spec.network.sensing is not None
        assert spec.network.sensing.p_false_alarm.tolist() == [0.05, 0.04, 0.03]

    def test_empty_file_is_parse_error(self, tmp_path):
        with pytest.raises(SpecParseError):
            load_spec(write_spec(tmp_path, ""))

    def test_key_outside_section(self, tmp_path):
        with pytest.raises(SpecParseError) as err:
            load_spec(write_spec(tmp_path, "foo = 1\n"))
        assert err.value.line == 1

    def test_bad_number_reports_line(self, tmp_path):
        text = GOOD_SPEC.replace("lambda_p = 0.1", "lambda_p = abc")
        with pytest.raises(SpecParseError) as err:
            load_spec(write_spec(tmp_path, text))
        assert err.value.line is not None

    def test_duplicate_scalar_key_rejected(self, tmp_path):
        text = GOOD_SPEC.replace("[qos]", "lambda_p = 0.3\n[qos]")
        with pytest.raises(SpecParseError):
            load_spec(write_spec(tmp_path, text))

    def test_omega_validation_names_field(self, tmp_path):
        text = GOOD_SPEC.replace("omega = 0.5, 0.5", "omega = 0.5, 0.4")
        with pytest.raises(ConfigError) as err:
            load_spec(write_spec(tmp_path, text))
        assert "omega" in str(err.value)

    @pytest.mark.parametrize("old, new", [
        ("sweep_step = 0.1", "sweep_step = nan"),
        ("sweep_start = 0.1", "sweep_start = nan"),
        ("sweep_stop = 0.2", "sweep_stop = inf"),
        ("sweep_start = 0.1", "sweep_start = -inf"),
    ])
    def test_sweep_bounds_rejected(self, tmp_path, old, new):
        with pytest.raises(SpecParseError):
            load_spec(write_spec(tmp_path, GOOD_SPEC.replace(old, new)))

    @pytest.mark.parametrize("bounds", [
        "sweep_start = 0.1\nsweep_stop = 0.1\nsweep_step = 1e-20",
        "sweep_start = 1e10\nsweep_stop = 1e10\nsweep_step = 1e-9",
        "sweep_start = 0.1\nsweep_stop = 0.5\nsweep_step = 1e-12",
        "sweep_start = 0.0\nsweep_stop = 1.0\nsweep_step = 1e-4",
        "sweep_start = -1e308\nsweep_stop = 1e308\nsweep_step = 1e300",
    ])
    def test_sweep_too_fine_rejected(self, tmp_path, bounds):
        # a step below the float resolution of the value never ends the
        # sweep; a very fine one asks for billions of points
        text = GOOD_SPEC.replace(
            "sweep_start = 0.1\nsweep_stop = 0.2\nsweep_step = 0.1", bounds)
        assert text != GOOD_SPEC
        with pytest.raises(SpecParseError):
            load_spec(write_spec(tmp_path, text))

    def test_sweep_at_the_point_cap(self, tmp_path):
        text = GOOD_SPEC.replace(
            "sweep_stop = 0.2\nsweep_step = 0.1",
            "sweep_stop = 0.5\nsweep_step = 5e-5")
        spec = load_spec(write_spec(tmp_path, text))
        assert len(spec.sweep_values) <= MAX_SWEEP_POINTS
        assert spec.sweep_values[:2] == [0.1, 0.10005]

    @pytest.mark.parametrize("config,values", [
        ("fig3_od_n2", [0.1, 0.2, 0.3, 0.4, 0.5]),
        ("fig6_nodirect_n2", [0.05, 0.1, 0.15, 0.2, 0.25]),
        ("fig10_feedback_n2", [0.1, 0.3, 0.5]),
        ("fig11_minrelays_n3", [0.1, 0.3, 0.5]),
        ("table1_n5", [0.1, 0.3, 0.5]),
    ])
    def test_bundled_sweeps_unchanged(self, config, values):
        assert load_spec(CONFIG_DIR / f"{config}.cfg").sweep_values == values

    @pytest.mark.parametrize("line", [
        "budget = 0", "restarts = -1", "n_max = -1"])
    def test_bad_optimizer_section_rejected(self, tmp_path, line):
        with pytest.raises(ConfigError):
            load_spec(write_spec(tmp_path, GOOD_SPEC + f"\n[optimizer]\n{line}\n"))

    @pytest.mark.parametrize("field, value", [
        ("slots", float("nan")), ("slots", 2.5), ("slots", True),
        ("seed", 1.5), ("replications", float("inf"))])
    def test_sim_settings_reject_non_integers(self, field, value):
        # each is rejected where it enters, not later inside the simulator
        with pytest.raises(ConfigError, match=f"simulation {field} must be"):
            SimSettings(**{field: value})

    def test_binary_file_is_parse_error(self, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe\x00[experiment]")
        with pytest.raises(SpecParseError):
            load_spec(path)

    def test_unknown_strategy(self, tmp_path):
        text = GOOD_SPEC.replace("strategies = od, rd", "strategies = xx")
        with pytest.raises(SpecParseError):
            load_spec(write_spec(tmp_path, text))


class TestRunSweep:
    def test_rows_cover_points_strategies_methods(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC))
        rows = run_sweep(spec)
        assert len(rows) == 2 * 2 * 2
        assert {r.method for r in rows} == {"analytic", "simulated"}
        assert all(r.seed == 7 for r in rows)
        assert all(r.build for r in rows)

    def test_unstable_point_recorded_not_raised(self, tmp_path):
        text = GOOD_SPEC.replace("sweep_start = 0.1", "sweep_start = 0.999") \
                        .replace("sweep_stop = 0.2", "sweep_stop = 0.999")
        spec = load_spec(write_spec(tmp_path, text))
        rows = run_sweep(spec, methods=("analytic",))
        assert all(r.status.startswith("unstable") for r in rows)
        assert all(r.d_p_total == math.inf for r in rows)

    def test_params_built_once_per_strategy(self, tmp_path, monkeypatch):
        # no sweep variable enters the strategy parameters, so the sweep
        # and the comparison build each strategy's once
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC))
        spec.sim.slots = 2_000
        built = []
        params_for = ExperimentSpec.params_for

        def counted(self, kind):
            built.append(kind)
            return params_for(self, kind)

        monkeypatch.setattr(ExperimentSpec, "params_for", counted)
        for run in (run_sweep, compare_analytic_sim):
            built.clear()
            assert run(spec)
            assert built == spec.strategies and len(spec.sweep_values) == 2

    def test_csv_byte_stable(self, tmp_path):
        spec1 = load_spec(write_spec(tmp_path, GOOD_SPEC))
        spec2 = load_spec(write_spec(tmp_path, GOOD_SPEC, "again.cfg"))
        text1 = write_rows(run_sweep(spec1), None)
        text2 = write_rows(run_sweep(spec2), None)
        assert text1 == text2
        assert text1.splitlines()[0] == ",".join(CSV_COLUMNS)


class TestCompare:
    def test_table_gives_back_its_rows(self):
        rows = [Comparison("od", 0.1, "mu_s", 0.5, 0.52, 0.004),
                Comparison("rd", 0.3, "lambda_p1", 0.0, -0.0, math.inf)]
        table = ComparisonTable(rows)
        assert len(table) == 2 and list(table) == rows
        assert table[-1] == rows[1] and table[1:] == rows[1:]
        assert math.copysign(1.0, table[1].simulated) == -1.0
        with pytest.raises(IndexError):
            table[2]
        assert table[0].tolerance == max(3 * 0.004, 0.01)
        assert not table[0].passed and table[1].passed

    def test_well_conditioned_point_passes(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC))
        spec.sweep_values = [0.1]
        spec.sim.slots = 400_000
        results = compare_analytic_sim(spec)
        assert results
        assert all(c.passed for c in results)

    def test_corrupted_analytic_fails(self, tmp_path, monkeypatch):
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC))
        spec.sweep_values = [0.1]
        spec.strategies = [StrategyKind.RANDOM]
        spec.sim.slots = 100_000
        true_chain = rates._chain

        def corrupted(outages, params, traffic, terms=None):
            floats = true_chain(outages, params, traffic, terms)
            return floats._replace(mu_s=floats.mu_s + 0.05)

        # the single analytic path, `evaluate`, looks its rate chain (the
        # float step of `rate_report`) up in `rates`
        monkeypatch.setattr(rates, "_chain", corrupted)
        results = compare_analytic_sim(spec)
        assert any(not c.passed for c in results if c.quantity == "mu_s")

    def test_zero_traffic_agrees(self, tmp_path):
        text = GOOD_SPEC.replace("lambda_p = 0.1", "lambda_p = 0.0") \
                        .replace("lambda_s = 0.2", "lambda_s = 0.0") \
                        .replace("sweep_start = 0.1", "sweep_start = 0.0") \
                        .replace("sweep_stop = 0.2", "sweep_stop = 0.0")
        spec = load_spec(write_spec(tmp_path, text))
        spec.strategies = [StrategyKind.RANDOM]
        results = compare_analytic_sim(spec)
        assert all(c.passed for c in results)
        relay_arrivals = [c for c in results if c.quantity.startswith("lambda_")]
        assert all(c.analytic == 0 and c.simulated == 0 for c in relay_arrivals)


class TestFigureShapeClaims:
    def test_optimized_primary_rate_stays_near_unity(self):
        # the optimizer pushes the primary rate toward its bound because a
        # fuller primary queue starves the secondary
        spec = load_spec(CONFIG_DIR / "fig3_od_n2.cfg")
        spec.strategies = [StrategyKind.ORDERED]
        spec.optimizer.budget = 8000
        spec.optimizer.restarts = 4
        spec.sweep_values = [0.1, 0.3]
        rows = run_optimize(spec)
        assert all(r.status == "ok" for r in rows)
        assert all(r.mu_p >= 0.95 for r in rows)  # 0.9 without relays

    def test_relaying_essential_without_direct_links(self, tmp_path):
        spec = load_spec(CONFIG_DIR / "fig6_nodirect_n2.cfg")
        spec.sweep_values = [0.1]
        spec.strategies = [StrategyKind.ORDERED]
        rows = run_sweep(spec, methods=("analytic",))
        assert rows[0].status == "ok" and rows[0].mu_p > 0.9

        no_relay = write_spec(tmp_path, GOOD_SPEC.replace("pu_pd = 0.1",
                                                          "pu_pd = 1.0")
                              .replace("su_sd = 0.2", "su_sd = 1.0")
                              .replace("f_p = 1, 1", "f_p = 0, 0")
                              .replace("f_s = 1, 1", "f_s = 0, 0"))
        rows = run_sweep(load_spec(no_relay), methods=("analytic",))
        assert all(r.mu_p == 0 for r in rows)
        assert all(r.status.startswith("unstable") for r in rows)
        assert all(r.d_p_total == math.inf for r in rows)


class TestOptimizeAndMinRelays:
    def test_optimize_rows(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC))
        spec.sweep_values = [0.2]
        spec.strategies = [StrategyKind.RANDOM]
        spec.optimizer.budget = 3000
        rows = run_optimize(spec)
        assert len(rows) == 1
        assert rows[0].status == "ok"
        assert rows[0].mu_s > 0.7
        assert rows[0].d_p_total <= spec.qos.d_p_max

    def test_min_relays_rows(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC))
        spec.sweep_values = [0.2]
        spec.strategies = [StrategyKind.RANDOM]
        spec.optimizer.budget = 3000
        rows = run_min_relays(spec)
        assert rows[0].min_relays == 0  # direct links already meet the QoS


class TestCli:
    def test_analyze_writes_csv(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, GOOD_SPEC)
        out = tmp_path / "out.csv"
        code = main(["analyze", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 2

    def test_strategy_and_seed_overrides(self, tmp_path):
        spec_path = write_spec(tmp_path, GOOD_SPEC)
        out = tmp_path / "out.csv"
        code = main(["simulate", "--spec", str(spec_path), "--out", str(out),
                     "--strategy", "rd", "--seed", "99", "--slots", "20000"])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(",rd," in r and ",99," in r for r in rows)

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        bad = write_spec(tmp_path, "nonsense\n")
        assert main(["analyze", "--spec", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["analyze", "--spec", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("verb, flag, value", [
        ("simulate", "--seed", "-1"),
        ("simulate", "--slots", "0"),
        ("simulate", "--replications", "0"),
        ("compare", "--slots", "0"),
        ("analyze", "--seed", "-1"),
    ])
    def test_bad_sim_override_exits_one(self, tmp_path, capsys, verb, flag,
                                        value):
        spec_path = write_spec(tmp_path, GOOD_SPEC)
        assert main([verb, "--spec", str(spec_path), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("line", [
        "seed = -1", "slots = 0", "replications = 0", "slots = inf",
        "slots = nan"])
    def test_bad_sim_section_exits_one(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        old = {"seed": "seed = 7", "slots": "slots = 30000",
               "replications": "replications = 1"}[key]
        spec_path = write_spec(tmp_path, GOOD_SPEC.replace(old, line))
        assert main(["simulate", "--spec", str(spec_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("verb,line", [
        ("min-relays", "n_max = -1"), ("optimize", "budget = 0"),
        ("optimize", "restarts = -1"), ("analyze", "sweep_step = 1e-20")])
    def test_bad_optimizer_or_sweep_exits_one(self, tmp_path, capsys, verb,
                                              line):
        text = GOOD_SPEC + f"\n[optimizer]\n{line}\n"
        if line.startswith("sweep_step"):
            text = GOOD_SPEC.replace("sweep_stop = 0.2\nsweep_step = 0.1",
                                     f"sweep_stop = 0.1\n{line}")
        assert main([verb, "--spec", str(write_spec(tmp_path, text))]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err + captured.out

    def test_compare_exit_codes(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, GOOD_SPEC.replace(
            "sweep_stop = 0.2", "sweep_stop = 0.1"))
        code = main(["compare", "--spec", str(spec_path),
                     "--slots", "400000", "--strategy", "rd"])
        assert code == 0
        assert "comparisons passed" in capsys.readouterr().out

    def test_min_relays_verb(self, tmp_path):
        spec_path = write_spec(tmp_path, GOOD_SPEC.replace(
            "sweep_stop = 0.2", "sweep_stop = 0.1"))
        out = tmp_path / "mr.csv"
        code = main(["min-relays", "--spec", str(spec_path), "--out", str(out),
                     "--strategy", "rd"])
        assert code == 0
        assert ",0," in out.read_text().splitlines()[1]

    # nine identical weak relays to a secondary with no direct link, as
    # `many_relay_network(9, 0.37, False)` of test_qos.py: nine relays
    # meet lambda_s 0.37; no `perm_p`/`perm_s`, so od's order is uniform
    NINE_RELAYS_SPEC = """
[experiment]
strategies = od
sweep_start = 0.0

[network]
pu_pd = 0.0
su_sd = 1.0
pu_relay = {0.5}
su_relay = {0.9}
relay_pd = {0}
relay_sd = {0}

[strategy]
{extra}

[traffic]
lambda_s = 0.37

[qos]
d_p_max = 10
d_s_max = 1000

[optimizer]
budget = 2000
restarts = 1

[sim]
seed = 3
""".replace("{0.5}", ", ".join(["0.5"] * 9)).replace(
        "{0.9}", ", ".join(["0.9"] * 9)).replace("{0}", ", ".join(["0"] * 9))

    def test_nine_relay_od_spec_optimizes(self, tmp_path, capsys):
        # the uniform order over 9! permutations cannot be built, but the
        # search verbs never read it; analyze reads it and says so
        spec_path = write_spec(tmp_path,
                               self.NINE_RELAYS_SPEC.replace("{extra}", ""))
        out = tmp_path / "out.csv"

        def row(verb):
            assert main([verb, "--spec", str(spec_path), "--out",
                         str(out)]) == 0
            line = out.read_text().splitlines()[1]
            return dict(zip(CSV_COLUMNS, line.split(",")))

        mins = row("min-relays")
        assert (mins["min_relays"], mins["status"]) == ("9", "ok")
        best = row("optimize")
        assert best["status"] == "ok" and float(best["mu_s"]) > 0.37
        assert row("analyze")["status"].startswith("error:dense enumeration")
        assert "Traceback" not in "".join(capsys.readouterr())

    @pytest.mark.parametrize("line", [
        "order = sorted", "f_p = 1, 1", "omega = 0.5, 0.6",
        "perm_p = 1,2 : 1.0"])
    def test_nine_relay_od_spec_rejects_bad_strategy_entry(self, tmp_path,
                                                           line):
        spec_path = write_spec(tmp_path,
                               self.NINE_RELAYS_SPEC.replace("{extra}", line))
        with pytest.raises((ConfigError, SpecParseError)):
            load_spec(spec_path)

    def test_module_entry_point(self, tmp_path):
        # `python -m cogrelay` runs from a checkout without the script
        spec = str(CONFIG_DIR / "fig11_minrelays_n3.cfg")
        out = tmp_path / "main.csv"
        assert main(["min-relays", "--spec", spec, "--out", str(out)]) == 0
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC_DIR)] + ([path] if path else []))}
        run = subprocess.run(
            [sys.executable, "-m", "cogrelay", "min-relays", "--spec", spec],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == out.read_text()
