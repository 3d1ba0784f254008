"""End-to-end command-line behavior on small generated scenarios."""

import dataclasses
import json
import os
import shlex
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import besched.cli
import besched.milp
from besched.cli import cli_main
from besched.errors import ModelError, NumericalFailure
from besched.solver import OPTIMAL, Solution, _WarmLP

from helpers import write_daily_scenario
from test_pipeline import ALL_CONFIG, ALL_SITUATION, write_every_element_series

CONFIG = """<BuildingConfiguration xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="SmallScenario" powerUnit="kW" energyUnit="kWh" priceUnit="ct" energyPriceUnit="ct/kWh">
  <Usage id="generalUsage" maxElectricPowerUse="32.0" maxHeatingPowerUse="32.0"
      maxCoolingPowerUse="0.0"/>
  <Grid id="GridConnection" maxFeedInPower="0.0" maxSupplyPower="32.0"/>
  <HeatBuffer id="HotWaterBuffer" minThermalEnergyLevel="0" maxThermalEnergyLevel="20.82"
      thermalLossPerHourFactor="0.000" maxThermalChargingPower="10.0"
      maxThermalDischargingPower="10.0"/>
  <HeatPump id="HeatPump" electricPower="1.8" minOffTimeInHours="0.25"
      minRunTimeInHours="0.25"/>
</BuildingConfiguration>
"""

SITUATION = """<BuildingSituation xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="SmallScenario" nbsOfTimeUnits="8" hoursPerTimeUnit="0.25"
    start="2016-08-17T00:00:00" fileNameHDF5="scenario.h5">
  <Usage id="generalUsage" maxInitialHeatingEnergy="0.0" maxInitialCoolingEnergy="0.0">
    <ElectricPowerUsage fileName="scenario.h5" dataSetPath="/ENull"/>
    <HotWaterPowerUsage fileName="scenario.h5" dataSetPath="/DHWNull"/>
    <MinHeatingPowerUsage fileName="scenario.h5" dataSetPath="/MinHeating" powerUnit="W"/>
    <MaxHeatingPowerUsage fileName="scenario.h5" dataSetPath="/MaxHeating" powerUnit="W"/>
  </Usage>
  <Grid id="GridConnection">
    <ElectricEnergyPrice fileName="scenario.h5" dataSetPath="/ECostFix"/>
    <ElectricEnergyRefund fileName="scenario.h5" dataSetPath="/ERefundFix"/>
  </Grid>
  <HeatBuffer id="HotWaterBuffer" initialThermalEnergyLevel="5.0"/>
  <HeatPump id="HeatPump" isOnAtBegin="false" lastStartStopChangeInHours="0.5">
    <CoefficientOfPerformance fileName="scenario.h5" dataSetPath="/COP"/>
  </HeatPump>
</BuildingSituation>
"""


def _write_scenario(tmp_path, water_kw=1.8, min_heating_w=0.0, max_heating_w=0.0):
    (tmp_path / "config.xml").write_text(CONFIG)
    (tmp_path / "situation.xml").write_text(SITUATION)
    rows = ["ENull,DHWNull,MinHeating,MaxHeating,ECostFix,ERefundFix,COP"]
    for _ in range(8):
        rows.append(f"0.1,{water_kw},{min_heating_w},{max_heating_w},20.0,0.0,2.0")
    (tmp_path / "scenario.csv").write_text("\n".join(rows) + "\n")
    return [
        "--config", str(tmp_path / "config.xml"),
        "--situation", str(tmp_path / "situation.xml"),
    ]


# the stats of the built-in solver: the same keys on every ending
BUILTIN_STATS = {"backend", "lp_backend", "nodes", "lp_solves", "lp_time", "time"}


def test_optimize_writes_schedule_and_exits_zero(tmp_path, capsys):
    args = _write_scenario(tmp_path)
    out = tmp_path / "out"
    rc = cli_main(["optimize", *args, "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "optimal"
    assert meta["stats"].keys() == BUILTIN_STATS
    assert meta["stats"]["backend"] == "builtin"
    assert meta["stats"]["lp_backend"] == "highs"
    header = (out / "schedule.csv").read_text().splitlines()[0]
    assert "on_HeatPump" in header
    assert "thermalEnergyLevel_HotWaterBuffer" in header
    assert "electricInputPower_HeatPump" in header
    assert "objective" in capsys.readouterr().out


def test_day_closes_at_the_root_and_reruns_byte_identical(tmp_path):
    # the dive after the root LP finds an incumbent at the root bound, so the
    # tree is the root alone; the dive's LPs count in lp_solves, not in nodes
    config, situation = write_daily_scenario(tmp_path / "scen")
    schedules = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["optimize", "--config", str(config), "--situation", str(situation),
                         "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["status"] == "optimal"
        assert meta["stats"].keys() == BUILTIN_STATS
        assert meta["stats"]["nodes"] == 1
        assert 1 < meta["stats"]["lp_solves"] <= 14
        schedules.append((out / "schedule.csv").read_bytes())
    assert schedules[0] == schedules[1]


def _reject_constant(name):
    raise ValueError(f"metadata.json is not strict JSON: {name}")


def test_optimize_infeasible_exits_two_with_metadata_only(tmp_path):
    # 30 kW of hot water demand cannot be covered by a 3.6 kW pump and buffer
    args = _write_scenario(tmp_path, water_kw=30.0)
    out = tmp_path / "out"
    rc = cli_main(["optimize", *args, "--out", str(out)])
    assert rc == 2
    meta = json.loads((out / "metadata.json").read_text(), parse_constant=_reject_constant)
    assert meta["status"] == "infeasible"
    assert meta["objective"] is None
    assert meta["stats"].keys() == BUILTIN_STATS
    assert not (out / "schedule.csv").exists()


def test_optimize_a_pure_lp_with_an_empty_box_exits_two_with_metadata_only(
        tmp_path, monkeypatch):
    # the week plus x, y in [0, 4] with x + y >= 10: a pure LP whose box
    # propagation would prove empty, proven infeasible by its one LP
    from besched.milp import GE
    from helpers import write_week_scenario

    def with_an_empty_box(*args, **kwargs):
        problem = build_problem(*args, **kwargs)
        x, y = problem.model.continuous("x", 0, 4), problem.model.continuous("y", 0, 4)
        problem.model.add_constraint(x + y, GE, 10.0, "cover")
        return problem

    build_problem = besched.cli.build_problem
    monkeypatch.setattr(besched.cli, "build_problem", with_an_empty_box)
    config, situation = write_week_scenario(tmp_path / "week", seed=12)
    out = tmp_path / "out"
    rc = cli_main(["optimize", "--config", str(config), "--situation", str(situation),
                   "--out", str(out)])
    assert rc == 2
    meta = json.loads((out / "metadata.json").read_text(), parse_constant=_reject_constant)
    assert meta["status"] == "infeasible"
    assert meta["stats"]["lp_solves"] == 1 and meta["stats"]["nodes"] == 1
    assert not (out / "schedule.csv").exists()


def test_optimize_without_the_highs_binding_exits_one_with_an_error(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    config, situation = write_daily_scenario(tmp_path)
    out = tmp_path / "out"
    rc = cli_main(["optimize", "--config", str(config), "--situation", str(situation),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "scipy" in err
    assert not out.exists()


def test_optimize_time_limit_incumbent_exits_three_with_schedule(tmp_path, monkeypatch):
    solve = besched.cli.solve_problem
    solved = []

    def solve_to_time_limit(problem, options):
        solution = solve(problem, options)
        assert solution.status == "optimal"
        solved.append(solution)
        return dataclasses.replace(solution, status="timeLimit")

    monkeypatch.setattr(besched.cli, "solve_problem", solve_to_time_limit)
    args = _write_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["optimize", *args, "--out", str(out)]) == 3
    meta = json.loads((out / "metadata.json").read_text(), parse_constant=_reject_constant)
    assert meta["status"] == "timeLimit"
    assert meta["objective"] == solved[0].objective
    assert "on_HeatPump" in (out / "schedule.csv").read_text().splitlines()[0]

    # no incumbent within the limit: metadata only, exit 1
    monkeypatch.setattr(besched.cli, "solve_problem",
                        lambda problem, options: Solution("timeLimit"))
    out = tmp_path / "out2"
    assert cli_main(["optimize", *args, "--out", str(out)]) == 1
    assert json.loads((out / "metadata.json").read_text())["status"] == "timeLimit"
    assert not (out / "schedule.csv").exists()


def test_optimize_a_building_with_no_component_is_optimal_and_writes_no_schedule(tmp_path,
                                                                                 capsys):
    ns = 'xmlns="http://www.fokus.fraunhofer.de/WaveSave" id="E"'
    (tmp_path / "config.xml").write_text(f"<BuildingConfiguration {ns}/>\n")
    (tmp_path / "situation.xml").write_text(
        f'<BuildingSituation {ns} nbsOfTimeUnits="4" hoursPerTimeUnit="1.0"'
        f' start="2016-08-17T00:00:00"/>\n')
    out = tmp_path / "out"
    assert cli_main(["optimize", "--config", str(tmp_path / "config.xml"),
                     "--situation", str(tmp_path / "situation.xml"), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("optimal: objective 0.000000 ct")
    meta = json.loads((out / "metadata.json").read_text())
    assert (meta["status"], meta["objective"]) == ("optimal", 0.0)
    assert meta["stats"].keys() == BUILTIN_STATS
    assert (meta["stats"]["nodes"], meta["stats"]["lp_solves"]) == (0, 0)
    assert not (out / "schedule.csv").exists()


def test_optimize_rejects_a_time_limit_that_is_not_positive_and_finite(
        tmp_path, monkeypatch, capsys):
    def no_solve(problem, options):
        raise AssertionError("solved despite an invalid time limit")

    monkeypatch.setattr(besched.cli, "solve_problem", no_solve)
    args = _write_scenario(tmp_path)
    for limit in ("0", "-1", "nan", "inf", "abc", ""):
        out = tmp_path / f"out{limit}"
        assert cli_main(["optimize", *args, "--out", str(out), "--time-limit", limit]) == 1
        err = capsys.readouterr().err
        assert f"--time-limit: must be a positive number of seconds, got {limit!r}" in err
        assert "_positive_seconds" not in err
        assert not out.exists()


_COLLECTOR_PROBE = """
import gc, json, sys
from besched.cli import cli_main

def collector():
    return [gc.get_freeze_count(), gc.isenabled(), list(gc.get_threshold())]

before = collector()
args, out = sys.argv[1:-1], sys.argv[-1]
codes = [cli_main(["validate", *args]), cli_main(["optimize", *args, "--out", out])]
print(json.dumps({"before": before, "after": collector(), "codes": codes}))
"""


def test_cli_main_leaves_the_garbage_collector_as_it_found_it(tmp_path):
    # a fresh interpreter, so that these are the first cli_main calls of the
    # process and nothing else has touched its collector
    args = _write_scenario(tmp_path)
    run = subprocess.run(
        [sys.executable, "-c", _COLLECTOR_PROBE, *args, str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
    )
    probe = json.loads(run.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0]
    assert probe["before"][0] == 0
    assert probe["after"] == probe["before"]


def test_optimize_refuses_an_incumbent_that_breaks_a_row(tmp_path, monkeypatch, capsys):
    def off_the_rows(self, lo, hi, deadline):
        # integral and inside the bounds, but it covers no demand
        x = np.clip(0.0, lo, hi)
        return OPTIMAL, x, float(self.c @ x) + self.obj_const

    monkeypatch.setattr(_WarmLP, "solve", off_the_rows)
    args = _write_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["optimize", *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: incumbent violates a constraint")
    assert not (out / "schedule.csv").exists()


def _write_every_element(tmp_path, config, situation):
    write_every_element_series(tmp_path)
    (tmp_path / "config.xml").write_text(config)
    (tmp_path / "situation.xml").write_text(situation)
    return ["--config", str(tmp_path / "config.xml"),
            "--situation", str(tmp_path / "situation.xml")]


@pytest.mark.parametrize("document, attr, value, message", [
    # MechCHP
    ("config", 'switchOnCost="2.0"', "nan", "not a number: 'nan'"),
    ("config", 'switchOnCost="2.0"', "inf", "switching costs must be finite"),
    ("config", 'switchOnCost="2.0"', "-inf", "switching costs must be finite"),
    ("config", 'maxThermalPower="6.0"', "inf", "chp.maxThermalPower: a power of inf kW"),
    ("config", 'minThermalPower="3.0"', "inf", "chp.minThermalPower: a power of inf kW"),
    # HeatPump
    ("config", 'electricPower="1.8"', "inf", "pump.electricPower: a power of inf kW"),
    ("config", 'minRunTimeInHours="3"', "inf",
     "pump.minRunTimeInHours: a duration of inf h"),
    ("config", 'minRunTimeInHours="3"', "nan", "not a number: 'nan'"),
    ("situation", 'lastStartStopChangeInHours="1.0"', "inf",
     "pump.lastStartStopChangeInHours: a duration of inf h"),
    ("situation", 'lastStartStopChangeInHours="1.0"', "nan", "not a number: 'nan'"),
    # FcCHP
    ("config", 'maxOnTimeInHours="10"', "inf", "plant.maxOnTimeInHours: a duration of inf h"),
    ("config", 'warmUpSupportingValues="1 2 2 3"', "", "non-empty warm-up duration table"),
    ("config", 'standByElectricPower="0.1"', "inf", "standByElectricPower: a power of inf kW"),
    ("config", 'warmUpPrimaryPower="1.0"', "inf", "warmUpPrimaryPower: a power of inf kW"),
    ("config", 'maxThermalPower="2.0"', "inf", "maxThermalPower: a power of inf kW"),
    ("config", 'minThermalPower="1.0"', "-inf", "minThermalPower: a power of -inf kW"),
    # the fcCHP's parameter errors name the plant
    ("config", 'standByElectricPower="0.1"', "inf",
     "plant.standByElectricPower: a power of inf kW is not finite"),
    ("config", 'startUpThermalPower="1.5"', "0.8",
     "plant: thermal levels must satisfy P_init <= P_min < P_startUp <= P_max"),
    ("config", 'maxThermalPowerGradientPerHour="5.0"', "-inf",
     "plant: production ramp limit must be positive"),
    # the horizon
    ("situation", 'hoursPerTimeUnit="1.0"', "inf",
     "BuildingSituation@hoursPerTimeUnit: not a finite number: 'inf'"),
    ("situation", 'hoursPerTimeUnit="1.0"', "nan",
     "BuildingSituation@hoursPerTimeUnit: not a finite number: 'nan'"),
    ("situation", 'hoursPerTimeUnit="1.0"', '1.0" start="2016-13-45T00:00:00',
     "BuildingSituation@start: no timestamp for every unit from '2016-13-45T00:00:00'"),
    # the eighth unit would begin in the year 10000
    ("situation", 'hoursPerTimeUnit="1.0"', '1.0" start="9999-12-31T18:00:00',
     "BuildingSituation@start: no timestamp for every unit from '9999-12-31T18:00:00'"),
    # the spec and initial-state checks an attribute reaches
    ("situation", 'lastStartStopChangeInHours="1.0"', "-1",
     "error: last state change must not lie in the future"),
    ("config", 'maxChargingPower="2.0"', "-1",
     "battery: charge/discharge limits must be non-negative"),
    ("config", 'chargeEfficiency="0.95"', "1.5", "battery: efficiencies must lie in (0, 1]"),
    ("config", 'inputCarrier="electric"', "coal", "rod: unsupported input carrier 'coal'"),
    ("config", 'outputCarrier="cold"', "electric",
     "chiller: unsupported output carrier 'electric'"),
    ("config", 'efficiency="0.7"', "1.5", "chiller: efficiency must lie in (0, 1]"),
    ("config", 'maxInputPower="4.0"', "0", "chiller: maxInputPower must be positive"),
    ("config", 'thermalEfficiency="0.55"', "1.5",
     "chp: efficiencies must lie strictly between 0 and 1"),
    ("config", 'boilerEfficiency="0.9"', "0", "chp: boiler efficiency must lie in (0, 1]"),
    ("config", 'maxBoilerPower="10.0"', "-1", "chp: boiler output limit must be non-negative"),
    ("situation", 'lastWarmUpDurationUnits="2"', "-1", "w_0 must be non-negative"),
    ("situation", 'isOnAtBegin="true" isProducingAtBegin="true"',
     'false" isProducingAtBegin="true', "producing (z_0 = 1) requires the plant on (x_0 = 1)"),
])
def test_optimize_rejects_a_non_finite_or_empty_value_with_one_error_line(
        tmp_path, capsys, document, attr, value, message):
    texts = {"config": ALL_CONFIG, "situation": ALL_SITUATION}
    assert texts[document].count(attr) == 1
    texts[document] = texts[document].replace(attr, f'{attr.split("=")[0]}="{value}"')
    args = _write_every_element(tmp_path, texts["config"], texts["situation"])
    out, lp = tmp_path / "out", tmp_path / "model.lp"
    started = time.monotonic()
    rc = cli_main(["optimize", *args, "--out", str(out), "--emit-lp", str(lp),
                   "--time-limit", "5"])
    assert time.monotonic() - started < 1.0
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and message in line
    assert not out.exists() and not lp.exists()


def test_an_infinite_fcchp_ramp_limit_means_no_ramp_rows(tmp_path, capsys):
    attr = 'maxThermalPowerGradientPerHour="5.0"'
    ramp_rows = {}
    for value in ("0.5", "inf"):
        config = ALL_CONFIG.replace(attr, f'maxThermalPowerGradientPerHour="{value}"')
        args = _write_every_element(tmp_path, config, ALL_SITUATION)
        assert cli_main(["explain", *args, "--tag", "plant.ramplim"]) == 0
        ramp_rows[value] = capsys.readouterr().out.count("[plant.ramplim")
    assert ramp_rows == {"0.5": 14, "inf": 0}
    assert cli_main(["optimize", *args, "--out", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["status"] == "optimal"


def test_validate_reports_model_size(tmp_path, capsys):
    args = _write_scenario(tmp_path)
    assert cli_main(["validate", *args]) == 0
    assert "model ok" in capsys.readouterr().out


def test_validate_rejects_empty_heating_band(tmp_path, capsys):
    args = _write_scenario(tmp_path, min_heating_w=2000.0, max_heating_w=1000.0)
    assert cli_main(["validate", *args]) == 1
    assert "band empty" in capsys.readouterr().err


def test_validate_reports_a_trivially_infeasible_row_and_exits_one(
        tmp_path, capsys, monkeypatch):
    # the day scenario plus the empty row 0 >= 1
    from besched.milp import GE, LinExpr

    forced = []

    def with_an_empty_row(*args, **kwargs):
        problem = build_problem(*args, **kwargs)
        forced.append(problem.model.add_constraint(LinExpr(), GE, 1.0, "forced"))
        return problem

    build_problem = besched.cli.build_problem
    monkeypatch.setattr(besched.cli, "build_problem", with_an_empty_row)
    config, situation = write_daily_scenario(tmp_path / "day")
    assert cli_main(["validate", "--config", str(config), "--situation", str(situation)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("model ok: ")
    assert out[1:] == [f"trivially infeasible row {forced[0]}: forced"]


def test_explain_filters_rows_by_tag_prefix(tmp_path, capsys):
    args = _write_scenario(tmp_path)
    assert cli_main(["explain", *args, "--tag", "balance.heat"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 8
    assert all(ln.startswith("[balance.heat.") for ln in lines)


def test_emit_lp_writes_model_file(tmp_path):
    args = _write_scenario(tmp_path)
    lp = tmp_path / "model.lp"
    rc = cli_main(["optimize", *args, "--out", str(tmp_path / "out"),
                   "--emit-lp", str(lp)])
    assert rc == 0
    text = lp.read_text()
    assert text.startswith("\\")
    assert "Minimize" in text and "Binary" in text and text.rstrip().endswith("End")


def _fail_the_solve(problem, options):
    raise NumericalFailure("HiGHS LP run failed")


def _fail_the_export(model):
    raise ModelError("cannot export this model")


@pytest.mark.parametrize("solve", ["solved", "fails"])
@pytest.mark.parametrize("fault", ["unwritable", "raises"])
def test_emit_lp_error_wins_and_nothing_is_written_under_out(
        tmp_path, monkeypatch, capsys, solve, fault):
    if solve == "fails":
        monkeypatch.setattr(besched.cli, "solve_problem", _fail_the_solve)
    if fault == "unwritable":
        lp, message = tmp_path / "missing" / "model.lp", "No such file or directory"
    else:
        monkeypatch.setattr(besched.cli, "export_lp", _fail_the_export)
        lp, message = tmp_path / "model.lp", "cannot export this model"
    args = _write_scenario(tmp_path)
    out = tmp_path / "out"
    threads = threading.active_count()
    assert cli_main(["optimize", *args, "--out", str(out), "--emit-lp", str(lp)]) == 1
    assert threading.active_count() == threads
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and message in line
    assert not out.exists() and not lp.exists()


def test_an_existing_lp_file_is_kept_on_an_export_error_and_replaced_after_an_export(
        tmp_path, monkeypatch, capsys):
    args = _write_scenario(tmp_path)
    lp = tmp_path / "model.lp"
    old = "an LP file written before, longer than the model's\n" * 2000
    lp.write_text(old)
    monkeypatch.setattr(besched.cli, "export_lp", _fail_the_export)
    assert cli_main(["optimize", *args, "--out", str(tmp_path / "out"), "--emit-lp", str(lp)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: cannot export this model"
    assert lp.read_text() == old

    texts = []

    def export_lp(model):
        texts.append(besched.milp.export_lp(model).text)
        return besched.milp.export_lp(model)

    monkeypatch.setattr(besched.cli, "export_lp", export_lp)
    assert cli_main(["optimize", *args, "--out", str(tmp_path / "out"), "--emit-lp", str(lp)]) == 0
    assert [lp.read_text()] == texts and len(texts[0]) < len(old)
    # a path that is no regular file is written and kept as well
    assert cli_main(["optimize", *args, "--out", str(tmp_path / "out2"),
                     "--emit-lp", os.devnull]) == 0
    assert os.path.exists(os.devnull)


def test_an_unwritable_lp_path_fails_before_the_solve(tmp_path, monkeypatch, capsys):
    solved = []

    def solve_problem(problem, options):
        solved.append(problem)
        raise NumericalFailure("the solve ran for an LP path that cannot be written")

    monkeypatch.setattr(besched.cli, "solve_problem", solve_problem)
    args = _write_scenario(tmp_path)
    out, lp = tmp_path / "out", tmp_path / "missing" / "model.lp"
    assert cli_main(["optimize", *args, "--out", str(out), "--emit-lp", str(lp)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "No such file or directory" in line
    assert not out.exists() and not lp.exists()
    assert solved == []


def test_external_emit_lp_writes_the_bytes_the_solver_read(tmp_path, capsys):
    args = _write_scenario(tmp_path)
    lp, seen = tmp_path / "model.lp", tmp_path / "seen.lp"
    # the command keeps a copy of its input and writes no solution file, so
    # the solve ends in an error after the solver read {in}
    copy = "import shutil, sys; shutil.copyfile(sys.argv[1], sys.argv[2])"
    command = (f"{shlex.quote(sys.executable)} -c {shlex.quote(copy)} {{in}} "
               f"{shlex.quote(str(seen))} {{out}}")
    assert cli_main(["optimize", *args, "--out", str(tmp_path / "out"), "--solver", "external",
                     "--solver-cmd", command, "--emit-lp", str(lp)]) == 1
    assert "produced no solution file" in capsys.readouterr().err
    assert lp.read_bytes() == seen.read_bytes()
    assert lp.read_bytes().startswith(b"\\") and not (tmp_path / "out").exists()


def test_emit_lp_writes_the_lp_file_on_a_worker_when_the_solve_fails(
        tmp_path, monkeypatch, capsys):
    exported_on = []

    def export_lp(model):
        exported_on.append(threading.current_thread())
        return export_lp.inner(model)

    export_lp.inner = besched.cli.export_lp
    monkeypatch.setattr(besched.cli, "export_lp", export_lp)
    args = _write_scenario(tmp_path)
    lp, out = tmp_path / "model.lp", tmp_path / "out"
    assert cli_main(["optimize", *args, "--out", str(out), "--emit-lp", str(lp)]) == 0
    solved = lp.read_bytes()

    monkeypatch.setattr(besched.cli, "solve_problem", _fail_the_solve)
    lp.unlink()
    out = tmp_path / "out2"
    threads = threading.active_count()
    assert cli_main(["optimize", *args, "--out", str(out), "--emit-lp", str(lp)]) == 1
    assert threading.active_count() == threads
    assert capsys.readouterr().err == "error: HiGHS LP run failed\n"
    assert lp.read_bytes() == solved
    assert not out.exists()
    assert len(exported_on) == 2
    assert threading.main_thread() not in exported_on


def test_emit_lp_outputs_hold_when_the_threads_switch_often(tmp_path):
    # the export and the solve read one model; switching every 10 us
    # interleaves them far more finely than the default 5 ms
    from besched.milp import export_lp
    from besched.pipeline import build_problem
    from besched.xmlio import parse_configuration, parse_situation

    config, situation = write_daily_scenario(tmp_path / "scen")
    args = ["optimize", "--config", str(config), "--situation", str(situation)]
    assert cli_main([*args, "--out", str(tmp_path / "alone")]) == 0
    lp = tmp_path / "model.lp"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert cli_main([*args, "--out", str(tmp_path / "out"), "--emit-lp", str(lp)]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert (tmp_path / "out" / "schedule.csv").read_bytes() == (
        tmp_path / "alone" / "schedule.csv").read_bytes()
    config_doc = parse_configuration(config.read_text())
    problem = build_problem(config_doc, parse_situation(situation.read_text(), config_doc),
                            base_dir=config.parent)
    assert lp.read_text() == export_lp(problem.model).text


def test_missing_input_file_exits_one(tmp_path, capsys):
    rc = cli_main(["optimize", "--config", str(tmp_path / "nope.xml"),
                   "--situation", str(tmp_path / "nope.xml"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_bad_flags_exit_one(capsys):
    assert cli_main(["optimize", "--frobnicate"]) == 1
    assert cli_main(["no-such-command"]) == 1


def test_the_parser_is_built_once_and_each_call_parses_its_own_flags(tmp_path, monkeypatch,
                                                                     capsys):
    limits = []

    def record_limit(problem, options):
        limits.append(options.time_limit)
        return Solution("timeLimit")

    monkeypatch.setattr(besched.cli, "solve_problem", record_limit)
    besched.cli._build_parser.cache_clear()
    args = _write_scenario(tmp_path)
    assert cli_main(["optimize", *args, "--out", str(tmp_path / "a"), "--time-limit", "5"]) == 1
    assert cli_main(["optimize", *args, "--out", str(tmp_path / "b")]) == 1
    assert cli_main(["optimize", *args, "--out", str(tmp_path / "c"),
                     "--time-limit", "abc"]) == 1
    assert "--time-limit: must be a positive number of seconds" in capsys.readouterr().err
    assert limits == [5.0, None]
    assert besched.cli._build_parser.cache_info().misses == 1


def test_optimize_makes_no_handle_for_a_series_column(tmp_path, monkeypatch):
    import besched.milp

    made, domains, series, problems = [], [], [], []

    class CountedVar(besched.milp.Var):
        __slots__ = ()

        def __init__(self, id, name, domain):
            made.append(id)
            super().__init__(id, name, domain)

    class CountedDomain(besched.milp.Domain):
        def __post_init__(self):
            domains.append(self)
            super().__post_init__()

    def continuous_series(model, *args, **kwargs):
        ids = continuous_series.inner(model, *args, **kwargs)
        series.extend(ids.tolist())
        return ids

    def build_problem(*args, **kwargs):
        problems.append(build_problem.inner(*args, **kwargs))
        return problems[-1]

    continuous_series.inner = besched.milp.Model.continuous_series
    build_problem.inner = besched.cli.build_problem
    monkeypatch.setattr(besched.milp, "Var", CountedVar)
    monkeypatch.setattr(besched.milp, "Domain", CountedDomain)
    monkeypatch.setattr(besched.milp.Model, "continuous_series", continuous_series)
    monkeypatch.setattr(besched.cli, "build_problem", build_problem)
    from helpers import write_week_scenario

    config, situation = write_week_scenario(tmp_path / "week", seed=12)
    assert cli_main(["optimize", "--config", str(config), "--situation", str(situation),
                     "--out", str(tmp_path / "out"), "--emit-lp", str(tmp_path / "week.lp")]) == 0
    (problem,) = problems
    assert len(series) == problem.model.n_columns == 7392
    assert made == [] and domains == []
    # the check itself sees a handle and its Domain made afterwards
    handle = problem.model.vars[series[-1]]
    assert made == [series[-1]] and domains == [handle.domain]
