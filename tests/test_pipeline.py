"""Parsed documents through build_problem/solve_problem, covering every element."""

import gc
import hashlib
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import besched.components as comp
import besched.solver
from besched.assembly import BalanceLedger, TimeGrid, build_balances, build_objective
from besched.errors import InputError
from besched.fcchp import FcchpCostParams, FcchpInitialState, FcchpPhysicalParams
from besched.milp import Model, export_lp
from besched.pipeline import FCCHP_PARAMS, build_problem, solve_problem
from besched.schedule import extract_schedule
from besched.solver import Solution, SolveOptions, solve_builtin
from besched.xmlio import ELEMENTS, parse_configuration, parse_situation

from helpers import write_daily_scenario
from oracles import export_lp_reference

PLANT_CONFIG = """<BuildingConfiguration xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="PlantScenario" powerUnit="kW" energyUnit="kWh" priceUnit="ct" energyPriceUnit="ct/kWh">
  <Usage id="usage" maxElectricPowerUse="32.0" maxHeatingPowerUse="32.0"
      maxCoolingPowerUse="0.0"/>
  <Grid id="grid" maxFeedInPower="5.0" maxSupplyPower="32.0"/>
  <PV id="pv" curtailable="true"/>
  <Battery id="battery" minEnergyLevel="0" maxEnergyLevel="4.0" lossPerHourFactor="0.0"
      maxChargingPower="2.0" maxDischargingPower="2.0" chargeEfficiency="0.95"
      dischargeEfficiency="0.95"/>
  <Converter id="boiler" inputCarrier="primary" outputCarrier="heat" efficiency="0.9"
      maxInputPower="10.0"/>
  <FcCHP id="plant" thermalEfficiency="0.5" electricEfficiency="0.3"
      maxThermalPower="2.0" minThermalPower="1.0" initThermalPower="0.5"
      startUpThermalPower="1.5" minOnTimeInHours="2" maxOnTimeInHours="10"
      minOffTimeInHours="2" initDurationInHours="1" startUpDurationInHours="2"
      shutDownDurationInHours="1" warmUpSupportingValues="1 2 2 3"
      standByElectricPower="0.1" warmUpElectricPower="0.2"
      coldStartElectricPower="0.3" addShutDownElectricPower="0.4"
      warmUpPrimaryPower="1.0" coldStartPrimaryPower="1.0"
      maxThermalPowerGradientPerHour="5.0" coldStartThresholdUnits="2"
      switchOnCost="1.0" warmUpCostPerUnit="0.2"/>
</BuildingConfiguration>
"""

PLANT_SITUATION = """<BuildingSituation xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="PlantScenario" nbsOfTimeUnits="8" hoursPerTimeUnit="1.0">
  <Usage id="usage" maxInitialHeatingEnergy="0.0" maxInitialCoolingEnergy="0.0">
    <ElectricPowerUsage fileName="plant.csv" dataSetPath="/Elec"/>
    <HotWaterPowerUsage fileName="plant.csv" dataSetPath="/Water"/>
  </Usage>
  <Grid id="grid">
    <ElectricEnergyPrice fileName="plant.csv" dataSetPath="/Price"/>
    <ElectricEnergyRefund fileName="plant.csv" dataSetPath="/Refund"/>
  </Grid>
  <PV id="pv">
    <PredictedPowerOutput fileName="plant.csv" dataSetPath="/PV"/>
  </PV>
  <Battery id="battery" initialEnergyLevel="1.0"/>
  <Converter id="boiler">
    <PrimaryEnergyPrice fileName="plant.csv" dataSetPath="/Gas"/>
  </Converter>
  <FcCHP id="plant" isOnAtBegin="false" lastStartStopChangeTimeUnit="0"
      lastStartTimeUnit="0" lastWarmUpDurationUnits="1">
    <PrimaryEnergyPrice fileName="plant.csv" dataSetPath="/Gas"/>
  </FcCHP>
</BuildingSituation>
"""


def _plant_inputs(tmp_path):
    rows = ["Elec,Water,Price,Refund,PV,Gas"]
    for i in range(8):
        pv = 1.0 if 2 <= i <= 5 else 0.0
        rows.append(f"0.5,1.0,25.0,5.0,{pv},6.0")
    (tmp_path / "plant.csv").write_text("\n".join(rows) + "\n")
    config = parse_configuration(PLANT_CONFIG)
    situation = parse_situation(PLANT_SITUATION, config)
    return config, situation


def test_every_element_builds_and_registers_series(tmp_path):
    config, situation = _plant_inputs(tmp_path)
    problem = build_problem(config, situation, base_dir=tmp_path)
    names = [n for n, _ in problem.ledger.states]
    for expected in (
        "electricInputPower_usage", "thermalInputPower_usage",
        "electricOutputPower_grid", "electricOutputPower_pv",
        "electricEnergyLevel_battery", "thermalOutputPower_boiler",
        "primaryInputPower_boiler", "thermalOutputPower_plant",
        "on_plant", "warmUp_plant", "production_plant",
    ):
        assert expected in names, expected
    # balances exist for both active carriers
    tags = {c.tag for c in problem.model.constraints}
    assert "balance.electric.i=1" in tags and "balance.heat.i=8" in tags


def test_optimize_solves_and_balances_hold(tmp_path):
    config, situation = _plant_inputs(tmp_path)
    problem = build_problem(config, situation, base_dir=tmp_path)
    solution = solve_problem(problem, SolveOptions())
    assert solution.status == "optimal"
    schedule = extract_schedule(problem.ledger, solution)
    x = solution.x
    for con in problem.model.constraints:
        if not con.tag.startswith("balance."):
            continue
        act = sum(c * x[vid] for vid, c in con.terms.items())
        assert abs(act - con.rhs) <= 1e-6, con.tag
    assert len(schedule.series["on_plant"]) == 8


def test_nonzero_initial_heating_energy_rejected(tmp_path):
    config, situation = _plant_inputs(tmp_path)
    situation.by_id["usage"].attrs["maxInitialHeatingEnergy"] = 1.0
    with pytest.raises(InputError, match="maxInitialHeatingEnergy"):
        build_problem(config, situation, base_dir=tmp_path)


def test_component_without_situation_entry_rejected(tmp_path):
    config, situation = _plant_inputs(tmp_path)
    situation.components = [c for c in situation.components if c.id != "battery"]
    situation.__post_init__()
    with pytest.raises(InputError, match="battery"):
        build_problem(config, situation, base_dir=tmp_path)


def test_primary_converter_without_price_rejected(tmp_path):
    config, situation = _plant_inputs(tmp_path)
    situation.by_id["boiler"].series.clear()
    with pytest.raises(InputError, match=r"'boiler'.*PrimaryEnergyPrice"):
        build_problem(config, situation, base_dir=tmp_path)
    situation.components = [c for c in situation.components if c.id != "boiler"]
    situation.__post_init__()
    with pytest.raises(InputError, match="boiler"):
        build_problem(config, situation, base_dir=tmp_path)


def test_build_problem_reads_each_csv_container_once(tmp_path, monkeypatch):
    cfg_path, sit_path = write_daily_scenario(tmp_path)
    # a column no series references may hold anything
    lines = (tmp_path / "scenario.csv").read_text().splitlines()
    lines = [lines[0] + ",Unused"] + [line + ",oops" for line in lines[1:]]
    (tmp_path / "scenario.csv").write_text("\n".join(lines) + "\n")
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self.name)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    config = parse_configuration(cfg_path.read_text())
    situation = parse_situation(sit_path.read_text(), config)
    assert sum(len(c.series) for c in situation.components) == 7
    for _ in range(2):  # and again for the next build: nothing is kept between builds
        opened.clear()
        build_problem(config, situation, base_dir=tmp_path)
        assert opened == ["scenario.csv"]


def test_element_table_names_real_fields_and_builders():
    for element, row in ELEMENTS.items():
        if row.spec is None:
            allowed = {f.name for cls in FCCHP_PARAMS for f in fields(cls)}
        else:
            allowed = {f.name for f in fields(getattr(comp, row.spec))}
        keys = [a.key for a in (*row.config.values(), *row.situation.values()) if a.key]
        keys += [s.key for s in row.series.values()] + list(row.fixed)
        assert set(keys) <= allowed, (element, set(keys) - allowed)
        assert len(keys) == len(set(keys)), element
        assert callable(getattr(comp, row.builder)), element


ALL_CONFIG = """<BuildingConfiguration xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="EveryElement" powerUnit="kW" energyUnit="kWh" priceUnit="ct" energyPriceUnit="ct/kWh">
  <Usage id="usage" maxElectricPowerUse="32.0" maxHeatingPowerUse="32.0"
      maxCoolingPowerUse="8.0"/>
  <Grid id="grid" maxFeedInPower="5.0" maxSupplyPower="32.0"/>
  <HeatBuffer id="buffer" minThermalEnergyLevel="1.0" maxThermalEnergyLevel="20.0"
      thermalLossPerHourFactor="0.01" maxThermalChargingPower="10.0"
      maxThermalDischargingPower="8.0" dischargeEfficiency="0.98"/>
  <HeatPump id="pump" electricPower="1.8" minOffTimeInHours="2" minRunTimeInHours="3"/>
  <Battery id="battery" minEnergyLevel="0" maxEnergyLevel="4.0" lossPerHourFactor="0.001"
      maxChargingPower="2.0" maxDischargingPower="1.5" chargeEfficiency="0.95"/>
  <PV id="pv" curtailable="true"/>
  <Converter id="boiler" inputCarrier="primary" outputCarrier="heat" efficiency="0.9"
      maxInputPower="10.0"/>
  <Converter id="rod" inputCarrier="electric" outputCarrier="heat" efficiency="1.0"
      maxInputPower="3.0"/>
  <Converter id="chiller" inputCarrier="heat" outputCarrier="cold" efficiency="0.7"
      maxInputPower="4.0"/>
  <MechCHP id="chp" thermalEfficiency="0.55" electricEfficiency="0.3" maxThermalPower="6.0"
      minThermalPower="3.0" boilerEfficiency="0.9" maxBoilerPower="10.0" switchOnCost="2.0"
      switchOffCost="1.0" minRunTimeInHours="2" minOffTimeInHours="1"/>
  <FcCHP id="plant" thermalEfficiency="0.5" electricEfficiency="0.3"
      maxThermalPower="2.0" minThermalPower="1.0" initThermalPower="0.5"
      startUpThermalPower="1.5" minOnTimeInHours="2" maxOnTimeInHours="10"
      minOffTimeInHours="2" initDurationInHours="1" startUpDurationInHours="2"
      shutDownDurationInHours="1" warmUpSupportingValues="1 2 2 3"
      standByElectricPower="0.1" warmUpElectricPower="0.2"
      coldStartElectricPower="0.3" addShutDownElectricPower="0.4"
      warmUpPrimaryPower="1.0" coldStartPrimaryPower="1.0"
      maxThermalPowerGradientPerHour="5.0" coldStartThresholdUnits="2"
      switchOnCost="1.0" switchOffCost="0.5" warmUpCostPerUnit="0.2"
      coldStartCostPerUnit="0.3" productionCostPerUnit="0.1"/>
</BuildingConfiguration>
"""

ALL_SITUATION = """<BuildingSituation xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="EveryElement" nbsOfTimeUnits="8" hoursPerTimeUnit="1.0">
  <Usage id="usage">
    <ElectricPowerUsage fileName="all.csv" dataSetPath="/Elec"/>
    <HotWaterPowerUsage fileName="all.csv" dataSetPath="/Water"/>
    <MinHeatingPowerUsage fileName="all.csv" dataSetPath="/MinHeat"/>
    <MaxHeatingPowerUsage fileName="all.csv" dataSetPath="/MaxHeat"/>
    <MinCoolingPowerUsage fileName="all.csv" dataSetPath="/MinCool"/>
    <MaxCoolingPowerUsage fileName="all.csv" dataSetPath="/MaxCool"/>
  </Usage>
  <Grid id="grid">
    <ElectricEnergyPrice fileName="all.csv" dataSetPath="/Price"/>
    <ElectricEnergyRefund fileName="all.csv" dataSetPath="/Refund"/>
  </Grid>
  <HeatBuffer id="buffer" initialThermalEnergyLevel="5.0"/>
  <HeatPump id="pump" isOnAtBegin="true" lastStartStopChangeInHours="1.0">
    <CoefficientOfPerformance fileName="all.csv" dataSetPath="/COP"/>
  </HeatPump>
  <Battery id="battery" initialEnergyLevel="1.0"/>
  <PV id="pv">
    <PredictedPowerOutput fileName="all.csv" dataSetPath="/PV"/>
  </PV>
  <Converter id="boiler">
    <PrimaryEnergyPrice fileName="all.csv" dataSetPath="/Gas"/>
  </Converter>
  <MechCHP id="chp" isOnAtBegin="false" lastStartStopChangeInHours="3.0">
    <PrimaryEnergyPrice fileName="all.csv" dataSetPath="/Gas"/>
  </MechCHP>
  <FcCHP id="plant" isOnAtBegin="true" isProducingAtBegin="true"
      lastStartStopChangeTimeUnit="-5" lastStartTimeUnit="-5" lastWarmUpDurationUnits="2">
    <HistoricalStart timeUnit="-5"/>
    <PrimaryEnergyPrice fileName="all.csv" dataSetPath="/Gas"/>
  </FcCHP>
</BuildingSituation>
"""

ALL_SERIES = {
    "Elec": (0.5, 0.6, 0.7, 0.5, 0.4, 0.8, 0.9, 0.5),
    "Water": (1.0, 0.0, 0.5, 1.5, 1.0, 0.0, 2.0, 1.0),
    "MinHeat": (0.0, 0.5, 0.5, 1.0, 1.0, 0.5, 0.0, 0.0),
    "MaxHeat": (2.0, 2.5, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0),
    "MinCool": (0.0, 0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0),
    "MaxCool": (0.0, 1.0, 1.5, 1.5, 1.0, 0.5, 0.0, 0.0),
    "Price": (25.0, 25.0, 30.0, 30.0, 28.0, 20.0, 20.0, 22.0),
    "Refund": (5.0, 5.0, 6.0, 6.0, 5.0, 5.0, 4.0, 4.0),
    "COP": (3.0, 3.1, 3.2, 3.3, 3.2, 3.1, 3.0, 2.9),
    "PV": (0.0, 0.0, 1.0, 2.0, 2.0, 1.0, 0.0, 0.0),
    "Gas": (6.0, 6.0, 6.5, 6.5, 6.0, 6.0, 5.5, 5.5),
}


def write_every_element_series(tmp_path):
    names = list(ALL_SERIES)
    rows = [",".join(names)]
    rows += [",".join(str(ALL_SERIES[k][i]) for k in names) for i in range(8)]
    (tmp_path / "all.csv").write_text("\n".join(rows) + "\n")


def _every_element_inputs(tmp_path):
    write_every_element_series(tmp_path)
    config = parse_configuration(ALL_CONFIG)
    return config, parse_situation(ALL_SITUATION, config)


def _every_element_by_hand():
    """The every-element scenario built by calling each builder with its spec."""
    s = ALL_SERIES
    grid = TimeGrid(8, 1.0)
    model = Model("EveryElement")
    ledger = BalanceLedger(grid)
    comp.build_usage(model, comp.UsageSpec(
        "usage", s["Elec"], s["Water"], s["MinHeat"], s["MaxHeat"], s["MinCool"], s["MaxCool"],
        max_electric_power=32.0, max_heating_power=32.0, max_cooling_power=8.0), grid, ledger)
    comp.build_grid(model, comp.GridSpec("grid", 32.0, 5.0, s["Price"], s["Refund"]),
                    grid, ledger)
    comp.build_storage(model, comp.StorageSpec(
        "buffer", "heat", 1.0, 20.0, 5.0, 10.0, 8.0, loss_per_hour=0.01,
        discharge_efficiency=0.98), grid, ledger)
    comp.build_heat_pump(model, comp.HeatPumpSpec(
        "pump", 1.8, s["COP"], min_run_time=3.0, min_off_time=2.0, is_on_at_begin=True,
        last_change_hours=1.0), grid, ledger)
    comp.build_storage(model, comp.StorageSpec(
        "battery", "electric", 0.0, 4.0, 1.0, 2.0, 1.5, loss_per_hour=0.001,
        charge_efficiency=0.95), grid, ledger)
    comp.build_profile_source(model, comp.PvSpec("pv", s["PV"], curtailable=True), grid, ledger)
    for spec in (comp.ConverterSpec("boiler", "primary", "heat", 0.9, 10.0, s["Gas"]),
                 comp.ConverterSpec("rod", "electric", "heat", 1.0, 3.0),
                 comp.ConverterSpec("chiller", "heat", "cold", 0.7, 4.0)):
        comp.build_converter(model, spec, grid, ledger)
    comp.build_mech_chp(model, comp.MechChpSpec(
        "chp", 0.55, 0.3, 6.0, 3.0, 0.9, 10.0, s["Gas"], k_on=2.0, k_off=1.0,
        min_run_time=2.0, min_off_time=1.0, last_change_hours=3.0), grid, ledger)
    phys = FcchpPhysicalParams(
        eta_th=0.5, eta_el=0.3, p_th_max=2.0, p_th_min=1.0, p_th_init=0.5, p_th_start_up=1.5,
        d_on_min=2.0, d_on_max=10.0, d_off_min=2.0, d_init=1.0, d_start_up=2.0, d_down=1.0,
        warmup_table=(1, 2, 2, 3), p_el_stand_by=0.1, p_el_warm_up=0.2, p_el_cold_start=0.3,
        p_el_add_shut_down=0.4, p_pr_warm_up=1.0, p_pr_cold_start=1.0, delta_p_th_prod=5.0,
        cold_start_threshold=2)
    costs = FcchpCostParams(s["Gas"], k_on=1.0, k_off=0.5, k_warm_up=0.2, k_cold_start=0.3,
                            k_prod=0.1)
    init = FcchpInitialState(x_0=1, z_0=1, l_0=-5, r_0=-5, w_0=2, start_history={-5: 1})
    comp.FcchpBuilder(model, grid, phys, costs, init, name="plant").build(ledger)
    build_balances(model, ledger)
    build_objective(model, ledger)
    return model, ledger


def _states(ledger):
    return [(name, [(sorted(e.terms.items()), e.const) for e in exprs])
            for name, exprs in ledger.states]


def test_every_element_matches_the_builders_called_by_hand(tmp_path):
    config, situation = _every_element_inputs(tmp_path)
    assert {c.element for c in config.components} == set(ELEMENTS)
    problem = build_problem(config, situation, base_dir=tmp_path)
    model, ledger = _every_element_by_hand()
    assert export_lp(problem.model).text == export_lp(model).text
    assert [n for n, _ in problem.ledger.states] == [n for n, _ in ledger.states]
    assert _states(problem.ledger) == _states(ledger)


# sha256 of the scenario's LP text as the per-term export (oracles) writes it
EVERY_ELEMENT_LP_SHA256 = "94cea93ce1a47558f3063d74a39a73a7756daf68668894ccd8f980cb4bc89e8c"


def test_every_element_export_matches_the_reference_and_its_pinned_digest(tmp_path):
    config, situation = _every_element_inputs(tmp_path)
    model = build_problem(config, situation, base_dir=tmp_path).model
    lp = export_lp(model)
    assert (lp.text, lp.name_map) == export_lp_reference(model)
    assert hashlib.sha256(lp.text.encode()).hexdigest() == EVERY_ELEMENT_LP_SHA256


def _assert_extraction_equals_evaluate(model, ledger, solution):
    """extract_schedule against Model.evaluate rounded by Python, bit for bit."""
    got = extract_schedule(ledger, solution).series
    want = {name: [round(model.evaluate(e, solution.x), 12) for e in exprs]
            for name, exprs in ledger.states}
    assert list(got) == list(want)
    for name in want:
        assert [v.hex() for v in got[name]] == [v.hex() for v in want[name]], name


def test_extraction_equals_evaluate_on_the_every_element_scenario():
    model, ledger = _every_element_by_hand()
    solution = solve_builtin(model)
    assert solution.status == "optimal"
    # the optimum, which a formulation with the same feasible set keeps
    assert solution.objective == pytest.approx(78.36424855831443, abs=1e-6)
    _assert_extraction_equals_evaluate(model, ledger, solution)


def test_extraction_equals_evaluate_on_the_day_scenario(tmp_path):
    cfg_path, sit_path = write_daily_scenario(tmp_path)
    config = parse_configuration(cfg_path.read_text())
    problem = build_problem(config, parse_situation(sit_path.read_text(), config),
                            base_dir=tmp_path)
    solution = solve_problem(problem, SolveOptions())
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(201.0, abs=1e-6)
    _assert_extraction_equals_evaluate(problem.model, problem.ledger, solution)


def test_extraction_sums_in_term_order_and_rounds_like_python():
    model = Model()
    x = [model.continuous(f"x{j}") for j in range(4)]
    ledger = BalanceLedger(TimeGrid(2, 1.0))
    # inserted x2, x0, x1: (1e16 + 1) + 1 is 1e16, in column order 1e16 + 2
    ledger.add_state("s", [x[2] + x[0] + x[1], x[3] * 1.0])
    solution = Solution("optimal", 0.0, x=np.array([1.0, 1.0, 1e16, 1.0000000000005]))
    series = extract_schedule(ledger, solution).series["s"]
    assert series[0] == (1e16 + 1.0) + 1.0 == 1e16 != (1.0 + 1.0) + 1e16
    # np.round scales by 1e12 and lands on 1.0; round rounds the decimal value
    assert series[1] == round(1.0000000000005, 12) == 1.000000000001
    assert float(np.round(1.0000000000005, 12)) == 1.0
    _assert_extraction_equals_evaluate(model, ledger, solution)


def test_a_solved_model_is_freed_without_the_cycle_collector(monkeypatch):
    """No reference cycle keeps a model, its arrays or its HiGHS instance."""
    kept = []
    for cls in (besched.solver.ModelArrays, besched.solver._WarmLP):
        def init(self, *args, _real=cls.__init__):
            _real(self, *args)
            kept.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        model, ledger = _every_element_by_hand()
        export_lp(model)
        solution = solve_builtin(model)
        assert solution.status == "optimal"
        assert len(kept) == 2  # the arrays and their persistent HiGHS LP
        dead = weakref.ref(model)
        del model, ledger
        assert dead() is None
        assert [ref() for ref in kept] == [None, None]
    finally:
        gc.enable()
