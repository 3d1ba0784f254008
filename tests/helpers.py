"""Shared builders for the fuel-cell CHP tests and the scenario files."""

import numpy as np

from besched.assembly import TimeGrid
from besched.fcchp import (
    FcchpBuilder,
    FcchpCostParams,
    FcchpInitialState,
    FcchpPhysicalParams,
)
from besched.milp import EQ, Model
from besched.solver import SolveOptions, solve_builtin


def make_phys(**overrides):
    base = dict(
        eta_th=0.5,
        eta_el=0.3,
        p_th_max=2.0,
        p_th_min=1.0,
        p_th_init=0.5,
        p_th_start_up=1.5,
        d_on_min=2.0,
        d_on_max=10.0,
        d_off_min=2.0,
        d_init=1.0,
        d_start_up=2.0,
        d_down=1.0,
        warmup_table=(1, 2, 2, 3, 3, 3),
        p_el_stand_by=0.1,
        p_el_warm_up=0.2,
        p_el_cold_start=0.3,
        p_el_add_shut_down=0.4,
        p_pr_warm_up=1.0,
        p_pr_cold_start=1.0,
        cold_start_threshold=2,
    )
    base.update(overrides)
    return FcchpPhysicalParams(**base)


def make_costs(n, price=4.0, **overrides):
    base = dict(primary_price=(price,) * n, k_on=1.0, k_off=0.5,
                k_warm_up=0.2, k_cold_start=0.3, k_prod=0.1)
    base.update(overrides)
    return FcchpCostParams(**base)


def build_plant(n, phys=None, costs=None, init=None, dt=1.0, name="fcCHP"):
    phys = phys or make_phys()
    costs = costs or make_costs(n)
    init = init or FcchpInitialState()
    grid = TimeGrid(n, dt)
    model = Model("plant")
    builder = FcchpBuilder(model, grid, phys, costs, init, name=name)
    builder.build()
    return model, builder


def solve_pattern(model, builder, x_pattern, options=None):
    """Fix the on/off pattern, add pressure on the under-determined flags,
    and solve.  Returns the Solution."""
    chain = builder.vars["chain"]
    for i, xi in enumerate(x_pattern):
        model.add_constraint(chain.x[i] + 0.0, EQ, float(xi), f"fix.x.i={i + 1}")
    pressure = sum(v + 0.0 for v in builder.vars["y"])
    pressure = pressure + sum(v + 0.0 for v in builder.vars["k"])
    model.set_objective(pressure)
    return solve_builtin(model, options or SolveOptions())


DAY_CONFIG = """<BuildingConfiguration xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="DailyScenario" powerUnit="kW" energyUnit="kWh" priceUnit="ct" energyPriceUnit="ct/kWh">
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

DAY_SITUATION = """<BuildingSituation xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="DailyScenario" nbsOfTimeUnits="96" hoursPerTimeUnit="0.25"
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
  <HeatBuffer id="HotWaterBuffer" initialThermalEnergyLevel="10.08"/>
  <HeatPump id="HeatPump" isOnAtBegin="false" lastStartStopChangeInHours="0.5">
    <CoefficientOfPerformance fileName="scenario.h5" dataSetPath="/COP"/>
  </HeatPump>
</BuildingSituation>
"""


def day_night_flags():
    """Night is before 07:00 and from 21:00 on a 96-unit quarter-hour day."""
    flags = []
    for i in range(96):
        hour = i * 0.25
        flags.append(hour < 7.0 or hour >= 21.0)
    return flags


def write_daily_scenario(dir_path):
    """A 96-unit heating day: constant hot-water draw, flat price, and a COP
    that doubles between the night-low and day-high regime.  Returns the
    config and situation file paths."""
    dir_path.mkdir(parents=True, exist_ok=True)
    (dir_path / "config.xml").write_text(DAY_CONFIG)
    (dir_path / "situation.xml").write_text(DAY_SITUATION)
    rows = ["ENull,DHWNull,MinHeating,MaxHeating,ECostFix,ERefundFix,COP"]
    for night in day_night_flags():
        cop = 1.6 if night else 3.2
        rows.append(f"0.1,1.44,0.0,0.0,20.0,0.0,{cop}")
    (dir_path / "scenario.csv").write_text("\n".join(rows) + "\n")
    return dir_path / "config.xml", dir_path / "situation.xml"


def series(model, builder, key, sol):
    """Evaluate one per-unit series (vars or expressions) from a solution."""
    out = []
    for item in builder.vars[key]:
        out.append(round(model.evaluate(item + 0.0, sol.x), 9))
    return out


def column_id(model, name):
    """The id of the column called ``name``, to read it from a solution's ``x``."""
    return model.column_names().index(name)


WEEK_CONFIG = """<BuildingConfiguration xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="WeekStorage" powerUnit="kW" energyUnit="kWh" priceUnit="ct" energyPriceUnit="ct/kWh">
  <Usage id="house" maxElectricPowerUse="30.0" maxHeatingPowerUse="30.0"
      maxCoolingPowerUse="0.0"/>
  <Grid id="grid" maxFeedInPower="8.0" maxSupplyPower="30.0"/>
  <PV id="roof" curtailable="true"/>
  <Battery id="battery" minEnergyLevel="0" maxEnergyLevel="8.0" lossPerHourFactor="0.002"
      maxChargingPower="4.0" maxDischargingPower="4.0" chargeEfficiency="0.93"
      dischargeEfficiency="0.96"/>
  <HeatBuffer id="buffer" minThermalEnergyLevel="0" maxThermalEnergyLevel="15.0"
      thermalLossPerHourFactor="0.004" maxThermalChargingPower="8.0"
      maxThermalDischargingPower="8.0"/>
  <Converter id="boiler" inputCarrier="primary" outputCarrier="heat" efficiency="0.92"
      maxInputPower="24.0"/>
</BuildingConfiguration>
"""

WEEK_SITUATION = """<BuildingSituation xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="WeekStorage" nbsOfTimeUnits="672" hoursPerTimeUnit="0.25"
    start="2016-08-15T00:00:00">
  <Usage id="house" maxInitialHeatingEnergy="0.0" maxInitialCoolingEnergy="0.0">
    <ElectricPowerUsage fileName="week.csv" dataSetPath="/Elec"/>
    <HotWaterPowerUsage fileName="week.csv" dataSetPath="/Water"/>
    <MinHeatingPowerUsage fileName="week.csv" dataSetPath="/HeatMin"/>
    <MaxHeatingPowerUsage fileName="week.csv" dataSetPath="/HeatMax"/>
  </Usage>
  <Grid id="grid">
    <ElectricEnergyPrice fileName="week.csv" dataSetPath="/Price"/>
    <ElectricEnergyRefund fileName="week.csv" dataSetPath="/Refund"/>
  </Grid>
  <PV id="roof">
    <PredictedPowerOutput fileName="week.csv" dataSetPath="/PV"/>
  </PV>
  <Battery id="battery" initialEnergyLevel="3.0"/>
  <HeatBuffer id="buffer" initialThermalEnergyLevel="7.5"/>
  <Converter id="boiler">
    <PrimaryEnergyPrice fileName="week.csv" dataSetPath="/Gas"/>
  </Converter>
</BuildingSituation>
"""


def write_week_scenario(dir_path, seed=0):
    """A seeded 672-unit quarter-hour week: electric and heat demand, a grid
    with feed-in, curtailable PV, a battery, a heat buffer and a gas boiler.
    Sunny middays of some days carry negative prices, and the refund is zero
    at night, so zero and negative cost coefficients both occur.  Returns the
    config and situation file paths."""
    rng = np.random.default_rng(seed)
    dir_path.mkdir(parents=True, exist_ok=True)
    (dir_path / "config.xml").write_text(WEEK_CONFIG)
    (dir_path / "situation.xml").write_text(WEEK_SITUATION)
    rows = ["Elec,Water,HeatMin,HeatMax,Price,Refund,PV,Gas"]
    for day in range(7):
        sun = rng.uniform(0.1, 1.0)
        base, gas = rng.uniform(18.0, 28.0), rng.uniform(5.0, 9.0)
        for q in range(96):
            hour = q * 0.25
            daylight = max(0.0, 1.0 - abs(hour - 13.0) / 7.0)
            pv = 9.0 * sun * daylight
            price = base + (6.0 if 17.0 <= hour < 21.0 else 0.0)
            if sun > 0.7 and 11.0 <= hour < 15.0:
                price = -rng.uniform(0.0, 3.0)
            refund = 0.0 if daylight == 0.0 else 7.5
            heat_min = rng.uniform(0.5, 3.5) * (1.4 if hour < 6.0 else 1.0)
            water = 0.0 if hour < 5.0 else rng.uniform(0.0, 1.2)
            vals = (0.2 + rng.uniform(0.0, 0.8), water, heat_min,
                    heat_min + rng.uniform(0.0, 2.5), price, refund, pv, gas)
            rows.append(",".join(repr(round(v, 5)) for v in vals))
    (dir_path / "week.csv").write_text("\n".join(rows) + "\n")
    return dir_path / "config.xml", dir_path / "situation.xml"
