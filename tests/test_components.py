"""Time grid, balance ledger/assembly, and the standard component builders."""

import math
import time

import numpy as np
import pytest

from besched.assembly import (
    COLD,
    ELECTRIC,
    HEAT,
    BalanceLedger,
    TimeGrid,
    build_balances,
    build_objective,
)
from besched.components import (
    ConverterSpec,
    GridSpec,
    HeatPumpSpec,
    MechChpSpec,
    PvSpec,
    StorageSpec,
    UsageSpec,
    _check_series,
    build_converter,
    build_grid,
    build_heat_pump,
    build_mech_chp,
    build_profile_source,
    build_storage,
    build_usage,
)
from besched.errors import ModelError, StructuralInfeasibility
from besched.milp import EQ, Model, as_expr
from besched.solver import solve_builtin

from helpers import column_id
from oracles import brute_force_solve, storage_replay


# ---------------------------------------------------------------------------
# time grid


def test_grid_validation():
    with pytest.raises(ModelError):
        TimeGrid(0, 1.0)
    with pytest.raises(ModelError):
        TimeGrid(4, 0.0)


def test_grid_unit_conversions():
    g = TimeGrid(96, 0.25)
    assert g.units_ceil(1.25) == 5  # exact multiple stays exact
    assert g.units_ceil(1.1) == 5
    assert g.units_floor(1.1) == 4
    assert g.units_round(0.5) == 2
    # float fuzz must not push an exact multiple to the next unit
    assert TimeGrid(10, 0.1).units_ceil(0.3) == 3


# ---------------------------------------------------------------------------
# ledger and balances


def test_ledger_rejects_duplicates_and_bad_lengths():
    ledger = BalanceLedger(TimeGrid(2, 1.0))
    ledger.add_source(HEAT, "a", [as_expr(1.0), as_expr(1.0)])
    with pytest.raises(ModelError, match="already registered"):
        ledger.add_source(HEAT, "a", [as_expr(1.0), as_expr(1.0)])
    with pytest.raises(ModelError, match="entries"):
        ledger.add_sink(HEAT, "b", [as_expr(1.0)])
    with pytest.raises(ModelError, match="carrier"):
        ledger.add_source("steam", "c", [as_expr(1.0), as_expr(1.0)])
    with pytest.raises(ModelError, match="state series"):
        ledger.add_state("thermalOutputPower_a", [as_expr(0.0), as_expr(0.0)])


def test_power_registration_creates_schedule_series():
    ledger = BalanceLedger(TimeGrid(2, 1.0))
    ledger.add_sink(ELECTRIC, "Building", [as_expr(1.0), as_expr(2.0)])
    names = [n for n, _ in ledger.states]
    assert "electricInputPower_Building" in names


def test_balances_one_row_per_registered_carrier_and_unit():
    grid = TimeGrid(3, 1.0)
    m = Model()
    ledger = BalanceLedger(grid)
    u = [m.continuous(f"u[{i}]", 0, 5) for i in range(3)]
    ledger.add_source(HEAT, "src", [as_expr(v) for v in u])
    ledger.add_sink(HEAT, "dem", [as_expr(2.0)] * 3)
    build_balances(m, ledger)
    tags = [c.tag for c in m.constraints]
    assert tags == [f"balance.heat.i={i}" for i in (1, 2, 3)]
    assert not any("electric" in t or "cold" in t for t in tags)


def test_structurally_impossible_balance_reported_before_solving():
    grid = TimeGrid(2, 1.0)
    m = Model()
    ledger = BalanceLedger(grid)
    ledger.add_sink(HEAT, "dem", [as_expr(1.5), as_expr(0.0)])
    with pytest.raises(StructuralInfeasibility, match="heat balance at unit 1"):
        build_balances(m, ledger)


def test_objective_costs_positive_yields_negative():
    grid = TimeGrid(2, 0.5)
    m = Model()
    ledger = BalanceLedger(grid)
    build_profile_source(m, PvSpec("PV", (2.0, 2.0)), grid, ledger)
    build_grid(m, GridSpec("Grid", max_supply_power=10, max_feed_in_power=10,
                           price=(20.0, 20.0), refund=(5.0, 5.0)), grid, ledger)
    build_balances(m, ledger)
    build_objective(m, ledger)
    sol = solve_builtin(m)
    assert sol.status == "optimal"
    # all PV is sold: 2 kW * 1 h total * 5 ct/kWh refunded
    assert sol.objective == pytest.approx(-10.0)


# ---------------------------------------------------------------------------
# usage


def _grid2():
    return TimeGrid(2, 0.5)


def test_usage_registers_demands_and_heating_band():
    grid = _grid2()
    m = Model()
    ledger = BalanceLedger(grid)
    spec = UsageSpec("Building", electric_demand=(1.0, 2.0), hot_water_demand=(0.5, 0.5),
                     heating_min=(0.0, 1.0), heating_max=(2.0, 3.0))
    build_usage(m, spec, grid, ledger)
    h1 = next(v for v in m.vars if v.name == "Building.heating[2]")
    assert (h1.domain.lo, h1.domain.hi) == (1.0, 3.0)
    names = [n for n, _ in ledger.states]
    assert "electricInputPower_Building" in names
    assert "thermalInputPower_Building" in names
    assert not any("cooling" in n for n in names)  # no cooling band given


def test_usage_rejects_empty_band_and_limit_violations():
    grid = _grid2()
    base = dict(electric_demand=(1.0, 1.0), hot_water_demand=(0.0, 0.0),
                heating_min=(2.0, 0.0), heating_max=(1.0, 5.0))
    with pytest.raises(ModelError, match="band empty"):
        build_usage(Model(), UsageSpec("U", **base), grid, BalanceLedger(grid))
    with pytest.raises(ModelError, match="above"):
        build_usage(
            Model(),
            UsageSpec("U", electric_demand=(1.0, 9.0), hot_water_demand=(0.0, 0.0),
                      heating_min=(0.0, 0.0), heating_max=(0.0, 0.0),
                      max_electric_power=5.0),
            grid, BalanceLedger(grid),
        )


@pytest.mark.parametrize("field, low, high, message", [
    ("heating", (1.0, 2.0 + 4e-13), (1.0, 2.0),
     r"^Building: heating band empty at unit 2 \(2\.0000000000004 > 2\.0\)$"),
    ("heating", (3.0, 0.0), (2.5, 0.0), r"^Building: heating band empty at unit 1 \(3\.0 > 2\.5\)$"),
    ("cooling", (0.0, 1.0 + 4e-13), (0.5, 1.0),
     r"^Building: cooling band empty at unit 2 \(1\.0000000000004 > 1\.0\)$"),
    ("cooling", (0.75, 2.0), (0.5, 1.0), r"^Building: cooling band empty at unit 1 \(0\.75 > 0\.5\)$"),
])
def test_an_empty_band_names_the_component_and_the_unit(field, low, high, message):
    """The band check is as strict as the column box: any excess fails there,
    before the model sees the box."""
    grid = _grid2()
    bands = dict(heating_min=(1.0, 2.0), heating_max=(1.0, 2.0))
    bands[f"{field}_min"], bands[f"{field}_max"] = low, high
    spec = UsageSpec("Building", (0.1, 0.1), (0.0, 0.0), **bands)
    with pytest.raises(ModelError, match=message):
        build_usage(Model(), spec, grid, BalanceLedger(grid))


def test_a_band_of_equal_bounds_is_one_point():
    grid = _grid2()
    m = Model()
    spec = UsageSpec("Building", (0.1, 0.1), (0.0, 0.0), (1.0, 2.0), (1.0, 2.0),
                     (0.5, -0.0), (0.5, 0.0))
    build_usage(m, spec, grid, BalanceLedger(grid))
    lo, hi, _ = m.column_arrays()
    assert lo.tolist() == hi.tolist() == [1.0, 2.0, 0.5, 0.0]


def _check_series_reference(values, n, label, lo=None, hi=None):
    """The unit-by-unit check that _check_series replaces."""
    vals = tuple(float(v) for v in values)
    if len(vals) != n:
        raise ModelError(f"{label}: expected {n} entries, got {len(vals)}")
    for i, v in enumerate(vals):
        if not math.isfinite(v):
            raise ModelError(f"{label}: non-finite value at unit {i + 1}")
        if lo is not None and v < lo - 1e-12:
            raise ModelError(f"{label}: value {v} below {lo} at unit {i + 1}")
        if hi is not None and v > hi + 1e-12:
            raise ModelError(f"{label}: value {v} above {hi} at unit {i + 1}")
    return vals


def _outcome(check, *args):
    try:
        return check(*args)
    except ModelError as exc:
        return str(exc)


def test_check_series_matches_the_unit_loop():
    rng = np.random.default_rng(8)
    pool = [0.0, -0.0, 1.0, 2.0, 2.0 + 1e-13, 2.0 + 1e-11, -1e-13, -1e-11, 5.5, math.inf,
            -math.inf, math.nan, 3]
    for _ in range(400):
        n = int(rng.integers(0, 5))
        values = [pool[k] for k in rng.integers(0, len(pool), size=n + int(rng.integers(0, 2)))]
        lo = [None, 0.0][int(rng.integers(0, 2))]
        hi = [None, 2.0, math.inf][int(rng.integers(0, 3))]
        want = _outcome(_check_series_reference, values, n, "X.s", lo, hi)
        got = _outcome(_check_series, values, n, "X.s", lo, hi)
        assert repr(got) == repr(want), (values, n, lo, hi)


def test_usage_cooling_band_registered_when_present():
    grid = _grid2()
    m = Model()
    ledger = BalanceLedger(grid)
    spec = UsageSpec("U", electric_demand=(0.0, 0.0), hot_water_demand=(0.0, 0.0),
                     heating_min=(0.0, 0.0), heating_max=(0.0, 0.0),
                     cooling_min=(1.0, 1.0), cooling_max=(2.0, 2.0))
    build_usage(m, spec, grid, ledger)
    assert any(n == "coolingInputPower_U" for n, _ in ledger.states)


# ---------------------------------------------------------------------------
# grid connection


def test_grid_connection_costs_and_feed_in_bound():
    grid = _grid2()
    m = Model()
    ledger = BalanceLedger(grid)
    build_grid(m, GridSpec("Grid", max_supply_power=32.0, max_feed_in_power=0.0,
                           price=(20.0, 10.0), refund=(0.0, 0.0)), grid, ledger)
    build_usage(m, UsageSpec("U", electric_demand=(1.0, 2.0), hot_water_demand=(0.0, 0.0),
                             heating_min=(0.0, 0.0), heating_max=(0.0, 0.0)),
                grid, ledger)
    build_balances(m, ledger)
    build_objective(m, ledger)
    sol = solve_builtin(m)
    assert sol.status == "optimal"
    # 1 kW * 0.5 h * 20 + 2 kW * 0.5 h * 10
    assert sol.objective == pytest.approx(20.0)
    assert sol.x[column_id(m, "Grid.feedIn[1]")] == 0.0  # bound, not just optimal


def test_grid_rejects_negative_limits():
    with pytest.raises(ModelError):
        GridSpec("G", max_supply_power=-1.0, max_feed_in_power=0.0,
                 price=(1.0,), refund=(0.0,))


def test_no_simultaneous_supply_and_feed_in_when_buying_costs_more():
    grid = TimeGrid(2, 1.0)
    m = Model()
    ledger = BalanceLedger(grid)
    build_grid(m, GridSpec("Grid", 10.0, 10.0, price=(20.0, 20.0), refund=(5.0, 5.0)),
               grid, ledger)
    build_profile_source(m, PvSpec("PV", (3.0, 0.5)), grid, ledger)
    build_usage(m, UsageSpec("U", electric_demand=(1.0, 1.0), hot_water_demand=(0.0, 0.0),
                             heating_min=(0.0, 0.0), heating_max=(0.0, 0.0)),
                grid, ledger)
    build_balances(m, ledger)
    build_objective(m, ledger)
    sol = solve_builtin(m)
    assert sol.status == "optimal"
    for i in (1, 2):
        s, f = sol.x[column_id(m, f"Grid.supply[{i}]")], sol.x[column_id(m, f"Grid.feedIn[{i}]")]
        assert min(s, f) <= 1e-9


# ---------------------------------------------------------------------------
# heat pump


def test_heat_pump_output_follows_cop_and_switch_state():
    grid = TimeGrid(2, 0.25)
    m = Model()
    ledger = BalanceLedger(grid)
    spec = HeatPumpSpec("HeatPump", electric_power=1.8, cop=(3.0, 1.5))
    build_heat_pump(m, spec, grid, ledger)
    # force both units on and read the registered series
    for i in (1, 2):
        x = next(v for v in m.vars if v.name == f"HeatPump.x[{i}]")
        m.add_constraint(x + 0.0, EQ, 1.0, f"fix.{i}")
    sol = solve_builtin(m)
    assert sol.feasible
    heat = dict(ledger.states)["thermalOutputPower_HeatPump"]
    got = [m.evaluate(e, sol.x) for e in heat]
    assert got == pytest.approx([5.4, 2.7])
    elec = dict(ledger.states)["electricInputPower_HeatPump"]
    assert [m.evaluate(e, sol.x) for e in elec] == pytest.approx([1.8, 1.8])


def test_heat_pump_minimum_run_time_uses_switch_history():
    # on at begin, last change 0.5 h ago, min run 1 h on a 0.25 h grid:
    # the pump started 2 units before the horizon and must stay on 2 more
    grid = TimeGrid(4, 0.25)
    for first_off, feasible in ((1, False), (3, True)):
        m = Model()
        ledger = BalanceLedger(grid)
        spec = HeatPumpSpec("HP", 1.8, cop=(3.0,) * 4, min_run_time=1.0,
                            min_off_time=0.25, is_on_at_begin=True,
                            last_change_hours=0.5)
        build_heat_pump(m, spec, grid, ledger)
        bits = [1] * (first_off - 1) + [0] * (4 - first_off + 1)
        for i, b in enumerate(bits):
            x = next(v for v in m.vars if v.name == f"HP.x[{i + 1}]")
            m.add_constraint(x + 0.0, EQ, float(b), f"fix.{i + 1}")
        assert solve_builtin(m).feasible == feasible


def test_a_minimum_time_beyond_the_history_builds_the_window_that_reaches_its_first_event():
    # the pump started 0.5 h before the horizon, at unit -1 on a 0.25 h grid;
    # the window of unit 4 reaches back to it with 6 units (1.5 h), and any
    # longer window adds only constant zero terms
    def rows(hours, dt=0.25):
        m = Model()
        grid = TimeGrid(4, dt)
        spec = HeatPumpSpec("HP", 1.8, cop=(3.0,) * 4, min_run_time=hours, min_off_time=hours,
                            is_on_at_begin=True, last_change_hours=0.5)
        build_heat_pump(m, spec, grid, BalanceLedger(grid))
        return [(c.tag, [(v, k.hex()) for v, k in c.terms.items()], c.sense, c.rhs.hex())
                for c in m.constraints]

    started = time.monotonic()
    longest = rows(1e9)
    rows(1.0, dt=1e-300)  # 1e300-unit windows, the start 5e299 units back
    assert time.monotonic() - started < 1.0
    assert longest == rows(1.5)
    assert longest != rows(1.25)


def test_heat_pump_with_one_unit_windows_has_no_duration_rows_and_matches_enumeration():
    # minimum run and off times of one unit: every start/stop pattern is allowed
    grid = TimeGrid(6, 0.5)
    m = Model()
    ledger = BalanceLedger(grid)
    build_heat_pump(m, HeatPumpSpec("HP", 2.0, cop=(3.0, 2.5, 3.5, 3.0, 2.0, 3.0),
                                    min_run_time=0.5, min_off_time=0.5, is_on_at_begin=True,
                                    last_change_hours=1.0), grid, ledger)
    build_storage(m, StorageSpec("buf", "heat", 0.0, 6.0, 1.0, 6.0, 6.0), grid, ledger)
    build_usage(m, UsageSpec("U", electric_demand=(0.0,) * 6,
                             hot_water_demand=(2.0, 0.0, 4.0, 1.0, 3.0, 2.0),
                             heating_min=(0.0,) * 6, heating_max=(0.0,) * 6), grid, ledger)
    build_grid(m, GridSpec("G", 10.0, 0.0, price=(30.0, 10.0, 25.0, 20.0, 35.0, 15.0),
                           refund=(0.0,) * 6), grid, ledger)
    build_balances(m, ledger)
    build_objective(m, ledger)
    assert not [c.tag for c in m.constraints if ".minrun." in c.tag or ".mindown." in c.tag]
    sol = solve_builtin(m)
    status, obj, _ = brute_force_solve(m)
    assert sol.status == status == "optimal"
    assert sol.objective == pytest.approx(obj, abs=1e-6)
    # the optimum switches the pump on and off twice
    assert [round(sol.x[column_id(m, f"HP.x[{i}]")]) for i in range(1, 7)] == [0, 1, 0, 1, 0, 0]


def test_heat_pump_rejects_bad_cop_and_power():
    grid = _grid2()
    with pytest.raises(ModelError, match="positive"):
        HeatPumpSpec("HP", electric_power=0.0, cop=(3.0, 3.0))
    with pytest.raises(ModelError, match="COP"):
        build_heat_pump(Model(), HeatPumpSpec("HP", 1.8, cop=(3.0, 0.0)),
                        grid, BalanceLedger(grid))


def test_cold_pump_feeds_the_cooling_balance():
    grid = _grid2()
    m = Model()
    ledger = BalanceLedger(grid)
    build_heat_pump(m, HeatPumpSpec("CP", 2.0, cop=(3.0, 3.0), carrier=COLD),
                    grid, ledger)
    assert any(n == "coolingOutputPower_CP" for n, _ in ledger.states)


# ---------------------------------------------------------------------------
# storage


def test_storage_levels_match_sequential_replay():
    grid = TimeGrid(4, 0.5)
    m = Model()
    ledger = BalanceLedger(grid)
    spec = StorageSpec("Buffer", HEAT, min_level=0.0, max_level=10.0,
                       initial_level=4.0, max_charge_power=6.0,
                       max_discharge_power=6.0, loss_per_hour=0.1,
                       charge_efficiency=0.9, discharge_efficiency=0.8)
    build_storage(m, spec, grid, ledger)
    charge, discharge = (3.0, 0.0, 1.0, 0.0), (0.0, 2.0, 0.0, 4.0)
    for i in range(4):
        c = next(v for v in m.vars if v.name == f"Buffer.charge[{i + 1}]")
        d = next(v for v in m.vars if v.name == f"Buffer.discharge[{i + 1}]")
        m.add_constraint(c + 0.0, EQ, charge[i], f"fc.{i}")
        m.add_constraint(d + 0.0, EQ, discharge[i], f"fd.{i}")
    sol = solve_builtin(m)
    assert sol.feasible
    want = storage_replay(4.0, charge, discharge, 0.5, loss_per_hour=0.1,
                          eta_charge=0.9, eta_discharge=0.8)
    got = [sol.x[column_id(m, f"Buffer.level[{i + 1}]")] for i in range(4)]
    assert got == pytest.approx(want, abs=1e-9)


def test_storage_level_bounds_enforced():
    grid = TimeGrid(2, 1.0)
    m = Model()
    ledger = BalanceLedger(grid)
    spec = StorageSpec("B", HEAT, 0.0, 5.0, 5.0, 10.0, 10.0)
    build_storage(m, spec, grid, ledger)
    c = next(v for v in m.vars if v.name == "B.charge[1]")
    m.add_constraint(c + 0.0, EQ, 3.0, "fc")  # would overfill
    d = next(v for v in m.vars if v.name == "B.discharge[1]")
    m.add_constraint(d + 0.0, EQ, 0.0, "fd")
    assert not solve_builtin(m).feasible


def test_storage_spec_validation():
    with pytest.raises(ModelError, match="initial level"):
        StorageSpec("B", HEAT, 0.0, 5.0, 6.0, 1.0, 1.0)
    with pytest.raises(ModelError, match="loss factor"):
        StorageSpec("B", HEAT, 0.0, 5.0, 1.0, 1.0, 1.0, loss_per_hour=1.0)
    with pytest.raises(ModelError, match="carrier"):
        StorageSpec("B", "steam", 0.0, 5.0, 1.0, 1.0, 1.0)
    # legal hourly loss that still drains the store within one long unit
    grid = TimeGrid(2, 2.0)
    with pytest.raises(ModelError, match="drains"):
        build_storage(Model(), StorageSpec("B", HEAT, 0.0, 5.0, 1.0, 1.0, 1.0,
                                           loss_per_hour=0.6),
                      grid, BalanceLedger(grid))


def test_storage_series_name_follows_carrier():
    grid = _grid2()
    for carrier, prefix in ((HEAT, "thermal"), (COLD, "cooling"), (ELECTRIC, "electric")):
        m = Model()
        ledger = BalanceLedger(grid)
        build_storage(m, StorageSpec("S", carrier, 0.0, 5.0, 1.0, 1.0, 1.0),
                      grid, ledger)
        assert any(n == f"{prefix}EnergyLevel_S" for n, _ in ledger.states)


# ---------------------------------------------------------------------------
# converters and PV


def test_electric_heater_is_an_identity_at_full_efficiency():
    grid = _grid2()
    m = Model()
    ledger = BalanceLedger(grid)
    build_converter(m, ConverterSpec("Rod", ELECTRIC, HEAT, 1.0, 5.0), grid, ledger)
    heat = dict(ledger.states)["thermalOutputPower_Rod"]
    inp = next(v for v in m.vars if v.name == "Rod.input[1]")
    m.add_constraint(inp + 0.0, EQ, 2.0, "fi")
    sol = solve_builtin(m)
    assert m.evaluate(heat[0], sol.x) == pytest.approx(2.0)


def test_absorption_chiller_converts_heat_to_cold():
    grid = _grid2()
    m = Model()
    ledger = BalanceLedger(grid)
    build_converter(m, ConverterSpec("Chiller", HEAT, COLD, 0.7, 4.0), grid, ledger)
    cold = dict(ledger.states)["coolingOutputPower_Chiller"]
    inp = next(v for v in m.vars if v.name == "Chiller.input[1]")
    m.add_constraint(inp + 0.0, EQ, 2.0, "fi")
    sol = solve_builtin(m)
    assert m.evaluate(cold[0], sol.x) == pytest.approx(1.4)
    assert any(n == "thermalInputPower_Chiller" for n, _ in ledger.states)


def test_primary_fired_converter_needs_a_price_and_buys_fuel():
    with pytest.raises(ModelError, match="price"):
        ConverterSpec("Boiler", "primary", HEAT, 0.9, 10.0)
    grid = _grid2()
    m = Model()
    ledger = BalanceLedger(grid)
    build_converter(m, ConverterSpec("Boiler", "primary", HEAT, 0.9, 10.0,
                                     input_price=(6.0, 6.0)), grid, ledger)
    assert any(n == "financialInput_Boiler" for n, _ in ledger.states)
    assert any(n == "primaryInputPower_Boiler" for n, _ in ledger.states)


def test_pv_fixed_versus_curtailable():
    grid = _grid2()
    m = Model()
    ledger = BalanceLedger(grid)
    build_profile_source(m, PvSpec("PV", (1.5, 0.0)), grid, ledger)
    out = dict(ledger.states)["electricOutputPower_PV"]
    assert out[0].const == 1.5 and not out[0].terms  # constant, not a variable

    m2 = Model()
    ledger2 = BalanceLedger(grid)
    build_profile_source(m2, PvSpec("PV", (1.5, 0.0), curtailable=True), grid, ledger2)
    v = next(v for v in m2.vars if v.name == "PV.output[1]")
    assert (v.domain.lo, v.domain.hi) == (0.0, 1.5)


# ---------------------------------------------------------------------------
# mechanical CHP with peak boiler


def test_mech_chp_boiler_covers_demand_spike():
    grid = TimeGrid(4, 1.0)
    m = Model()
    ledger = BalanceLedger(grid)
    spec = MechChpSpec("CHP", eta_th=0.6, eta_el=0.3, p_th_max=2.0, p_th_min=1.0,
                       boiler_eta=0.9, boiler_p_max=6.0,
                       primary_price=(6.0,) * 4, k_on=1.0)
    build_mech_chp(m, spec, grid, ledger)
    build_grid(m, GridSpec("Grid", 10.0, 10.0, price=(30.0,) * 4, refund=(2.0,) * 4),
               grid, ledger)
    build_usage(m, UsageSpec("U", electric_demand=(0.5,) * 4,
                             hot_water_demand=(1.0, 1.0, 5.0, 1.0),
                             heating_min=(0.0,) * 4, heating_max=(0.0,) * 4),
                grid, ledger)
    build_balances(m, ledger)
    build_objective(m, ledger)
    sol = solve_builtin(m)
    assert sol.status == "optimal"
    # CHP tops out at 2 kW thermal; the spike needs the boiler
    assert sol.x[column_id(m, "CHP.boiler[3]")] >= 3.0 - 1e-6
    heat = dict(ledger.states)["thermalOutputPower_CHP"]
    el = dict(ledger.states)["electricOutputPower_CHP"]
    for i in range(4):
        h = m.evaluate(heat[i], sol.x) - sol.x[column_id(m, f"CHP.boiler[{i + 1}]")]
        e = m.evaluate(el[i], sol.x)
        assert e == pytest.approx(h * 0.5, abs=1e-9)  # eta_el / eta_th


def test_mech_chp_off_state_forces_zero_output():
    grid = TimeGrid(2, 1.0)
    m = Model()
    ledger = BalanceLedger(grid)
    spec = MechChpSpec("CHP", 0.6, 0.3, 2.0, 1.0, 0.9, 0.0, primary_price=(6.0, 6.0))
    build_mech_chp(m, spec, grid, ledger)
    for i in (1, 2):
        x = next(v for v in m.vars if v.name == f"CHP.x[{i}]")
        m.add_constraint(x + 0.0, EQ, 0.0, f"fix.{i}")
    sol = solve_builtin(m)
    heat = dict(ledger.states)["thermalOutputPower_CHP"]
    assert [m.evaluate(e, sol.x) for e in heat] == pytest.approx([0.0, 0.0])


@pytest.mark.parametrize("sign, level", [(1.0, 1.0), (-1.0, 2.0)])
def test_mech_chp_on_state_modulates_between_its_limits(sign, level):
    # forced on, the output reaches P_th_min when it costs and P_th_max when it pays
    grid = TimeGrid(2, 1.0)
    m = Model()
    ledger = BalanceLedger(grid)
    spec = MechChpSpec("CHP", 0.6, 0.3, 2.0, 1.0, 0.9, 0.0, primary_price=(6.0, 6.0))
    build_mech_chp(m, spec, grid, ledger)
    assert not [v.name for v in m.vars if ".uth[" in v.name]
    for i in (1, 2):
        x = next(v for v in m.vars if v.name == f"CHP.x[{i}]")
        m.add_constraint(x + 0.0, EQ, 1.0, f"fix.{i}")
    heat = dict(ledger.states)["thermalOutputPower_CHP"]
    m.set_objective(sum((e * sign for e in heat), as_expr(0.0)))
    sol = solve_builtin(m)
    assert sol.status == "optimal"
    assert [m.evaluate(e, sol.x) for e in heat] == [level, level]


def test_mech_chp_spec_validation():
    with pytest.raises(ModelError):
        MechChpSpec("C", 0.6, 0.5, 2.0, 1.0, 0.9, 1.0, primary_price=(1.0,))
    with pytest.raises(ModelError):
        MechChpSpec("C", 0.6, 0.3, 1.0, 2.0, 0.9, 1.0, primary_price=(1.0,))
