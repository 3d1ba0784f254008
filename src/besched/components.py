"""Sub-model builders for the standard building components: usage (demand),
grid connection, heat/cold pump, storages, converters, PV, and mechanical CHP
with a peak boiler.

Each builder adds its variables and rows to the model and registers the
component's per-carrier power series and money flows in the BalanceLedger.
Builders never touch another component's entries; coupling happens only
through the carrier balances assembled later.

Usage, grid, storage, converter and PV are built as arrays over the time
units: ``Model.continuous_series`` makes a named series of columns,
``ExprBlock`` holds their expressions and ``Model.add_rows`` adds the
storage rows as one block.  Each gives bit for bit the variables, rows and
expressions that the ``LinExpr`` operators would.  The switched components
(heat pump, mechanical CHP, fcCHP) store their rows as Python lists through
``milp.RowList`` and ``Model.append_rows``: the on/off chain and minimum
times of ``fcchp.build_onoff_chain`` and ``build_min_durations``, the
MechCHP output's ``linearize.gated_column`` rows, and the fcCHP build steps.
Only their ledger series are built unit by unit with ``LinExpr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (CARRIERS, COLD, ELECTRIC, HEAT, BalanceLedger, TimeGrid,
                       check_finite_powers)
from .errors import ModelError
# FcchpBuilder is here as the FcCHP row's builder in the element table (xmlio.ELEMENTS)
from .fcchp import FcchpBuilder, OnOffChain, build_min_durations, build_onoff_chain
from .linearize import gated_column
from .milp import EQ, ExprBlock, Model, RowList


def _check_series(values, n, label, lo=None, hi=None):
    """The values as a tuple of floats, checked in one array pass: n of
    them, finite and within [lo - 1e-12, hi + 1e-12].  The message names the
    first offending unit."""
    arr = np.array(values, dtype=float)
    if arr.shape != (n,):
        raise ModelError(f"{label}: expected {n} entries, got {arr.size}")
    finite = np.isfinite(arr)
    below = arr < lo - 1e-12 if lo is not None else np.zeros(n, dtype=bool)
    above = arr > hi + 1e-12 if hi is not None else np.zeros(n, dtype=bool)
    bad = np.flatnonzero(~finite | below | above)
    if len(bad):
        i = int(bad[0])
        v = arr[i].item()
        if not finite[i]:
            raise ModelError(f"{label}: non-finite value at unit {i + 1}")
        if below[i]:
            raise ModelError(f"{label}: value {v} below {lo} at unit {i + 1}")
        raise ModelError(f"{label}: value {v} above {hi} at unit {i + 1}")
    return tuple(arr.tolist())


def _check_band(name, what, low, high):
    """A band ``low <= high`` at every unit, or an error naming the first unit
    where it is empty, as the column box would be."""
    bad = np.flatnonzero(np.array(low) > np.array(high))
    if len(bad):
        i = int(bad[0])
        raise ModelError(f"{name}: {what} band empty at unit {i + 1} ({low[i]} > {high[i]})")


def _switched_chain(model: Model, spec, grid: TimeGrid) -> OnOffChain:
    """The on/off chain and minimum run and off times of a switched component
    (HeatPump, MechCHP), its initial state expressed as historical event flags.

    The last switching event lies last_change_hours before unit 1; an event
    j units ago happened at unit 1 - j, and at unit 0 at the latest.
    """
    if spec.last_change_hours < 0:
        raise ModelError("last state change must not lie in the future")
    last = grid.units_round(spec.last_change_hours, f"{spec.name}.lastStartStopChangeInHours")
    event = {min(1 - last, 0): 1}
    hist_start, hist_stop = (event, {}) if spec.is_on_at_begin else ({}, event)
    chain = build_onoff_chain(model, grid.n_units, int(spec.is_on_at_begin),
                              hist_start=hist_start, hist_stop=hist_stop, name=spec.name)
    on_min = off_min = 1
    if spec.min_run_time > 0:
        on_min = max(grid.units_ceil(spec.min_run_time, f"{spec.name}.minRunTimeInHours"), 1)
    if spec.min_off_time > 0:
        off_min = max(grid.units_ceil(spec.min_off_time, f"{spec.name}.minOffTimeInHours"), 1)
    build_min_durations(model, chain, on_min, off_min, name=spec.name)
    return chain


# ---------------------------------------------------------------------------
# usage


@dataclass(frozen=True)
class UsageSpec:
    name: str
    electric_demand: tuple
    hot_water_demand: tuple
    heating_min: tuple
    heating_max: tuple
    cooling_min: tuple = ()
    cooling_max: tuple = ()
    max_electric_power: float = math.inf
    max_heating_power: float = math.inf
    max_cooling_power: float = math.inf


def build_usage(model: Model, spec: UsageSpec, grid: TimeGrid, ledger: BalanceLedger) -> None:
    n = grid.n_units
    elec = _check_series(spec.electric_demand, n, f"{spec.name}.electric_demand",
                         lo=0.0, hi=spec.max_electric_power)
    water = _check_series(spec.hot_water_demand, n, f"{spec.name}.hot_water_demand", lo=0.0)
    hmin = _check_series(spec.heating_min, n, f"{spec.name}.heating_min", lo=0.0)
    hmax = _check_series(spec.heating_max, n, f"{spec.name}.heating_max",
                         lo=0.0, hi=spec.max_heating_power)
    _check_band(spec.name, "heating", hmin, hmax)
    ledger.add_sink(ELECTRIC, spec.name, ExprBlock.constants(elec))
    heat = model.continuous_series(f"{spec.name}.heating", n, hmin, hmax)
    ledger.add_sink(HEAT, spec.name, ExprBlock.columns(heat, const=water))

    if spec.cooling_max:
        cmin = _check_series(spec.cooling_min, n, f"{spec.name}.cooling_min", lo=0.0)
        cmax = _check_series(spec.cooling_max, n, f"{spec.name}.cooling_max",
                             lo=0.0, hi=spec.max_cooling_power)
        _check_band(spec.name, "cooling", cmin, cmax)
        if any(v > 0 for v in cmax):
            cool = model.continuous_series(f"{spec.name}.cooling", n, cmin, cmax)
            ledger.add_sink(COLD, spec.name, ExprBlock.columns(cool))


# ---------------------------------------------------------------------------
# grid connection


@dataclass(frozen=True)
class GridSpec:
    name: str
    max_supply_power: float
    max_feed_in_power: float
    price: tuple  # ct/kWh per unit
    refund: tuple

    def __post_init__(self):
        if self.max_supply_power < 0 or self.max_feed_in_power < 0:
            raise ModelError(f"{self.name}: power limits must be non-negative")


def build_grid(model: Model, spec: GridSpec, grid: TimeGrid, ledger: BalanceLedger) -> None:
    n = grid.n_units
    price = _check_series(spec.price, n, f"{spec.name}.price")
    refund = _check_series(spec.refund, n, f"{spec.name}.refund")
    dt = grid.hours_per_unit
    supply = model.continuous_series(f"{spec.name}.supply", n, 0.0, spec.max_supply_power)
    feed_in = model.continuous_series(f"{spec.name}.feedIn", n, 0.0, spec.max_feed_in_power)
    ledger.add_source(ELECTRIC, spec.name, ExprBlock.columns(supply))
    ledger.add_sink(ELECTRIC, spec.name, ExprBlock.columns(feed_in))
    ledger.add_financial_input(spec.name, ExprBlock.scaled(supply, np.array(price) * dt))
    ledger.add_financial_output(spec.name, ExprBlock.scaled(feed_in, np.array(refund) * dt))


# ---------------------------------------------------------------------------
# heat/cold pump


@dataclass(frozen=True)
class HeatPumpSpec:
    name: str
    electric_power: float
    cop: tuple
    min_run_time: float = 0.0  # hours
    min_off_time: float = 0.0
    is_on_at_begin: bool = False
    last_change_hours: float = 0.0
    carrier: str = HEAT  # heat pump or cold pump

    def __post_init__(self):
        check_finite_powers({"electricPower": self.electric_power}, self.name)
        if not (self.electric_power > 0):
            raise ModelError(f"{self.name}: electricPower must be positive")
        if self.carrier not in (HEAT, COLD):
            raise ModelError(f"{self.name}: pump carrier must be heat or cold")


def build_heat_pump(model: Model, spec: HeatPumpSpec, grid: TimeGrid,
                    ledger: BalanceLedger) -> None:
    n = grid.n_units
    cop = _check_series(spec.cop, n, f"{spec.name}.cop")
    if any(v <= 0 for v in cop):
        raise ModelError(f"{spec.name}: COP values must be positive")
    chain = _switched_chain(model, spec, grid)
    ledger.add_sink(ELECTRIC, spec.name, [x * spec.electric_power for x in chain.x])
    ledger.add_source(
        spec.carrier, spec.name,
        [chain.x[i] * (spec.electric_power * cop[i]) for i in range(n)],
    )
    ledger.add_state(f"on_{spec.name}", chain.x)


# ---------------------------------------------------------------------------
# storage


@dataclass(frozen=True)
class StorageSpec:
    name: str
    carrier: str
    min_level: float
    max_level: float
    initial_level: float
    max_charge_power: float
    max_discharge_power: float
    loss_per_hour: float = 0.0
    charge_efficiency: float = 1.0
    discharge_efficiency: float = 1.0

    def __post_init__(self):
        if self.carrier not in CARRIERS:
            raise ModelError(f"{self.name}: unknown storage carrier {self.carrier!r}")
        if not (self.min_level <= self.initial_level <= self.max_level):
            raise ModelError(
                f"{self.name}: initial level {self.initial_level} outside "
                f"[{self.min_level}, {self.max_level}]"
            )
        if self.max_charge_power < 0 or self.max_discharge_power < 0:
            raise ModelError(f"{self.name}: charge/discharge limits must be non-negative")
        if not (0 <= self.loss_per_hour < 1):
            raise ModelError(f"{self.name}: loss factor per hour must lie in [0, 1)")
        if not (0 < self.charge_efficiency <= 1 and 0 < self.discharge_efficiency <= 1):
            raise ModelError(f"{self.name}: efficiencies must lie in (0, 1]")


def build_storage(model: Model, spec: StorageSpec, grid: TimeGrid,
                  ledger: BalanceLedger) -> None:
    n = grid.n_units
    dt = grid.hours_per_unit
    keep = 1.0 - spec.loss_per_hour * dt
    if keep <= 0:
        raise ModelError(f"{spec.name}: loss factor drains the store within one unit")
    level = model.continuous_series(f"{spec.name}.level", n, spec.min_level, spec.max_level)
    charge = model.continuous_series(f"{spec.name}.charge", n, 0.0, spec.max_charge_power)
    discharge = model.continuous_series(f"{spec.name}.discharge", n, 0.0,
                                        spec.max_discharge_power)
    # level[i] - keep * level[i - 1] - cin * charge[i] + dout * discharge[i] = 0,
    # with keep * initial level on the right-hand side at unit 1, whose slot
    # for the previous level (-1 here) is deleted
    cin, dout = spec.charge_efficiency * dt, dt / spec.discharge_efficiency
    cols = np.stack([level, np.concatenate(([-1], level[:-1])), charge, discharge], axis=1)
    coefs = np.broadcast_to(np.array([1.0, -keep, -cin, dout]), cols.shape)
    const = np.zeros(n)
    const[0] = -(spec.initial_level * keep)
    model.add_rows(ExprBlock(np.concatenate(([0], np.arange(1, n + 1) * 4 - 1)),
                             np.delete(cols.ravel(), 1), np.delete(coefs.ravel(), 1), const),
                   EQ, 0.0, f"{spec.name}.level")
    ledger.add_sink(spec.carrier, spec.name, ExprBlock.columns(charge))
    ledger.add_source(spec.carrier, spec.name, ExprBlock.columns(discharge))
    prefix = {HEAT: "thermal", COLD: "cooling", ELECTRIC: "electric"}[spec.carrier]
    ledger.add_state(f"{prefix}EnergyLevel_{spec.name}", ExprBlock.columns(level))


# ---------------------------------------------------------------------------
# converters (heating rod, burner, boiler, absorption chiller)

PRIMARY = "primary"


@dataclass(frozen=True)
class ConverterSpec:
    name: str
    input_carrier: str
    output_carrier: str
    efficiency: float
    max_input_power: float
    input_price: tuple = ()  # ct/kWh, required for primary input

    def __post_init__(self):
        if self.input_carrier not in (ELECTRIC, PRIMARY, HEAT):
            raise ModelError(f"{self.name}: unsupported input carrier {self.input_carrier!r}")
        if self.output_carrier not in (HEAT, COLD):
            raise ModelError(f"{self.name}: unsupported output carrier {self.output_carrier!r}")
        if not (0 < self.efficiency <= 1):
            raise ModelError(f"{self.name}: efficiency must lie in (0, 1]")
        if not (self.max_input_power > 0):
            raise ModelError(f"{self.name}: maxInputPower must be positive")
        if self.input_carrier == PRIMARY and not self.input_price:
            raise ModelError(f"{self.name}: a primary-fired converter needs a price series")


def build_converter(model: Model, spec: ConverterSpec, grid: TimeGrid,
                    ledger: BalanceLedger) -> None:
    n = grid.n_units
    inp = model.continuous_series(f"{spec.name}.input", n, 0.0, spec.max_input_power)
    if spec.input_carrier == PRIMARY:
        price = _check_series(spec.input_price, n, f"{spec.name}.input_price")
        dt = grid.hours_per_unit
        ledger.add_financial_input(spec.name, ExprBlock.scaled(inp, np.array(price) * dt))
        ledger.add_state(f"primaryInputPower_{spec.name}", ExprBlock.columns(inp))
    else:
        ledger.add_sink(spec.input_carrier, spec.name, ExprBlock.columns(inp))
    ledger.add_source(spec.output_carrier, spec.name, ExprBlock.scaled(inp, spec.efficiency))


# ---------------------------------------------------------------------------
# PV


@dataclass(frozen=True)
class PvSpec:
    name: str
    output: tuple
    curtailable: bool = False


def build_profile_source(model: Model, spec: PvSpec, grid: TimeGrid,
                         ledger: BalanceLedger) -> None:
    out = _check_series(spec.output, grid.n_units, f"{spec.name}.output", lo=0.0)
    if spec.curtailable:
        cols = model.continuous_series(f"{spec.name}.output", grid.n_units, 0.0, out)
        ledger.add_source(ELECTRIC, spec.name, ExprBlock.columns(cols))
    else:
        ledger.add_source(ELECTRIC, spec.name, ExprBlock.constants(out))


# ---------------------------------------------------------------------------
# mechanical CHP with peak boiler


@dataclass(frozen=True)
class MechChpSpec:
    name: str
    eta_th: float
    eta_el: float
    p_th_max: float
    p_th_min: float
    boiler_eta: float
    boiler_p_max: float  # maximum boiler heat output
    primary_price: tuple
    k_on: float = 0.0
    k_off: float = 0.0
    min_run_time: float = 0.0
    min_off_time: float = 0.0
    is_on_at_begin: bool = False
    last_change_hours: float = 0.0

    def __post_init__(self):
        if not (0 < self.eta_th < 1 and 0 < self.eta_el < 1):
            raise ModelError(f"{self.name}: efficiencies must lie strictly between 0 and 1")
        if self.eta_th + self.eta_el >= 1:
            raise ModelError(f"{self.name}: eta_th + eta_el must be below 1")
        check_finite_powers({"maxThermalPower": self.p_th_max, "minThermalPower": self.p_th_min},
                            self.name)
        if not (0 < self.p_th_min <= self.p_th_max):
            raise ModelError(f"{self.name}: need 0 < P_th_min <= P_th_max")
        if not (0 < self.boiler_eta <= 1):
            raise ModelError(f"{self.name}: boiler efficiency must lie in (0, 1]")
        if self.boiler_p_max < 0:
            raise ModelError(f"{self.name}: boiler output limit must be non-negative")
        if not (math.isfinite(self.k_on) and math.isfinite(self.k_off)):
            raise ModelError(f"{self.name}: switching costs must be finite")


def build_mech_chp(model: Model, spec: MechChpSpec, grid: TimeGrid,
                   ledger: BalanceLedger) -> None:
    """Mechanical CHP: thermal output in [p_th_min, p_th_max] while on and 0
    while off, electric output in fixed ratio to it, and a peak boiler.

    The output out[i] is one ``linearize.gated_column`` in [0, p_th_max] between
    the gate rows ``p_th_min * x - out <= 0`` and ``out - p_th_max * x <= 0``.
    A ``product_bin_bounded`` would add a set-point column and track rows that
    appear in no other row; without them the feasible set, LP relaxation
    included, is the same.
    """
    n = grid.n_units
    dt = grid.hours_per_unit
    price = _check_series(spec.primary_price, n, f"{spec.name}.primary_price")
    chain = _switched_chain(model, spec, grid)
    heat, boiler_heat = [], []
    rows = RowList(model)
    for i in range(1, n + 1):
        x = chain.x[i - 1]
        heat.append(gated_column(rows, x, spec.p_th_min, spec.p_th_max,
                                 f"{spec.name}.out[{i}]", f"{spec.name}.modulation.i={i}"))
        boiler_heat.append(model.continuous(f"{spec.name}.boiler[{i}]", 0.0, spec.boiler_p_max))
    rows.store()

    ledger.add_source(HEAT, spec.name, [heat[i] + boiler_heat[i] for i in range(n)])
    ledger.add_source(ELECTRIC, spec.name, [h * (spec.eta_el / spec.eta_th) for h in heat])
    primary = [heat[i] * (1.0 / spec.eta_th) + boiler_heat[i] * (1.0 / spec.boiler_eta)
               for i in range(n)]
    fin = []
    for i in range(n):
        e = primary[i] * (price[i] * dt)
        e = e + chain.start[i] * spec.k_on + chain.stop[i] * spec.k_off
        fin.append(e)
    ledger.add_financial_input(spec.name, fin)
    ledger.add_state(f"primaryInputPower_{spec.name}", primary)
    ledger.add_state(f"on_{spec.name}", chain.x)
