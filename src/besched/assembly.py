"""Time grid, per-carrier balance assembly, and the financial objective.

Every component sub-model registers its per-unit power expressions in a
BalanceLedger under one of three energy carriers (electric, heat, cold) and
its money flows as financial inputs (costs) or outputs (yields).  Assembly
then emits one balance equality per carrier and unit and a single minimize
objective of total costs minus total yields.  Primary energy (gas) is not a
balanced carrier: it is bought freely at posted prices and appears only in
the financial entries of the components that burn it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelError, StructuralInfeasibility
from .milp import EQ, LinExpr, Model, as_expr

ELECTRIC = "electric"
HEAT = "heat"
COLD = "cold"
CARRIERS = (ELECTRIC, HEAT, COLD)

SOURCE = "source"
SINK = "sink"

# naming convention for schedule-addressable series, per carrier and role
SERIES_PREFIX = {
    (ELECTRIC, SOURCE): "electricOutputPower",
    (ELECTRIC, SINK): "electricInputPower",
    (HEAT, SOURCE): "thermalOutputPower",
    (HEAT, SINK): "thermalInputPower",
    (COLD, SOURCE): "coolingOutputPower",
    (COLD, SINK): "coolingInputPower",
}


@dataclass(frozen=True)
class TimeGrid:
    """Scheduling horizon [0, T] split into n_units equal time units."""

    n_units: int
    hours_per_unit: float
    start: str | None = None  # ISO timestamp of unit 1's begin, if known

    def __post_init__(self):
        if self.n_units < 1:
            raise ModelError(f"n_units must be >= 1, got {self.n_units}")
        if not (self.hours_per_unit > 0):
            raise ModelError(f"hoursPerTimeUnit must be positive, got {self.hours_per_unit}")

    def units_ceil(self, hours: float) -> int:
        """Smallest whole number of units covering the duration."""
        return math.ceil(round(hours / self.hours_per_unit, 9))

    def units_floor(self, hours: float) -> int:
        return math.floor(round(hours / self.hours_per_unit, 9))

    def units_round(self, hours: float) -> int:
        return round(hours / self.hours_per_unit)


class BalanceLedger:
    """Registry of every component's power and financial expressions."""

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.power: dict = {c: {SOURCE: [], SINK: []} for c in CARRIERS}
        self.financial: dict = {"input": [], "output": []}
        self.states: list = []  # (name, series) extracted into schedules

    def _check_series(self, series, label):
        if len(series) != self.grid.n_units:
            raise ModelError(
                f"{label}: series has {len(series)} entries, expected {self.grid.n_units}"
            )
        return list(map(as_expr, series))

    def add_power(self, carrier: str, role: str, component: str, series) -> None:
        if carrier not in CARRIERS:
            raise ModelError(f"unknown carrier {carrier!r}")
        if role not in (SOURCE, SINK):
            raise ModelError(f"unknown role {role!r}")
        entries = self.power[carrier][role]
        if any(name == component for name, _ in entries):
            raise ModelError(f"component {component!r} already registered as {carrier} {role}")
        exprs = self._check_series(series, f"{component}/{carrier}/{role}")
        entries.append((component, exprs))
        self._add_state(f"{SERIES_PREFIX[(carrier, role)]}_{component}", exprs)

    def add_source(self, carrier, component, series):
        self.add_power(carrier, SOURCE, component, series)

    def add_sink(self, carrier, component, series):
        self.add_power(carrier, SINK, component, series)

    def add_financial(self, role: str, component: str, series) -> None:
        if role not in ("input", "output"):
            raise ModelError(f"unknown financial role {role!r}")
        exprs = self._check_series(series, f"{component}/financial/{role}")
        self.financial[role].append((component, exprs))
        self._add_state(f"financial{'Input' if role == 'input' else 'Output'}_{component}", exprs)

    def add_financial_input(self, component, series):
        self.add_financial("input", component, series)

    def add_financial_output(self, component, series):
        self.add_financial("output", component, series)

    def add_state(self, name: str, series) -> None:
        self._add_state(name, list(map(as_expr, series)))

    def _add_state(self, name: str, exprs: list) -> None:
        if any(n == name for n, _ in self.states):
            raise ModelError(f"state series {name!r} already registered")
        self.states.append((name, exprs))


def build_balances(model: Model, ledger: BalanceLedger) -> None:
    """One equality per carrier and unit: sum of sources = sum of sinks.

    Carriers with no registrations produce no rows.  A carrier whose rows can
    never hold (forced nonzero power with nothing on the other side) is
    reported as structurally infeasible before any solver runs.
    """
    n = ledger.grid.n_units
    for carrier in CARRIERS:
        sources = ledger.power[carrier][SOURCE]
        sinks = ledger.power[carrier][SINK]
        if not sources and not sinks:
            continue
        for i in range(n):
            net = LinExpr()
            for _, exprs in sources:
                net.accumulate(exprs[i])
            for _, exprs in sinks:
                net.accumulate(exprs[i], subtract=True)
            if not net.terms and abs(net.const) > 1e-12:
                side = "sinks" if net.const < 0 else "sources"
                raise StructuralInfeasibility(
                    f"{carrier} balance at unit {i + 1} forces {abs(net.const)} kW "
                    f"with no matching {side}"
                )
            model.add_constraint(net, EQ, 0.0, f"balance.{carrier}.i={i + 1}")


def build_objective(model: Model, ledger: BalanceLedger) -> None:
    """Total costs enter positive, total yields negative; sense is minimize."""
    obj = LinExpr()
    for _, exprs in ledger.financial["input"]:
        for e in exprs:
            obj.accumulate(e)
    for _, exprs in ledger.financial["output"]:
        for e in exprs:
            obj.accumulate(e, subtract=True)
    model.set_objective(obj)
