"""Time grid, per-carrier balance assembly, and the financial objective.

Every component sub-model registers its per-unit power expressions in a
BalanceLedger under one of three energy carriers (electric, heat, cold) and
its money flows as financial inputs (costs) or outputs (yields).  Assembly
then emits one balance equality per carrier and unit and a single minimize
objective of total costs minus total yields.  Primary energy (gas) is not a
balanced carrier: it is bought freely at posted prices and appears only in
the financial entries of the components that burn it.

The ledger keeps each series as one ``ExprBlock``: a builder registers a
block, or a list of expressions that is converted once.  The balances of a
carrier are then assembled from the stacked blocks in one pass and added
with ``Model.add_rows``, and the objective is accumulated in one vector.
Both add the terms in the order the ``LinExpr`` sums did (series, then
unit, then term), so every coefficient is the same float, and a term that
cancels to 0.0 is dropped as ``LinExpr`` drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, StructuralInfeasibility
from .milp import EQ, ExprBlock, LinExpr, Model

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

    def _units(self, hours: float, label: str) -> float:
        """``label`` names the duration in an error, e.g. ``pump.minRunTimeInHours``."""
        if not math.isfinite(hours):
            where = f"{label}: " if label else ""
            raise ModelError(f"{where}a duration of {hours} h has no whole number of time units")
        return hours / self.hours_per_unit

    def units_ceil(self, hours: float, label: str = "") -> int:
        """Smallest whole number of units covering the duration."""
        return math.ceil(round(self._units(hours, label), 9))

    def units_floor(self, hours: float, label: str = "") -> int:
        return math.floor(round(self._units(hours, label), 9))

    def units_round(self, hours: float, label: str = "") -> int:
        return round(self._units(hours, label))


def check_finite_powers(powers: dict, name: str = "") -> None:
    """Refuse a non-finite power: ``powers`` maps each XML attribute to its
    value in kW, and ``name``, the component's id, prefixes it in the error."""
    for attr, value in powers.items():
        if not math.isfinite(value):
            where = f"{name}." if name else ""
            raise ModelError(f"{where}{attr}: a power of {value} kW is not finite")


class BalanceLedger:
    """Registry of every component's power and financial expressions.

    A series is an ``ExprBlock`` or a sequence of ``LinExpr``, ``Var`` or
    numbers, one per unit; it is kept as a block.
    """

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.power: dict = {c: {SOURCE: [], SINK: []} for c in CARRIERS}  # (component, block)
        self.financial: dict = {"input": [], "output": []}
        self.blocks: list = []  # (name, block) extracted into schedules

    @property
    def states(self) -> list:
        """(name, [LinExpr]) of every schedule series, built on each read."""
        return [(name, block.exprs()) for name, block in self.blocks]

    def _check_series(self, series, label) -> ExprBlock:
        if len(series) != self.grid.n_units:
            raise ModelError(
                f"{label}: series has {len(series)} entries, expected {self.grid.n_units}"
            )
        return series if isinstance(series, ExprBlock) else ExprBlock.from_exprs(series)

    def add_power(self, carrier: str, role: str, component: str, series) -> None:
        if carrier not in CARRIERS:
            raise ModelError(f"unknown carrier {carrier!r}")
        if role not in (SOURCE, SINK):
            raise ModelError(f"unknown role {role!r}")
        entries = self.power[carrier][role]
        if any(name == component for name, _ in entries):
            raise ModelError(f"component {component!r} already registered as {carrier} {role}")
        block = self._check_series(series, f"{component}/{carrier}/{role}")
        entries.append((component, block))
        self._add_state(f"{SERIES_PREFIX[(carrier, role)]}_{component}", block)

    def add_source(self, carrier, component, series):
        self.add_power(carrier, SOURCE, component, series)

    def add_sink(self, carrier, component, series):
        self.add_power(carrier, SINK, component, series)

    def add_financial(self, role: str, component: str, series) -> None:
        if role not in ("input", "output"):
            raise ModelError(f"unknown financial role {role!r}")
        block = self._check_series(series, f"{component}/financial/{role}")
        self.financial[role].append((component, block))
        self._add_state(f"financial{'Input' if role == 'input' else 'Output'}_{component}", block)

    def add_financial_input(self, component, series):
        self.add_financial("input", component, series)

    def add_financial_output(self, component, series):
        self.add_financial("output", component, series)

    def add_state(self, name: str, series) -> None:
        self._add_state(name, self._check_series(series, name))

    def _add_state(self, name: str, block: ExprBlock) -> None:
        if any(n == name for n, _ in self.blocks):
            raise ModelError(f"state series {name!r} already registered")
        self.blocks.append((name, block))


def build_balances(model: Model, ledger: BalanceLedger) -> None:
    """One equality per carrier and unit: sum of sources = sum of sinks.

    Carriers with no registrations produce no rows.  A carrier whose rows can
    never hold (forced nonzero power with nothing on the other side) is
    reported as structurally infeasible before any solver runs.  Each row's
    terms are stored in column order.
    """
    n = ledger.grid.n_units
    for carrier in CARRIERS:
        blocks = [b for _, b in ledger.power[carrier][SOURCE]]
        blocks += [b.negated() for _, b in ledger.power[carrier][SINK]]
        if not blocks:
            continue
        const = np.zeros(n)
        for b in blocks:
            const = const + b.const
        net = ExprBlock.stack(blocks)
        # every term keyed by (unit, column), in the order the sums add them
        unit = np.repeat(np.arange(len(net)) % n, np.diff(net.ptr))
        width = max(model.n_columns, 1)
        keys, where = np.unique(unit * width + net.cols, return_inverse=True)
        coefs = np.zeros(len(keys))
        np.add.at(coefs, where, net.coefs)
        kept = coefs != 0.0
        unit, cols = np.divmod(keys[kept], width)
        ptr = np.concatenate(([0], np.cumsum(np.bincount(unit, minlength=n))))
        forced = np.flatnonzero((ptr[1:] == ptr[:-1]) & (np.abs(const) > 1e-12))
        if len(forced):
            i = int(forced[0])
            side = "sinks" if const[i] < 0 else "sources"
            raise StructuralInfeasibility(
                f"{carrier} balance at unit {i + 1} forces {abs(float(const[i]))} kW "
                f"with no matching {side}"
            )
        model.add_rows(ExprBlock(ptr, cols, coefs[kept], const), EQ, 0.0, f"balance.{carrier}")


def build_objective(model: Model, ledger: BalanceLedger) -> None:
    """Total costs enter positive, total yields negative; sense is minimize.

    The coefficients are summed per column in one vector, series by series
    and unit by unit, and the constants one by one in the same order.
    """
    blocks = [b for _, b in ledger.financial["input"]]
    blocks += [b.negated() for _, b in ledger.financial["output"]]
    coefs = np.zeros(model.n_columns)
    const = 0.0
    for b in blocks:
        np.add.at(coefs, b.cols, b.coefs)
        for k in b.const.tolist():
            const += k
    cols = np.flatnonzero(coefs)
    model.set_objective(LinExpr(dict(zip(cols.tolist(), coefs[cols].tolist())), const))
