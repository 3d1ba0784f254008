"""From parsed configuration + situation to a built and solved model.

``xmlio.ELEMENTS`` has one row per XML element.  For each configured
component, :func:`build_problem` finds its situation entry, collects the spec
keywords the row maps its attributes to, loads its series, builds the spec and
calls the builder the row names in :mod:`besched.components`.  The builders
populate one model and ledger; the carrier balances and the objective close
it.  Two elements add their own step: Usage rejects a nonzero initial
heating or cooling energy, and FcCHP splits its keywords over its three
parameter objects and adds its historical starts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import components as comp
from .assembly import BalanceLedger, TimeGrid, build_balances, build_objective
from .errors import InputError
from .fcchp import FcchpCostParams, FcchpInitialState, FcchpPhysicalParams
from .milp import Model
from .solver import SolveOptions, Solution, solve_builtin
from .timeseries import load_timeseries
from .xmlio import (ELEMENTS, ZERO, BuildingConfiguration, BuildingSituation, ElementRow,
                    ParsedComponent)

FCCHP_PARAMS = (FcchpPhysicalParams, FcchpCostParams, FcchpInitialState)


@dataclass
class Problem:
    model: Model
    ledger: BalanceLedger
    grid: TimeGrid


def _keywords(row: ElementRow, c: ParsedComponent, entry: ParsedComponent | None, n: int,
              base_dir, csv_tables: dict) -> dict:
    """The spec keywords of one component, its series loaded."""
    kw = dict(row.fixed)
    for attrs, schema in ((c.attrs, row.config), (entry.attrs if entry else {}, row.situation)):
        kw.update((a.key, attrs[name]) for name, a in schema.items() if a.key and name in attrs)
    required = row.required_series(c.attrs)
    for name, s in row.series.items():
        ref = entry.series.get(name) if entry else None
        if ref is not None:
            kw[s.key] = load_timeseries(ref, n, base_dir, csv_tables)
        elif name in required:
            raise InputError(f"component {c.id!r}: missing series <{name}>")
        elif s.default == ZERO:
            kw[s.key] = [0.0] * n
    return kw


def build_problem(config: BuildingConfiguration, situation: BuildingSituation,
                  base_dir=".") -> Problem:
    grid = TimeGrid(situation.n_units, situation.hours_per_unit, start=situation.start)
    model = Model(config.id)
    ledger = BalanceLedger(grid)
    csv_tables = {}  # CSV container -> its table, read once for all series of this build

    for c in config.components:
        row = ELEMENTS[c.element]
        entry = situation.by_id.get(c.id)
        if entry is None and row.needs_situation(c.attrs):
            raise InputError(f"component {c.id!r} has no situation entry")
        if c.element == "Usage":
            for attr in ("maxInitialHeatingEnergy", "maxInitialCoolingEnergy"):
                if entry.attrs.get(attr, 0.0) != 0.0:
                    raise InputError(f"component {c.id!r}: nonzero {attr} is not supported")
        kw = _keywords(row, c, entry, grid.n_units, base_dir, csv_tables)
        if c.element == "FcCHP":
            phys, costs, init = ({f.name: kw[f.name] for f in fields(cls) if f.name in kw}
                                 for cls in FCCHP_PARAMS)
            init = {k: int(v) for k, v in init.items()}  # flags arrive as booleans
            init["start_history"] = {u: 1 for u in entry.historical_starts}
            phys["name"] = c.id
            getattr(comp, row.builder)(
                model, grid, FcchpPhysicalParams(**phys), FcchpCostParams(**costs),
                FcchpInitialState(**init), name=c.id).build(ledger)
        else:
            spec = getattr(comp, row.spec)(name=c.id, **kw)
            getattr(comp, row.builder)(model, spec, grid, ledger)

    build_balances(model, ledger)
    build_objective(model, ledger)
    return Problem(model=model, ledger=ledger, grid=grid)


def solve_problem(problem: Problem, options: SolveOptions | None = None) -> Solution:
    options = options or SolveOptions()
    if options.backend == "external":
        from .external import solve_external

        return solve_external(problem.model, options)
    return solve_builtin(problem.model, options)
