"""Turn a solved model into named per-unit series ready for export."""

from __future__ import annotations

from dataclasses import dataclass, field

from .assembly import BalanceLedger, TimeGrid
from .errors import SolverError
from .milp import Model
from .solver import Solution


@dataclass
class Schedule:
    """Cost-minimal operation plan: one value series per registered state."""

    grid: TimeGrid
    status: str
    objective: float | None  # None when no solution was found
    series: dict  # name -> list of floats, length n_units
    stats: dict = field(default_factory=dict)


def extract_schedule(model: Model, ledger: BalanceLedger, solution: Solution) -> Schedule:
    """Evaluate every ledger-registered state series against the solution."""
    if not solution.values:
        raise SolverError(
            f"cannot extract a schedule from a {solution.status!r} solution without values"
        )
    values = solution.values
    series = {}
    for name, exprs in ledger.states:
        series[name] = [
            round(model.evaluate(e, values), 12) for e in exprs
        ]
    return Schedule(
        grid=ledger.grid,
        status=solution.status,
        objective=solution.objective,
        series=series,
        stats=dict(solution.stats),
    )
