"""Turn a solved model into named per-unit series ready for export.

The ledger's state series are stacked into one CSR matrix and evaluated
against the solution in one mat-vec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .assembly import BalanceLedger, TimeGrid
from .errors import SolverError
from .milp import ExprBlock
from .solver import Solution


@dataclass
class Schedule:
    """Cost-minimal operation plan: one value series per registered state."""

    grid: TimeGrid
    status: str
    objective: float | None  # None when no solution was found
    series: dict  # name -> list of floats, length n_units
    stats: dict = field(default_factory=dict)


def extract_schedule(ledger: BalanceLedger, solution: Solution) -> Schedule:
    """Evaluate every ledger-registered state series against the solution's
    point ``solution.x``; a solution with no point raises :class:`SolverError`.

    The state blocks are stacked into one CSR matrix, one row per unit of
    each series with its terms in insertion order.  The products are formed
    first, and one mat-vec with a vector of ones adds them row by row in that
    order, then each row's constant is added, as ``Model.evaluate`` adds
    them, so every value is the same float (a mat-vec over the solution
    itself could fuse a multiply and an add and round differently).  Values
    are rounded by Python's ``round(v, 12)``, which rounds the decimal
    value; ``np.round`` scales by 1e12 and can change the last digit.
    """
    x = solution.x
    if x is None:
        raise SolverError(
            f"cannot extract a schedule from a {solution.status!r} solution without values"
        )
    states = ExprBlock.stack([block for _, block in ledger.blocks])
    products = csr_matrix((states.coefs * x[states.cols], states.cols, states.ptr),
                          shape=(len(states), len(x)))
    total = products @ np.ones(len(x)) + states.const
    # round(v, 12) leaves a whole number as it is
    flat = total.tolist()
    for i in np.flatnonzero(total != np.floor(total)).tolist():
        flat[i] = round(flat[i], 12)
    series, end = {}, 0
    for name, block in ledger.blocks:
        series[name] = flat[end:end + len(block)]
        end += len(block)
    return Schedule(
        grid=ledger.grid,
        status=solution.status,
        objective=solution.objective,
        series=series,
        stats=dict(solution.stats),
    )
