"""Turn a solved model into named per-unit series ready for export."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np

from .assembly import BalanceLedger, TimeGrid
from .errors import SolverError
from .milp import Model
from .solver import Solution

_terms = attrgetter("terms")
_const = attrgetter("const")


@dataclass
class Schedule:
    """Cost-minimal operation plan: one value series per registered state."""

    grid: TimeGrid
    status: str
    objective: float | None  # None when no solution was found
    series: dict  # name -> list of floats, length n_units
    stats: dict = field(default_factory=dict)


def extract_schedule(model: Model, ledger: BalanceLedger, solution: Solution) -> Schedule:
    """Evaluate every ledger-registered state series against the solution.

    All state expressions are stacked into one sparse product with the
    solution vector.  Each expression keeps its terms in insertion order and
    its products are added one by one in that order, then its constant, as
    ``Model.evaluate`` adds them, so every value is the same float.  Values
    are rounded by Python's ``round(v, 12)``, which rounds the decimal
    value; ``np.round`` scales by 1e12 and can change the last digit.
    """
    if not solution.values:
        raise SolverError(
            f"cannot extract a schedule from a {solution.status!r} solution without values"
        )
    exprs = [e for _, series in ledger.states for e in series]
    n = len(exprs)
    lens = np.fromiter(map(len, map(_terms, exprs)), dtype=np.int64, count=n)
    starts = np.cumsum(lens) - lens
    nnz = int(lens.sum())
    cols = np.fromiter(chain.from_iterable(map(_terms, exprs)), dtype=np.int64, count=nnz)
    coefs = np.fromiter(chain.from_iterable(map(dict.values, map(_terms, exprs))),
                        dtype=float, count=nnz)
    products = coefs * solution.vector(model)[cols]
    total = np.zeros(n)
    # the k-th term of every expression that has one, for k = 0, 1, ...
    for k in range(int(lens.max(initial=0))):
        rows = np.flatnonzero(lens > k)
        total[rows] += products[starts[rows] + k]
    total += np.fromiter(map(_const, exprs), dtype=float, count=n)
    # round(v, 12) leaves a whole number as it is
    flat = total.tolist()
    for i in np.flatnonzero(total != np.floor(total)).tolist():
        flat[i] = round(flat[i], 12)
    series, end = {}, 0
    for name, state in ledger.states:
        series[name] = flat[end:end + len(state)]
        end += len(state)
    return Schedule(
        grid=ledger.grid,
        status=solution.status,
        objective=solution.objective,
        series=series,
        stats=dict(solution.stats),
    )
