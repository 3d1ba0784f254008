"""Built-in exact branch-and-bound for desk-scale models.

The LP relaxation of each node is solved either by the package's own dense
two-phase simplex or, above a size threshold, by scipy's HiGHS LP interface
(the tree search itself is always ours).  Node exploration is sequential and
deterministic: branch on the most fractional integer variable (ties by
lowest variable index), dive on the floor branch first, backtrack to the
open node with the best bound.

:class:`ModelArrays` compiles a model once into one sparse CSR constraint
matrix.  Presolve, both LP backends and the verification of every reported
solution read that matrix.  Presolve is activity-based bound propagation run
as whole-matrix passes until no bound moves (Savelsbergh, ORSA J. Computing
1994); it proves many fixed-pattern models infeasible without any LP.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix

from .errors import NumericalFailure, SolverError
from .milp import GE, LE, Model

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "timeLimit"

# dense simplex is preferred up to this many rows + columns
_DENSE_LIMIT = 500
_PRESOLVE_PASSES = 300  # a pass moves bounds one row along a chain; fixpoints seen took <= 198


@dataclass
class SolveOptions:
    backend: str = "builtin"
    command: str | None = None  # external template with {in} and {out}
    gap_tol: float = 1e-6  # absolute optimality gap
    time_limit: float | None = None  # seconds
    int_tol: float = 1e-6  # integer feasibility tolerance
    lp_backend: str = "auto"  # auto | dense | highs
    verify_tol: float = 1e-6

    def __post_init__(self):
        if self.gap_tol <= 0 or self.int_tol <= 0 or self.verify_tol <= 0:
            raise SolverError("tolerances must be positive")


@dataclass
class Solution:
    status: str
    values: dict = field(default_factory=dict)  # variable name -> value
    objective: float = math.nan
    stats: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE)

    def vector(self, model: Model) -> np.ndarray:
        return np.array([self.values[v.name] for v in model.vars])


class ModelArrays:
    """The model's arrays: one CSR constraint matrix ``a`` with its ``rhs`` and
    sense masks, read by presolve, both LP backends and verification."""

    def __init__(self, model: Model):
        self.model = model
        n = len(model.vars)
        self.n = n
        self.c = np.zeros(n)
        for vid, coef in model.objective.terms.items():
            self.c[vid] = coef
        self.obj_const = model.objective.const
        self.lo = np.array([v.domain.lo for v in model.vars], dtype=float)
        self.hi = np.array([v.domain.hi for v in model.vars], dtype=float)
        self.integral = np.array([v.domain.is_integral for v in model.vars], dtype=bool)
        cons = model.constraints
        row_len = np.fromiter((len(con.terms) for con in cons), dtype=np.int64, count=len(cons))
        indptr = np.concatenate(([0], np.cumsum(row_len)))
        nnz = int(indptr[-1])
        cols = np.fromiter(chain.from_iterable(con.terms for con in cons), dtype=np.int64,
                           count=nnz)
        data = np.fromiter(chain.from_iterable(con.terms.values() for con in cons),
                           dtype=float, count=nnz)
        self.a = csr_matrix((data, cols, indptr), shape=(len(cons), n))
        self.a.sort_indices()
        self.rhs = np.array([con.rhs for con in cons], dtype=float)
        self.senses = [con.sense for con in cons]
        self.le = np.array([s != GE for s in self.senses], dtype=bool)  # LE or EQ
        self.ge = np.array([s != LE for s in self.senses], dtype=bool)  # GE or EQ

    # -- LP backends --------------------------------------------------------

    def pick_backend(self, requested: str) -> str:
        if requested != "auto":
            return requested
        return "dense" if self.n + self.a.shape[0] <= _DENSE_LIMIT else "highs"

    def solve_lp(self, lo, hi, backend: str):
        """Returns (status, x, objective) ignoring integrality."""
        if backend == "dense":
            from . import simplex

            status, x, obj = simplex.solve_lp(
                self.c, self.a.toarray(), self.senses, self.rhs, lo, hi
            )
            if status == simplex.OPTIMAL:
                return OPTIMAL, x, obj + self.obj_const
            return (INFEASIBLE if status == simplex.INFEASIBLE else UNBOUNDED), None, None
        if backend == "highs":
            from scipy.optimize import linprog

            # one-sided rows in model order, GE rows negated into LE form
            ub = self.le != self.ge
            eq = self.le & self.ge
            sign = np.where(self.ge[ub], -1.0, 1.0)
            a_ub = self.a[ub]
            a_ub.data *= np.repeat(sign, np.diff(a_ub.indptr))
            res = linprog(
                self.c,
                A_ub=a_ub if ub.any() else None,
                b_ub=sign * self.rhs[ub],
                A_eq=self.a[eq] if eq.any() else None,
                b_eq=self.rhs[eq],
                bounds=np.column_stack([lo, hi]),
                method="highs",
            )
            if res.status == 0:
                return OPTIMAL, res.x, float(res.fun) + self.obj_const
            if res.status == 2:
                return INFEASIBLE, None, None
            if res.status == 3:
                return UNBOUNDED, None, None
            raise NumericalFailure(f"HiGHS LP failed: {res.message}")
        raise SolverError(f"unknown LP backend {backend!r}")

    # -- presolve: iterated activity-based bound tightening ------------------

    def tighten_bounds(self, lo, hi):
        """Returns (feasible, lo, hi) with tightened copies.

        Each pass computes every row's minimum and maximum activity under the
        current bounds, proves infeasibility where a row cannot be met, and
        tightens each variable to the tightest bound its rows imply.
        """
        lo = lo.copy()
        hi = hi.copy()
        a, b = self.a, self.rhs
        coef, col = a.data, a.indices
        row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        pos, neg = coef > 0, coef < 0
        le_nz, ge_nz, b_nz = self.le[row], self.ge[row], b[row]
        for _ in range(_PRESOLVE_PASSES):
            if np.any(lo > hi + 1e-9):
                return False, lo, hi
            term_min = np.where(pos, coef * lo[col], coef * hi[col])
            term_max = np.where(pos, coef * hi[col], coef * lo[col])
            min_act = np.bincount(row, term_min, minlength=len(b))
            max_act = np.bincount(row, term_max, minlength=len(b))
            if np.any(self.le & (min_act > b + 1e-7)) or np.any(self.ge & (max_act < b - 1e-7)):
                return False, lo, hi
            # a row with an infinite activity bound implies nothing
            from_le = le_nz & np.isfinite(min_act)[row]
            from_ge = ge_nz & np.isfinite(max_act)[row]
            with np.errstate(divide="ignore", invalid="ignore"):
                cap_le = (b_nz - (min_act[row] - term_min)) / coef
                cap_ge = (b_nz - (max_act[row] - term_max)) / coef
            new_hi, new_lo = hi.copy(), lo.copy()
            for sel, cap in ((from_le & pos, cap_le), (from_ge & neg, cap_ge)):
                np.minimum.at(new_hi, col[sel], cap[sel])
            for sel, cap in ((from_le & neg, cap_le), (from_ge & pos, cap_ge)):
                np.maximum.at(new_lo, col[sel], cap[sel])
            tighter_hi = new_hi < hi - 1e-9
            tighter_lo = new_lo > lo + 1e-9
            if not (tighter_hi.any() or tighter_lo.any()):
                break
            hi[tighter_hi] = new_hi[tighter_hi]
            lo[tighter_lo] = new_lo[tighter_lo]
            mask = self.integral
            lo[mask] = np.ceil(lo[mask] - 1e-6)
            hi[mask] = np.floor(hi[mask] + 1e-6)
        if np.any(lo > hi + 1e-9):
            return False, lo, hi
        return True, lo, hi

    # -- verification ---------------------------------------------------------

    def max_violation(self, x) -> float:
        """Largest violation of any row or variable bound; inf for a NaN entry."""
        act = self.a @ x
        worst = np.max(
            np.concatenate([
                (act - self.rhs)[self.le],
                (self.rhs - act)[self.ge],
                self.lo - x,
                x - self.hi,
            ]),
            initial=0.0,
        )
        return math.inf if math.isnan(worst) else float(worst)

    def objective_value(self, x) -> float:
        return float(self.c @ x) + self.obj_const


def solve_builtin(model: Model, options: SolveOptions | None = None) -> Solution:
    """Exact branch-and-bound.  Never returns a silently wrong answer: the
    incumbent is re-verified against every row before being reported."""
    options = options or SolveOptions()
    arrays = ModelArrays(model)
    backend = arrays.pick_backend(options.lp_backend)
    t0 = time.monotonic()
    deadline = t0 + options.time_limit if options.time_limit else None

    ok, lo0, hi0 = arrays.tighten_bounds(arrays.lo, arrays.hi)
    if not ok:
        return Solution(INFEASIBLE, stats={"nodes": 0, "lp_solves": 0})

    counter = 0
    heap = []  # (parent bound, counter, lo, hi)
    heapq.heappush(heap, (-math.inf, counter, lo0, hi0))
    incumbent = None
    inc_obj = math.inf
    nodes = 0
    lp_solves = 0
    hit_time_limit = False

    while heap:
        bound, _, lo, hi = heapq.heappop(heap)
        if bound >= inc_obj - options.gap_tol:
            continue
        # depth-first dive from this node
        while True:
            if deadline and time.monotonic() > deadline:
                hit_time_limit = True
                heap = []
                break
            nodes += 1
            status, x, obj = arrays.solve_lp(lo, hi, backend)
            lp_solves += 1
            if status == UNBOUNDED:
                if incumbent is None and nodes == 1:
                    return Solution(
                        UNBOUNDED, stats={"nodes": nodes, "lp_solves": lp_solves}
                    )
                break
            if status != OPTIMAL or obj >= inc_obj - options.gap_tol:
                break
            frac = np.abs(x - np.round(x))
            frac[~arrays.integral] = 0.0
            cand = np.where(frac > options.int_tol)[0]
            if len(cand) == 0:
                xi = x.copy()
                xi[arrays.integral] = np.round(xi[arrays.integral])
                obj_i = arrays.objective_value(xi)
                if obj_i < inc_obj - 1e-12:
                    inc_obj = obj_i
                    incumbent = xi
                break
            # most fractional, ties by lowest index
            j = int(cand[np.argmax(frac[cand])])
            floor_v = math.floor(x[j])
            up_lo = lo.copy()
            up_lo[j] = floor_v + 1
            counter += 1
            heapq.heappush(heap, (obj, counter, up_lo, hi.copy()))
            hi = hi.copy()
            hi[j] = floor_v

    elapsed = time.monotonic() - t0
    stats = {"nodes": nodes, "lp_solves": lp_solves, "time": elapsed, "backend": backend}
    if incumbent is None:
        return Solution(TIME_LIMIT if hit_time_limit else INFEASIBLE, stats=stats)

    violation = arrays.max_violation(incumbent)
    if violation > options.verify_tol * 10:
        raise NumericalFailure(
            f"incumbent violates a constraint by {violation:.3e}; refusing to report it"
        )
    status = TIME_LIMIT if hit_time_limit else OPTIMAL
    values = {v.name: float(incumbent[v.id]) for v in model.vars}
    return Solution(status, values, arrays.objective_value(incumbent), stats)
