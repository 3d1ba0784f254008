"""Built-in exact branch-and-bound for desk-scale models.

The LP relaxation of each node is solved by HiGHS; the package's own dense
two-phase simplex runs only when asked for (``lp_backend="dense"``), as the
reference that tests check HiGHS against.  The tree search itself is always
ours.  HiGHS node LPs are warm-started: each model is loaded once into one
persistent instance of scipy's HiGHS binding, and every node changes the
column bounds that moved and re-solves from the last basis by dual simplex
(Achterberg, "Constraint Integer Programming", 2007).  That binding,
``scipy.optimize._highspy._core``, ships with scipy 1.15 and later; without it
the first HiGHS LP raises :class:`SolverError`.  It is imported there, not
with this module, so that runs that never solve do not pay for it.  The model
goes to HiGHS in one call from the CSR arrays (the array overload of
``passModel``), every column continuous: on a 672-unit week (7392 columns,
2688 rows; medians of 8 instances on a 2-core machine) that takes 1 ms,
against 5 ms for filling a ``HighsLp`` attribute by attribute, which pybind
converts element by element.  A pure LP, with no integer column, is its
own root: it is solved on the model's box, without our bound propagation,
without HiGHS presolve and with devex dual pricing (Harris, Math. Prog. 5,
1973) in place of HiGHS's steepest edge (Forrest & Goldfarb, Math. Prog. 57,
1992), and its LP proves an empty box infeasible.  On 16 week LPs (medians
of the min of 3 each) root propagation took 6.9 ms and moved 1,352 bounds,
yet HiGHS needed as many iterations on the model's box (4,294-4,527; 46.6 ms)
as on the tightened one (4,309-4,568; 44.7 ms), to the same objective;
devex took 39.0 ms on the model's box.  HiGHS presolve (31 ms alone on a
week) saves only about 550 of those iterations.  A model with an integer
column keeps our propagation, HiGHS presolve for its first LP and HiGHS's
default pricing: the propagation dive needs the root vertex that the
presolved LP gives, and without it the flat-price day takes 18 LPs instead
of 14.  Node
exploration is sequential and deterministic: branch on the fractional
integer variable of lowest index and solve its floor child.  When that child
keeps the node's bound the dive goes on there and the ceiling child stays
open unsolved; otherwise the ceiling child is solved too, the dive goes on
in the child with the lower bound and the other stays open with its
LP.  Every integral LP optimum becomes the incumbent when it is better, and a
finished dive backtracks to the open node with the best bound.  A time limit
stops the search between nodes and inside a HiGHS LP.

Before the tree, and only when the root LP is fractional, one propagation
dive looks for an incumbent (Berthold, "Primal Heuristics for Mixed Integer
Programs", 2006): it sets the fractional integer of lowest index to its
ceiling, propagates bounds as presolve does and re-solves the warm LP, until
the LP point is integral.  Each step starts from a propagation fixpoint, so
it propagates only the rows of the column it set and then of the columns
that move.  A box that propagation proves empty, an LP that ends other than
optimal or fails numerically ends the dive without one.  The tree then
starts from the solved root, with the root LP as its bound and the dive's
point as its incumbent.  ``stats`` counts ``nodes`` of the tree, the
root included, and ``lp_solves`` of tree and dive together.

Degenerate models have many optimal vertices, and a warm start returns
whichever lies near the last basis.  With most-fractional branching and a
blind floor dive, the tree then depended on those vertices: on the
benchmark's day tariffs one instance took 42 LPs and another 544.  Branching
in variable order and diving into the better child took 55 LPs on each.
There the root LP is already the optimum, and the propagation dive reaches it
in 9 more LPs, so the tree is the root alone: 10 LPs on each tariff.

:class:`ModelArrays` compiles a model once into one sparse CSR constraint
matrix, copied from the model's CSR row store, and its column boxes as
arrays, read from the model's column store.  Presolve, both LP backends
and the verification of every reported solution read that matrix.  Presolve
is activity-based bound propagation run as whole-matrix passes until no
bound moves (Savelsbergh, ORSA J. Computing 1994); it proves many
fixed-pattern models infeasible without any LP.
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .errors import NumericalFailure, SolverError
from .milp import EQ, GE, LE, Model

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "timeLimit"

_GAP_TOL = 1e-6  # absolute optimality gap
_INT_TOL = 1e-6  # integer feasibility tolerance
VERIFY_TOL = 1e-5  # a reported solution may violate a row or a bound by this
_PRESOLVE_PASSES = 300  # a pass moves bounds one row along a chain; fixpoints seen took <= 198


@dataclass
class SolveOptions:
    """How to solve; an unknown ``backend`` or ``lp_backend`` raises
    :class:`SolverError` here, before any work is done."""

    backend: str = "builtin"  # builtin | external
    command: str | None = None  # external template with {in} and {out}
    time_limit: float | None = None  # seconds
    lp_backend: str = "highs"  # highs | dense (the reference simplex)

    def __post_init__(self):
        if self.backend not in ("builtin", "external"):
            raise SolverError(f"unknown backend {self.backend!r}; expected builtin or external")
        if self.lp_backend not in ("highs", "dense"):
            raise SolverError(f"unknown lp_backend {self.lp_backend!r}; expected highs or dense")


@dataclass
class Solution:
    """A solve's ending.  ``x`` is its point, the value of every column by
    column id, or None when the ending has no point (infeasible, unbounded,
    or a time limit reached before any incumbent)."""

    status: str
    objective: float = math.nan
    stats: dict = field(default_factory=dict)
    x: np.ndarray | None = None

    @property
    def feasible(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE)


class _WarmLP:
    """The model's LP loaded once into scipy's HiGHS binding and re-solved
    after each change of column bounds from the last basis: a short
    dual-simplex warm start.  The model is passed as arrays, every column
    continuous.  HiGHS presolves only a model with an integer column, and
    only while it has no basis; a pure LP is solved unpresolved, with devex
    dual pricing.  Only the columns whose bounds moved since the last LP are
    passed on."""

    def __init__(self, arrays: "ModelArrays"):
        try:
            import scipy.optimize._highspy._core as core
        except ImportError as exc:
            raise SolverError("the built-in solver needs scipy >= 1.15 with its HiGHS "
                              "binding scipy.optimize._highspy._core") from exc
        self.core = core
        self.c, self.obj_const = arrays.c, arrays.obj_const
        # the column bounds HiGHS holds: the model's box until the first LP
        self.lo, self.hi = arrays.lo.copy(), arrays.hi.copy()
        a = arrays.a
        self.highs = core._Highs()
        self.highs.setOptionValue("output_flag", False)
        if not arrays.integral.any():
            # a pure LP: HiGHS presolve costs more than it saves, and devex
            # dual pricing is cheaper per iteration than steepest edge
            self.highs.setOptionValue("presolve", "off")
            self.highs.setOptionValue("simplex_dual_edge_weight_strategy", 1)
        integrality = np.zeros(arrays.n, dtype=np.int32)  # HighsVarType.kContinuous
        loaded = self.highs.passModel(
            a.shape[1], a.shape[0], a.nnz, int(core.MatrixFormat.kRowwise),
            int(core.ObjSense.kMinimize), 0.0, arrays.c, arrays.lo, arrays.hi,
            np.where(arrays.ge, arrays.rhs, -np.inf), np.where(arrays.le, arrays.rhs, np.inf),
            a.indptr, a.indices, a.data, integrality)
        if loaded == core.HighsStatus.kError:
            raise NumericalFailure("HiGHS rejected the model")
        statuses = core.HighsModelStatus
        self.statuses = {statuses.kOptimal: OPTIMAL, statuses.kInfeasible: INFEASIBLE,
                         statuses.kUnbounded: UNBOUNDED, statuses.kTimeLimit: TIME_LIMIT}

    def solve(self, lo, hi, deadline):
        """Returns (status, x, objective) as ``ModelArrays.solve_lp`` does."""
        highs = self.highs
        # HiGHS's clock adds up over all runs of one instance
        limit = math.inf if deadline is None else (
            highs.getRunTime() + max(deadline - time.monotonic(), 0.0))
        highs.setOptionValue("time_limit", limit)
        moved = np.flatnonzero((lo != self.lo) | (hi != self.hi))
        if len(moved):
            self.lo[moved], self.hi[moved] = lo[moved], hi[moved]
            highs.changeColsBounds(len(moved), moved.astype(np.int32), lo[moved], hi[moved])
        if highs.run() == self.core.HighsStatus.kError:
            raise NumericalFailure("HiGHS LP run failed")
        model_status = highs.getModelStatus()
        status = self.statuses.get(model_status)
        if status is None:
            raise NumericalFailure(f"HiGHS LP failed: {highs.modelStatusToString(model_status)}")
        if status != OPTIMAL:
            return status, None, None
        x = np.array(highs.getSolution().col_value)
        return OPTIMAL, x, float(self.c @ x) + self.obj_const


class ModelArrays:
    """The model's arrays: one CSR constraint matrix ``a`` with its ``rhs`` and
    sense masks, the costs ``c`` and the column boxes ``lo``, ``hi`` and
    ``integral`` of ``Model.column_arrays``, read by presolve, both LP
    backends and verification."""

    def __init__(self, model: Model):
        n = model.n_columns
        self.n = n
        self.c = np.zeros(n)
        obj = model.objective.terms
        self.c[np.fromiter(obj, dtype=np.int64, count=len(obj))] = list(obj.values())
        self.obj_const = model.objective.const
        self.lo, self.hi, self.integral = model.column_arrays()
        rows = model.row_arrays()
        self.a = csr_matrix((rows.coefs, rows.cols, rows.indptr), shape=(len(rows.rhs), n))
        self.a.sort_indices()
        self.rhs = rows.rhs
        self.le = rows.senses <= 0  # LE or EQ
        self.ge = rows.senses >= 0  # GE or EQ
        self._warm = None  # the persistent HiGHS LP, loaded by the first "highs" LP

    # -- LP backends --------------------------------------------------------

    def solve_lp(self, lo, hi, backend: str, deadline: float | None = None):
        """Returns (status, x, objective) ignoring integrality.

        ``deadline`` is a ``time.monotonic()`` instant: no LP starts after it,
        and a warm HiGHS LP stops there; both give status ``TIME_LIMIT``.
        """
        if deadline is not None and time.monotonic() >= deadline:
            return TIME_LIMIT, None, None
        if backend == "dense":
            from . import simplex

            senses = np.where(self.le & self.ge, EQ, np.where(self.le, LE, GE)).tolist()
            status, x, obj = simplex.solve_lp(self.c, self.a.toarray(), senses, self.rhs, lo, hi)
            if status == simplex.OPTIMAL:
                return OPTIMAL, x, obj + self.obj_const
            return (INFEASIBLE if status == simplex.INFEASIBLE else UNBOUNDED), None, None
        if backend == "highs":
            if self._warm is None:
                self._warm = _WarmLP(self)
            return self._warm.solve(lo, hi, deadline)
        raise SolverError(f"unknown LP backend {backend!r}")

    # -- presolve: iterated activity-based bound tightening ------------------

    @functools.cached_property
    def _nonzeros(self):
        """Per nonzero, in CSR order: its row, column and coefficient, the
        signs of the coefficient, the senses and rhs of its row."""
        a = self.a
        row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        coef = a.data
        return (row, a.indices, coef, coef > 0, coef < 0, self.le[row], self.ge[row],
                self.rhs[row])

    @functools.cached_property
    def _column_rows(self):
        """(indptr, rows) of the CSC layout: the rows of each column."""
        csc = self.a.tocsc()
        return csc.indptr, csc.indices

    def _nonzeros_of_columns(self, cols):
        """The rows that hold any of ``cols``, and their nonzeros in CSR order."""
        ptr, rows = self._column_rows
        rows = np.unique(rows[_ranges(ptr, cols)])
        return rows, _ranges(self.a.indptr, rows)

    def tighten_bounds(self, lo, hi, deadline: float | None = None, changed=None):
        """Returns (feasible, lo, hi) with tightened copies.

        Each pass computes every row's minimum and maximum activity under the
        current bounds, proves infeasibility where a row cannot be met, and
        tightens each variable to the tightest bound its rows imply.  Once
        ``time.monotonic()`` passes ``deadline`` no further pass starts: the
        bounds reached so far are returned, sound but less tight.

        ``changed`` names the columns whose bounds moved since ``(lo, hi)``
        was last a fixpoint of this propagation.  The first pass then covers
        only their rows, and each later pass only the rows of the columns
        that moved in the pass before: a row none of whose bounds moved
        implies what it implied at the fixpoint, so the result is the same
        as without ``changed``, at a fraction of the work.
        """
        lo = lo.copy()
        hi = hi.copy()
        b, m = self.rhs, len(self.rhs)
        every = self._nonzeros
        rows = nz = slice(None)  # the rows a pass covers and their nonzeros: all
        if changed is not None:
            rows, nz = self._nonzeros_of_columns(np.asarray(changed, dtype=np.int64))
        for _ in range(_PRESOLVE_PASSES):
            if np.any(lo > hi + 1e-9):
                return False, lo, hi
            row, col, coef, pos, neg, le_nz, ge_nz, b_nz = (x[nz] for x in every)
            if changed is not None:
                lo_before, hi_before = lo.copy(), hi.copy()
            term_min = np.where(pos, coef * lo[col], coef * hi[col])
            term_max = np.where(pos, coef * hi[col], coef * lo[col])
            min_act = np.bincount(row, term_min, minlength=m)
            max_act = np.bincount(row, term_max, minlength=m)
            if np.any(self.le[rows] & (min_act[rows] > b[rows] + 1e-7)) or np.any(
                    self.ge[rows] & (max_act[rows] < b[rows] - 1e-7)):
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
            if deadline is not None and time.monotonic() >= deadline:
                break
            if changed is not None:
                rows, nz = self._nonzeros_of_columns(
                    np.flatnonzero((lo != lo_before) | (hi != hi_before)))
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


def _ranges(ptr, idx):
    """The positions ``ptr[i]`` to ``ptr[i + 1] - 1`` of every i in ``idx``, in order."""
    starts = ptr[idx]
    lens = ptr[idx + 1] - starts
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1] if len(ends) else 0)


def _dive(arrays: ModelArrays, lo, hi, x, j, run_lp, deadline):
    """A propagation dive from an LP point ``x`` with fractional integer ``j``
    in the box (lo, hi): set the fractional integer of lowest index to its
    ceiling, propagate, re-solve, until the LP point is integral.  Returns
    that point, or None once a propagation proves the box empty, an LP ends
    other than optimal or fails numerically.  Each step raises one integer's
    lower bound by at least 1, so the dive ends within the integers' ranges.
    Each box it starts from is a propagation fixpoint, so only the rows of
    the one column set and of the columns that then move are propagated.
    A heuristic: it proves nothing."""
    while j is not None:
        lo = lo.copy()
        lo[j] = math.floor(x[j]) + 1
        ok, lo, hi = arrays.tighten_bounds(lo, hi, deadline, changed=[j])
        if not ok:
            return None
        try:
            status, x, _, j = run_lp(lo, hi)
        except NumericalFailure:
            return None
        if status != OPTIMAL:
            return None
    return x


def solve_builtin(model: Model, options: SolveOptions | None = None) -> Solution:
    """Exact branch-and-bound.  Never returns a silently wrong answer: the
    incumbent is re-verified against every row before being reported."""
    options = options or SolveOptions()
    arrays = ModelArrays(model)
    lp_backend = options.lp_backend
    t0 = time.monotonic()
    deadline = None if options.time_limit is None else t0 + options.time_limit
    nodes = 0  # nodes of the tree, the root included
    lp_solves = 0  # every LP, the dive's included
    lp_time = 0.0  # seconds inside LPs

    def stats():
        """The stats of every ending: the same keys whatever the status."""
        return {"backend": "builtin", "lp_backend": lp_backend, "nodes": nodes,
                "lp_solves": lp_solves, "lp_time": lp_time, "time": time.monotonic() - t0}

    if not arrays.n:
        # no column: the rows hold at zero activity or never; HiGHS refuses
        # an empty LP, so none is solved
        x = np.zeros(0)
        if arrays.max_violation(x) > VERIFY_TOL:
            return Solution(INFEASIBLE, stats=stats())
        return Solution(OPTIMAL, arrays.objective_value(x), stats(), x)
    if arrays.integral.any():
        ok, lo0, hi0 = arrays.tighten_bounds(arrays.lo, arrays.hi, deadline)
        if not ok:
            return Solution(INFEASIBLE, stats=stats())
    else:
        # a pure LP is its root: tightening its box would not change its
        # optimum and costs more than it saves, and the LP proves an empty box
        lo0, hi0 = arrays.lo, arrays.hi

    incumbent = None
    inc_obj = math.inf
    hit_time_limit = False

    def run_lp(lo, hi):
        """(status, x, objective, j): j is the fractional integer variable of
        lowest index, None when there is none."""
        nonlocal lp_solves, lp_time
        lp_solves += 1
        t_lp = time.monotonic()
        status, x, obj = arrays.solve_lp(lo, hi, lp_backend, deadline=deadline)
        lp_time += time.monotonic() - t_lp
        if status != OPTIMAL:
            return status, x, obj, None
        frac = np.abs(x - np.round(x))
        cand = np.flatnonzero(arrays.integral & (frac > _INT_TOL))
        return status, x, obj, (int(cand[0]) if len(cand) else None)

    def offer(x):
        """An integral LP point becomes the incumbent when it is better."""
        nonlocal incumbent, inc_obj
        xi = x.copy()
        xi[arrays.integral] = np.round(xi[arrays.integral])
        obj_i = arrays.objective_value(xi)
        if obj_i < inc_obj - 1e-12:
            inc_obj = obj_i
            incumbent = xi

    def node_lp(lo, hi):
        """A tree node's LP as run_lp returns it; an integral optimum is
        offered as the incumbent."""
        nonlocal nodes
        nodes += 1
        solved = run_lp(lo, hi)
        if solved[0] == OPTIMAL and solved[3] is None:
            offer(solved[1])
        return solved

    root = node_lp(lo0, hi0)
    status, x, obj, j = root
    if status == OPTIMAL and j is not None:
        dived = _dive(arrays, lo0, hi0, x, j, run_lp, deadline)
        if dived is not None:
            offer(dived)
    counter = 0
    # open nodes: (bound, counter, lo, hi, lp), where lp is the node's solved
    # LP as node_lp returns it, or None while it is still to be solved
    heap = [(obj if status == OPTIMAL else -math.inf, counter, lo0, hi0, root)]

    while heap:
        bound, _, lo, hi, solved = heapq.heappop(heap)
        if bound >= inc_obj - _GAP_TOL:
            continue
        # depth-first dive from this node
        while True:
            if solved is None:
                if deadline and time.monotonic() > deadline:
                    hit_time_limit = True
                    heap = []
                    break
                solved = node_lp(lo, hi)
            status, x, obj, j = solved
            solved = None
            if status == TIME_LIMIT:
                hit_time_limit = True
                heap = []
                break
            if status == UNBOUNDED:
                if incumbent is None and nodes == 1:
                    return Solution(UNBOUNDED, stats=stats())
                break
            if status != OPTIMAL or obj >= inc_obj - _GAP_TOL or j is None:
                break
            floor_v = math.floor(x[j])
            down_hi = hi.copy()
            down_hi[j] = floor_v
            up_lo = lo.copy()
            up_lo[j] = floor_v + 1
            # A floor child that keeps this node's bound is dived into and
            # the ceiling child waits unsolved; a deadline reached inside the
            # floor LP ends the search at the top of the loop.
            down = node_lp(lo, down_hi)
            if down[0] == TIME_LIMIT or (down[0] == OPTIMAL and down[2] <= obj + _GAP_TOL):
                counter += 1
                heapq.heappush(heap, (obj, counter, up_lo, hi, None))
                hi, solved = down_hi, down
                continue
            # Otherwise the ceiling child is solved too: the dive goes on in
            # the child with the lower bound (the floor child on a tie) and
            # the other waits with its own bound and LP.
            up = node_lp(up_lo, hi)
            if up[0] == TIME_LIMIT or (
                    up[0] == OPTIMAL and (down[0] != OPTIMAL or up[2] < down[2])):
                if down[0] == OPTIMAL:
                    counter += 1
                    heapq.heappush(heap, (down[2], counter, lo, down_hi, down))
                lo, solved = up_lo, up
            else:
                if up[0] == OPTIMAL:
                    counter += 1
                    heapq.heappush(heap, (up[2], counter, up_lo, hi, up))
                hi, solved = down_hi, down

    if incumbent is None:
        return Solution(TIME_LIMIT if hit_time_limit else INFEASIBLE, stats=stats())

    violation = arrays.max_violation(incumbent)
    if violation > VERIFY_TOL:
        raise NumericalFailure(
            f"incumbent violates a constraint by {violation:.3e}; refusing to report it"
        )
    status = TIME_LIMIT if hit_time_limit else OPTIMAL
    return Solution(status, arrays.objective_value(incumbent), stats(), incumbent)
