"""Built-in branch-and-bound and the two LP backends."""

import heapq
import math
import sys
import time
import types

import numpy as np
import pytest
import scipy.optimize

import besched.solver
from besched.errors import NumericalFailure, SolverError
from besched.milp import EQ, GE, LE, ExprBlock, Model, as_expr
from besched.solver import (
    INFEASIBLE,
    OPTIMAL,
    TIME_LIMIT,
    UNBOUNDED,
    VERIFY_TOL,
    ModelArrays,
    SolveOptions,
    _WarmLP,
    solve_builtin,
)

from oracles import brute_force_solve, propagate_bounds, random_milp
from test_cli import BUILTIN_STATS
from test_pipeline import _every_element_by_hand


def test_rounding_forced():
    m = Model()
    x = m.binary("x")
    m.add_constraint(x + 0.0, GE, 0.3, "force")
    m.set_objective(x + 0.0)
    sol = solve_builtin(m)
    assert sol.status == OPTIMAL
    assert sol.x[x.id] == 1.0
    assert sol.objective == pytest.approx(1.0)


def test_infeasible_row_pair():
    m = Model()
    x = m.continuous("x", -10, 10)
    m.add_constraint(x + 0.0, LE, 0.0, "low")
    m.add_constraint(x + 0.0, GE, 1.0, "high")
    assert solve_builtin(m).status == INFEASIBLE


@pytest.mark.parametrize("backend", ["dense", "highs"])
def test_unbounded_detected(backend):
    m = Model()
    x = m.continuous("x")
    m.add_constraint(x + 0.0, LE, 5.0, "cap")
    m.set_objective(x + 0.0)
    assert solve_builtin(m, SolveOptions(lp_backend=backend)).status == UNBOUNDED


@pytest.mark.parametrize("backend", ["dense", "highs"])
def test_matches_brute_force_on_random_milps(backend):
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(10):
        m = random_milp(rng, max_binaries=8, max_rows=12)
        status, obj, _ = brute_force_solve(m)
        sol = solve_builtin(m, SolveOptions(lp_backend=backend))
        if status == "infeasible":
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(obj, abs=1e-6)
            solved += 1
    assert solved >= 7  # the generator anchors rows on a feasible point


def test_integral_solution_within_tolerance():
    m = Model()
    xs = [m.binary(f"x{j}") for j in range(6)]
    u = m.continuous("u", 0, 4)
    m.add_constraint(sum(x + 0.0 for x in xs) + u, GE, 3.5, "cover")
    m.set_objective(sum(x * (j + 1) for j, x in enumerate(xs)) + 2 * u)
    sol = solve_builtin(m)
    assert sol.status == OPTIMAL
    for x in xs:
        v = sol.x[x.id]
        assert abs(v - round(v)) <= 1e-6


def test_deterministic_resolve():
    rng = np.random.default_rng(21)
    m = random_milp(rng, max_binaries=10, max_rows=15)
    a = solve_builtin(m)
    b = solve_builtin(m)
    assert a.status == b.status
    assert (a.x is None) == (b.x is None)
    assert a.x is None or np.array_equal(a.x, b.x)


def test_time_limit_status():
    rng = np.random.default_rng(3)
    m = random_milp(rng, max_binaries=12, max_rows=20)
    sol = solve_builtin(m, SolveOptions(time_limit=1e-9))
    assert sol.status in (TIME_LIMIT, INFEASIBLE, OPTIMAL)  # tiny models may finish in one node
    # a zero limit is a limit, not "no limit"
    assert solve_builtin(m, SolveOptions(time_limit=0.0)).status == TIME_LIMIT


def test_time_limit_between_tree_nodes_keeps_the_incumbent(monkeypatch):
    # a knapsack that branches: the root dive finds an incumbent and the
    # search leaves a ceiling child unsolved on the heap; the clock passes
    # the deadline as that child is popped, before its LP starts
    weights, values = (15, 17, 4, 5, 10, 12), (15, 9, 3, 6, 10, 9)
    m = Model("knapsack")
    xs = [m.binary(f"x{j}") for j in range(len(weights))]
    m.add_constraint(sum(x * float(w) for x, w in zip(xs, weights)), LE, 31.0, "cap")
    m.set_objective(sum(x * float(-v) for x, v in zip(xs, values)))
    optimum = solve_builtin(m)
    assert optimum.status == OPTIMAL

    now = [0.0]

    def heappop(heap):
        entry = heapq.heappop(heap)
        if entry[4] is None:  # an open node whose LP is still to be solved
            now[0] = 100.0
        return entry

    lp_statuses = []
    solve_lp = ModelArrays.solve_lp

    def recording_solve_lp(self, *args, **kwargs):
        solved = solve_lp(self, *args, **kwargs)
        lp_statuses.append(solved[0])
        return solved

    monkeypatch.setattr(besched.solver.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(besched.solver, "heapq",
                        types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
    monkeypatch.setattr(ModelArrays, "solve_lp", recording_solve_lp)
    sol = solve_builtin(m, SolveOptions(time_limit=10.0))
    assert now[0] == 100.0 and lp_statuses and TIME_LIMIT not in lp_statuses
    assert sol.status == TIME_LIMIT
    assert sol.stats.keys() == BUILTIN_STATS
    assert sol.stats["nodes"] < optimum.stats["nodes"]
    arrays = ModelArrays(m)
    assert arrays.max_violation(sol.x) <= VERIFY_TOL
    assert sol.objective == arrays.objective_value(sol.x)
    assert sol.objective >= optimum.objective


def test_presolve_bound_tightening():
    m = Model()
    x = m.integer("x", 0, 10)
    y = m.integer("y", 0, 10)
    m.add_constraint(x + y, LE, 3.0, "cap")
    m.add_constraint(x + 0.0, GE, 2.0, "floor")
    arrays = ModelArrays(m)
    ok, lo, hi = arrays.tighten_bounds(arrays.lo, arrays.hi)
    assert ok
    assert lo[0] == 2.0 and hi[1] <= 1.0


def test_presolve_detects_conflict():
    m = Model()
    x = m.binary("x")
    m.add_constraint(x + 0.0, GE, 2.0, "impossible")
    arrays = ModelArrays(m)
    ok, _, _ = arrays.tighten_bounds(arrays.lo, arrays.hi)
    assert not ok


def test_presolve_propagates_along_a_chain_to_the_fixpoint():
    # each pass moves the fixing one row along the chain: 40 steps to the end
    m = Model()
    xs = [m.integer(f"x{k}", 0, 100) for k in range(1, 41)]
    m.add_constraint(xs[39] + 0.0, EQ, 0.0, "anchor")
    for k in range(39):
        m.add_constraint(xs[k] - xs[k + 1], EQ, 1.0, f"chain.k={k + 1}")
    arrays = ModelArrays(m)
    ok, lo, hi = arrays.tighten_bounds(arrays.lo, arrays.hi)
    assert ok
    expected = [40.0 - k for k in range(1, 41)]
    assert lo.tolist() == expected and hi.tolist() == expected


def test_presolve_past_its_deadline_stops_after_one_pass():
    # one pass fixes the anchored end of the chain and no more; the bounds are
    # sound: inside the input box and around the fixpoint's
    m = Model()
    xs = [m.integer(f"x{k}", 0, 100) for k in range(1, 41)]
    m.add_constraint(xs[39] + 0.0, EQ, 0.0, "anchor")
    for k in range(39):
        m.add_constraint(xs[k] - xs[k + 1], EQ, 1.0, f"chain.k={k + 1}")
    arrays = ModelArrays(m)
    _, full_lo, full_hi = arrays.tighten_bounds(arrays.lo, arrays.hi)
    ok, lo, hi = arrays.tighten_bounds(arrays.lo, arrays.hi, deadline=time.monotonic() - 1)
    assert ok
    assert np.count_nonzero(lo == hi) <= 1
    assert np.all(arrays.lo <= lo) and np.all(hi <= arrays.hi)
    assert np.all(lo <= full_lo) and np.all(full_hi <= hi)


def test_presolve_matches_row_loop_reference():
    rng = np.random.default_rng(5)
    infeasible = 0
    for _ in range(100):
        m = random_milp(rng)
        # an unanchored cover row makes about half of the models infeasible
        m.add_constraint(sum((v + 0.0 for v in m.vars), start=m.vars[0] * 0.0), GE,
                         float(rng.integers(0, len(m.vars) + 8)), "cover")
        arrays = ModelArrays(m)
        ok, lo, hi = arrays.tighten_bounds(arrays.lo, arrays.hi)
        ref_ok, ref_lo, ref_hi = propagate_bounds(m)
        assert ok == ref_ok
        infeasible += not ok
        if ok:
            # the sweep orders differ, so slowly converging bounds may stop a
            # few sub-1e-9 steps apart
            np.testing.assert_allclose(lo, ref_lo, rtol=0, atol=1e-6)
            np.testing.assert_allclose(hi, ref_hi, rtol=0, atol=1e-6)
    assert 20 <= infeasible <= 80


@pytest.mark.parametrize("largest", ["le", "ge", "eq", "bound"])
def test_max_violation_is_the_largest_row_or_bound_violation(largest):
    amounts = dict(zip(["le", "ge", "eq", "bound"], [0.5, 1.25, 0.75, 0.25]))
    amounts[largest] = 2.0
    m = Model()
    x, y, z, w = (m.continuous(name, 0, 10) for name in "xyzw")
    m.add_constraint(x + 0.0, LE, 1.0, "le")
    m.add_constraint(y + 0.0, GE, 5.0, "ge")
    m.add_constraint(z + 0.0, EQ, 3.0, "eq")
    point = np.array([
        1.0 + amounts["le"],
        5.0 - amounts["ge"],
        3.0 - amounts["eq"],
        10.0 + amounts["bound"],
    ])
    assert ModelArrays(m).max_violation(point) == 2.0


def test_max_violation_rejects_nan():
    m = Model()
    x = m.continuous("x", 0, 1)
    m.add_constraint(x + 0.0, LE, 1.0, "cap")
    assert ModelArrays(m).max_violation(np.array([np.nan])) == np.inf


def test_solution_vector_and_verification():
    m = Model()
    x = m.binary("x")
    u = m.continuous("u", 0, 3)
    m.add_constraint(x + u, EQ, 2.0, "mix")
    m.set_objective(u + 0.0)
    sol = solve_builtin(m)
    arrays = ModelArrays(m)
    assert arrays.max_violation(sol.x) <= 1e-6
    assert arrays.objective_value(sol.x) == pytest.approx(sol.objective)


def test_solution_x_holds_the_values_by_column_id():
    m = Model()
    m.continuous("a", 0.0, 2.0)
    ids = m.continuous_series("p", 3, 0.0, [1.0, 2.0, 3.0])
    m.add_rows(ExprBlock.columns(ids), GE, [0.5, 1.5, 2.5], "floor")
    m.set_objective(ExprBlock.columns(ids).exprs()[0] + m.vars[0] * 2.0)
    sol = solve_builtin(m)
    assert sol.status == OPTIMAL and sol.x is not None
    assert sol.x[0] == 0.0 and sol.x[ids[0]] == pytest.approx(0.5)


def test_x_is_the_point_by_column_id_on_a_feasible_ending_and_none_on_the_others(
        monkeypatch):
    def mixed():
        m = Model()
        x = m.binary("x")
        u = m.continuous("u", 0, 3)
        m.add_constraint(x + u, EQ, 2.5, "mix")
        m.set_objective(u - x)
        return m

    m = mixed()
    sol = solve_builtin(m)
    assert sol.status == OPTIMAL and len(sol.x) == m.n_columns == 2
    assert sol.x.tolist() == [1.0, 1.5]

    by_presolve = Model()
    b = by_presolve.binary("b")
    by_presolve.add_constraint(b + 0.0, GE, 2.0, "above")
    by_lp = Model()
    y = by_lp.continuous("y", -10, 10)
    by_lp.add_constraint(y + 0.0, LE, 0.0, "low")
    by_lp.add_constraint(y + 0.0, GE, 1.0, "high")
    unbounded = Model()
    z = unbounded.continuous("z")
    unbounded.add_constraint(z + 0.0, LE, 5.0, "cap")
    unbounded.set_objective(z + 0.0)
    endings = [solve_builtin(by_presolve), solve_builtin(by_lp), solve_builtin(unbounded)]
    # a deadline reached in the root LP, before any incumbent
    monkeypatch.setattr(ModelArrays, "solve_lp",
                        lambda self, lo, hi, backend, deadline=None: (TIME_LIMIT, None, None))
    endings.append(solve_builtin(mixed()))
    assert [s.status for s in endings] == [INFEASIBLE, INFEASIBLE, UNBOUNDED, TIME_LIMIT]
    assert [s.x for s in endings] == [None] * 4
    assert all(s.stats.keys() == BUILTIN_STATS for s in endings)


def test_a_model_with_no_column_is_decided_at_zero_activity_without_an_lp():
    bare = Model()
    holds = Model()
    holds.add_constraint(as_expr(0.0), EQ, 0.0, "zero")
    holds.set_objective(as_expr(2.5))
    broken = Model()
    broken.add_constraint(as_expr(0.0), EQ, 1.0, "one")
    sols = [solve_builtin(m) for m in (bare, holds, broken)]
    assert [s.status for s in sols] == [OPTIMAL, OPTIMAL, INFEASIBLE]
    assert [s.objective for s in sols[:2]] == [0.0, 2.5]
    assert [s.x.shape for s in sols[:2]] == [(0,), (0,)] and sols[2].x is None
    for sol in sols:
        assert sol.stats.keys() == BUILTIN_STATS
        assert sol.stats["nodes"] == 0 and sol.stats["lp_solves"] == 0


def _agree_models():
    rng = np.random.default_rng(11)
    return [random_milp(rng, max_binaries=7, max_rows=10) for _ in range(5)]


def test_dense_and_highs_agree():
    for m in _agree_models():
        a = solve_builtin(m, SolveOptions(lp_backend="dense"))
        b = solve_builtin(m, SolveOptions(lp_backend="highs"))
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert a.objective == pytest.approx(b.objective, abs=1e-6)


def _cold_linprog(arrays, lo, hi):
    """A fresh ``linprog`` on the arrays' LP; EQ rows enter as two inequalities."""
    a = arrays.a.toarray()
    res = scipy.optimize.linprog(
        arrays.c,
        A_ub=np.vstack([a[arrays.le], -a[arrays.ge]]),
        b_ub=np.concatenate([arrays.rhs[arrays.le], -arrays.rhs[arrays.ge]]),
        bounds=np.column_stack([lo, hi]),
        method="highs",
    )
    status = {0: OPTIMAL, 2: INFEASIBLE}[res.status]
    return status, (res.fun + arrays.obj_const if status == OPTIMAL else None)


def test_warm_highs_lp_matches_cold_linprog_over_bound_changes():
    rng = np.random.default_rng(17)
    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    for _ in range(3):
        m = random_milp(rng, max_binaries=10, max_rows=20)
        arrays = ModelArrays(m)
        for _ in range(30):
            # fix a random subset of the integers, shrink the continuous boxes
            lo, hi = arrays.lo.copy(), arrays.hi.copy()
            fix = arrays.integral & (rng.random(arrays.n) < 0.4)
            lo[fix] = hi[fix] = rng.integers(0, 2, arrays.n)[fix]
            cont = ~arrays.integral
            lo[cont] += rng.random(cont.sum()) * (hi[cont] - lo[cont]) / 2
            status, x, obj = arrays.solve_lp(lo, hi, "highs")
            ref_status, ref_obj = _cold_linprog(arrays, lo, hi)
            assert status == ref_status
            if status == OPTIMAL:
                assert obj == pytest.approx(ref_obj, abs=1e-7)
                assert arrays.max_violation(x) <= 1e-7
                assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)
            seen[status] += 1
        assert arrays._warm  # every LP above went through one persistent instance
    assert seen[OPTIMAL] >= 10 and seen[INFEASIBLE] >= 10


@pytest.mark.parametrize("backend", ["dense", "highs"])
def test_lp_after_the_deadline_reports_time_limit(backend):
    m = random_milp(np.random.default_rng(4))
    arrays = ModelArrays(m)
    status, x, obj = arrays.solve_lp(arrays.lo, arrays.hi, backend, deadline=time.monotonic() - 1)
    assert (status, x, obj) == (TIME_LIMIT, None, None)


@pytest.mark.parametrize("names", [{"backend": "highs"}, {"lp_backend": "nope"}])
def test_unknown_solver_names_are_rejected_at_construction(names):
    with pytest.raises(SolverError, match="unknown"):
        SolveOptions(**names)


def test_a_missing_highs_binding_is_an_error_not_another_solver(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    m = Model()
    x = m.continuous("x", 0.0, 10.0)
    m.add_constraint(x + 0.0, LE, 5.0, "cap")
    m.set_objective(x * -1.0)
    with pytest.raises(SolverError, match="scipy >= 1.15"):
        solve_builtin(m)
    # the dense reference simplex does not need the binding
    assert solve_builtin(m, SolveOptions(lp_backend="dense")).objective == -5.0


def test_time_limit_inside_an_lp_keeps_the_incumbent(monkeypatch):
    # a knapsack whose first dive ends on an incumbent within a few LPs; the
    # tenth LP hits the deadline, so the search stops and reports that
    # incumbent, verified, under TIME_LIMIT
    weights, values = [5, 7, 4, 3, 8, 6, 9, 2], [9, 12, 7, 5, 13, 10, 14, 3]
    m = Model()
    xs = [m.binary(f"x{j}") for j in range(8)]
    m.add_constraint(sum(x * w for x, w in zip(xs, weights)), LE, 20.0, "cap")
    m.set_objective(sum(x * -v for x, v in zip(xs, values)))
    full = solve_builtin(m, SolveOptions(lp_backend="highs"))
    assert full.status == OPTIMAL and full.stats["lp_solves"] > 10
    solve_lp = ModelArrays.solve_lp
    lps = []

    def deadline_at_the_tenth_lp(self, lo, hi, backend, deadline=None):
        lps.append(1)
        if len(lps) == 10:
            return TIME_LIMIT, None, None
        return solve_lp(self, lo, hi, backend, deadline=deadline)

    monkeypatch.setattr(ModelArrays, "solve_lp", deadline_at_the_tenth_lp)
    sol = solve_builtin(m, SolveOptions(lp_backend="highs"))
    assert sol.status == TIME_LIMIT
    assert sol.stats["lp_solves"] == 10
    assert sol.x is not None and sol.objective >= full.objective
    assert ModelArrays(m).max_violation(sol.x) <= 1e-6


def test_an_incumbent_that_breaks_a_row_is_refused(monkeypatch):
    # an LP engine that returns an integral point off the feasible set: the
    # row-by-row check of the incumbent refuses to report it
    m = Model()
    x, y = m.binary("x"), m.binary("y")
    m.add_constraint(x + y, LE, 1.0, "one")
    m.set_objective(x * -1.0 - y)
    monkeypatch.setattr(_WarmLP, "solve",
                        lambda self, lo, hi, deadline: (OPTIMAL, np.ones(2), -2.0))
    with pytest.raises(NumericalFailure, match="violates a constraint by 1.000e"):
        solve_builtin(m)


def test_highs_deadline_counts_from_now_not_from_the_first_lp():
    # HiGHS's clock adds up over every run of one instance: after 0.3 s of
    # LPs, a deadline 0.25 s ahead must still leave room for the next LP
    rng = np.random.default_rng(0)
    m = Model()
    xs = [m.continuous(f"x{j}", 0, 10) for j in range(150)]
    for r in range(100):
        cols = rng.choice(150, size=20, replace=False)
        m.add_constraint(sum(xs[j] * float(rng.random()) for j in cols), LE, 20.0, f"r{r}")
    m.set_objective(sum(x * -float(rng.random()) for x in xs))
    arrays = ModelArrays(m)
    for _ in range(5000):
        hi = arrays.hi.copy()
        hi[rng.integers(0, 150, 5)] = 0.0
        status, _, _ = arrays.solve_lp(arrays.lo, hi, "highs", deadline=time.monotonic() + 0.25)
        assert status == OPTIMAL
        if arrays._warm.highs.getRunTime() > 0.3:
            break
    else:
        pytest.fail("the LPs never used 0.3 s of HiGHS time")


def test_day_tree_size_does_not_depend_on_the_tariff(tmp_path):
    # warm starts return whichever optimal vertex lies near the last basis;
    # branching in variable order keeps the day search the same size under
    # day-peak tariffs of other levels, and each answer matches HiGHS's MIP
    from besched.pipeline import build_problem
    from besched.xmlio import parse_configuration, parse_situation
    from helpers import DAY_CONFIG, DAY_SITUATION, day_night_flags

    nodes = set()
    for k, (base, peak) in enumerate(((15.0, 0.5), (18.5, 7.25), (24.0, 3.0))):
        scen = tmp_path / f"t{k}"
        scen.mkdir()
        rows = ["ENull,DHWNull,MinHeating,MaxHeating,ECostFix,ERefundFix,COP"]
        for i, night in enumerate(day_night_flags()):
            price = base + (peak if 8.0 <= i * 0.25 < 20.0 else 0.0)
            rows.append(f"0.1,1.44,0.0,0.0,{price!r},0.0,{1.6 if night else 3.2}")
        (scen / "scenario.csv").write_text("\n".join(rows) + "\n")
        cfg = parse_configuration(DAY_CONFIG)
        model = build_problem(cfg, parse_situation(DAY_SITUATION, cfg), base_dir=scen).model
        sol = solve_builtin(model)
        arrays = ModelArrays(model)
        ref = scipy.optimize.milp(
            arrays.c,
            constraints=scipy.optimize.LinearConstraint(
                arrays.a, np.where(arrays.ge, arrays.rhs, -np.inf),
                np.where(arrays.le, arrays.rhs, np.inf)),
            bounds=scipy.optimize.Bounds(arrays.lo, arrays.hi),
            integrality=arrays.integral.astype(int),
            options={"mip_rel_gap": 0},
        )
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(ref.fun + arrays.obj_const, abs=1e-6)
        nodes.add(sol.stats["nodes"])
    assert len(nodes) == 1


def _milp_objective(model):
    arrays = ModelArrays(model)
    ref = scipy.optimize.milp(
        arrays.c,
        constraints=scipy.optimize.LinearConstraint(
            arrays.a, np.where(arrays.ge, arrays.rhs, -np.inf),
            np.where(arrays.le, arrays.rhs, np.inf)),
        bounds=scipy.optimize.Bounds(arrays.lo, arrays.hi),
        integrality=arrays.integral.astype(int),
        options={"mip_rel_gap": 0},
    )
    assert ref.status == 0
    return ref.fun + arrays.obj_const


def _day_model(scen, peak):
    """The daily scenario with ``peak`` ct added to its 20 ct from 08:00 to 20:00."""
    from besched.pipeline import build_problem
    from besched.xmlio import parse_configuration, parse_situation
    from helpers import write_daily_scenario

    config, situation = write_daily_scenario(scen)
    if peak:
        rows = (scen / "scenario.csv").read_text().splitlines()
        for i in range(32, 80):
            cells = rows[i + 1].split(",")
            cells[4] = repr(20.0 + peak)
            rows[i + 1] = ",".join(cells)
        (scen / "scenario.csv").write_text("\n".join(rows) + "\n")
    cfg = parse_configuration(config.read_text())
    return build_problem(cfg, parse_situation(situation.read_text(), cfg), base_dir=scen).model


@pytest.mark.parametrize("peak, max_lps", [(0.0, 14), (7.25, 12)])
def test_the_dive_closes_the_day_at_the_root(tmp_path, peak, max_lps):
    # the root LP bound is the day's optimum; the dive after it ends on an
    # integral point at that bound, so the tree is the root alone
    model = _day_model(tmp_path, peak)
    sol = solve_builtin(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(_milp_objective(model), abs=1e-6)
    assert sol.stats["nodes"] == 1
    assert 1 < sol.stats["lp_solves"] <= max_lps


def test_a_dive_without_an_incumbent_leaves_the_tree_exact(monkeypatch):
    # the root LP of most small random models is integral already; on the
    # others the dive may end without an incumbent, and the tree alone
    # must then find the optimum
    dive = besched.solver._dive
    ends = []

    def recording_dive(*args):
        ends.append(dive(*args))
        return ends[-1]

    monkeypatch.setattr(besched.solver, "_dive", recording_dive)
    failed = {"dense": 0, "highs": 0}
    for seed in range(40):
        m = random_milp(np.random.default_rng(seed), max_binaries=8, max_rows=6)
        status, obj, _ = brute_force_solve(m)
        for backend in failed:
            ends.clear()
            sol = solve_builtin(m, SolveOptions(lp_backend=backend))
            if status == "infeasible":
                assert sol.status == INFEASIBLE
            else:
                assert sol.status == OPTIMAL
                assert sol.objective == pytest.approx(obj, abs=1e-6)
            failed[backend] += len(ends) == 1 and ends[0] is None
    assert all(failed.values()), failed


def test_a_numerical_failure_inside_the_dive_leaves_the_tree_to_prove(tmp_path, monkeypatch):
    model = _day_model(tmp_path, 0.0)
    full = solve_builtin(model)
    solve = _WarmLP.solve
    calls = []

    def fail_at_the_second_dive_lp(self, lo, hi, deadline):
        calls.append(1)
        if len(calls) == 3:  # the root LP, then the dive's first and second
            raise NumericalFailure("HiGHS LP failed: Unknown")
        return solve(self, lo, hi, deadline)

    monkeypatch.setattr(_WarmLP, "solve", fail_at_the_second_dive_lp)
    sol = solve_builtin(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(full.objective, abs=1e-9)
    assert sol.stats["nodes"] > 1
    assert ModelArrays(model).max_violation(sol.x) <= 1e-6


def test_warm_lp_passes_only_the_column_bounds_that_moved():
    # presolve moves 5 of its 9 columns and leaves 4 integers free
    m = random_milp(np.random.default_rng(2), max_binaries=10, max_rows=15)
    arrays = ModelArrays(m)
    warm = _WarmLP(arrays)
    changed = []

    class Recorder:
        def __init__(self, highs):
            self.highs = highs

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def changeColsBounds(self, num, cols, lo, hi):
            changed.append(sorted(cols.tolist()))
            return self.highs.changeColsBounds(num, cols, lo, hi)

    warm.highs = Recorder(warm.highs)
    arrays._warm = warm

    def agrees_with_a_fresh_instance(lo, hi):
        got = arrays.solve_lp(lo, hi, "highs")
        want = ModelArrays(m).solve_lp(lo, hi, "highs")
        assert got[0] == want[0]
        if got[0] == OPTIMAL:
            assert got[2] == pytest.approx(want[2], abs=1e-9)

    # the first LP moves the model's box to the presolved one
    ok, lo, hi = arrays.tighten_bounds(arrays.lo, arrays.hi)
    assert ok
    agrees_with_a_fresh_instance(lo, hi)
    moved = np.flatnonzero((lo != arrays.lo) | (hi != arrays.hi)).tolist()
    assert changed == [moved] and 0 < len(moved) < arrays.n
    changed.clear()
    j = int(np.flatnonzero(arrays.integral & (lo < hi))[0])
    down = hi.copy()
    down[j] = lo[j]
    agrees_with_a_fresh_instance(lo, down)
    agrees_with_a_fresh_instance(lo, down)  # nothing moved: no call at all
    agrees_with_a_fresh_instance(lo, hi)
    assert changed == [[j], [j]]


def _checking_changed_columns(monkeypatch):
    """Wrap tighten_bounds: every call given ``changed`` is repeated without
    it, and both results must be equal to the last bit.  Returns the list of
    such calls."""
    tighten = ModelArrays.tighten_bounds
    steps = []

    def tighten_both_ways(self, lo, hi, deadline=None, changed=None):
        result = tighten(self, lo, hi, deadline, changed)
        if changed is not None:
            full = tighten(self, lo, hi, deadline)
            assert result[0] == full[0]
            assert np.array_equal(result[1], full[1]) and np.array_equal(result[2], full[2])
            steps.append(changed)
        return result

    monkeypatch.setattr(ModelArrays, "tighten_bounds", tighten_both_ways)
    return steps


def test_dive_steps_propagate_only_the_moved_columns_and_match_a_full_pass(
        tmp_path, monkeypatch):
    steps = _checking_changed_columns(monkeypatch)
    assert solve_builtin(_day_model(tmp_path, 0.0)).status == OPTIMAL
    assert len(steps) >= 5
    day_steps = len(steps)
    # positive costs and a weighted cover row with a fractional rhs make the
    # root LP of many random models fractional, so that they dive
    for seed in range(60):
        rng = np.random.default_rng(seed)
        m = random_milp(rng, max_binaries=12, max_rows=20)
        weights = rng.integers(2, 9, len(m.vars)).tolist()
        m.add_constraint(sum((v * float(w) for v, w in zip(m.vars, weights)),
                             start=m.vars[0] * 0.0),
                         GE, float(rng.integers(1, sum(weights) + 1)) + 0.5, "cover")
        costs = rng.integers(1, 10, len(m.vars)).tolist()
        m.set_objective(sum((v * float(c) for v, c in zip(m.vars, costs)), start=m.vars[0] * 0.0))
        solve_builtin(m)
    assert len(steps) >= day_steps + 15


def test_propagating_from_moved_columns_follows_a_chain_to_the_fixpoint():
    # x_k - x_(k+1) = 1 along 40 integers: raising the last one's lower
    # bound moves every other one, one row further in each pass
    m = Model()
    xs = [m.integer(f"x{k}", 0, 100) for k in range(1, 41)]
    for k in range(39):
        m.add_constraint(xs[k] - xs[k + 1], EQ, 1.0, f"chain.k={k + 1}")
    arrays = ModelArrays(m)
    ok, lo, hi = arrays.tighten_bounds(arrays.lo, arrays.hi)
    assert ok and lo[0] == 39.0 and hi[39] == 61.0
    lo[39] = 50.0
    full = arrays.tighten_bounds(lo, hi)
    moved = arrays.tighten_bounds(lo, hi, changed=[39])
    assert moved[0] and full[0]
    assert np.array_equal(moved[1], full[1]) and np.array_equal(moved[2], full[2])
    assert moved[1].tolist() == [89.0 - k for k in range(40)]


def test_a_solve_without_a_dive_builds_no_column_index(monkeypatch):
    built = []
    init = ModelArrays.__init__

    def keep(self, model):
        init(self, model)
        built.append(self)

    monkeypatch.setattr(ModelArrays, "__init__", keep)
    m = Model()
    x, y = m.continuous("x", 0, 4), m.continuous("y", 0, 4)
    m.add_constraint(x + y, GE, 3.0, "cover")
    m.set_objective(x + y * 2.0)
    # a pure LP is not propagated at all
    assert solve_builtin(m).status == OPTIMAL
    assert "_nonzeros" not in vars(built[0]) and "_column_rows" not in vars(built[0])
    # b costs more than x in the cover row, so the root LP sets it to 0: no dive
    b = m.binary("b")
    m.add_constraint(x + y + b, GE, 3.0, "cover_b")
    m.set_objective(x + y * 2.0 + b * 5.0)
    solution = solve_builtin(m)
    assert solution.status == OPTIMAL and solution.stats["lp_solves"] == 1
    assert "_nonzeros" in vars(built[1]) and "_column_rows" not in vars(built[1])


@pytest.mark.parametrize("model", ["every_element", "random_milp"])
def test_highs_holds_exactly_the_compiled_model(model):
    if model == "every_element":
        m, _ = _every_element_by_hand()
    else:
        m = random_milp(np.random.default_rng(5), max_binaries=10, max_rows=15)
    arrays = ModelArrays(m)
    warm = _WarmLP(arrays)
    lp = warm.highs.getLp()
    core = warm.core
    # HiGHS keeps the matrix column-wise
    csc = arrays.a.tocsc()
    assert lp.a_matrix_.format_ == core.MatrixFormat.kColwise
    assert (lp.num_col_, lp.num_row_) == arrays.a.shape[::-1]
    assert np.array_equal(lp.a_matrix_.start_, csc.indptr)
    assert np.array_equal(lp.a_matrix_.index_, csc.indices)
    assert np.array_equal(lp.a_matrix_.value_, csc.data)
    assert lp.sense_ == core.ObjSense.kMinimize and lp.offset_ == 0.0
    assert np.array_equal(lp.col_cost_, arrays.c)
    assert np.array_equal(lp.col_lower_, arrays.lo) and np.array_equal(lp.col_upper_, arrays.hi)
    assert np.array_equal(lp.row_lower_, np.where(arrays.ge, arrays.rhs, -np.inf))
    assert np.array_equal(lp.row_upper_, np.where(arrays.le, arrays.rhs, np.inf))
    # integrality is ours: HiGHS solves every node's LP relaxation
    assert len(lp.integrality_) == arrays.n
    assert set(lp.integrality_) == {core.HighsVarType.kContinuous}


def _free_pair(cost_x, cost_y, *rows):
    """Two free columns x and y with the objective cost_x x + cost_y y and
    the rows (a, b, sense, rhs), each a x + b y sense rhs."""
    m = Model()
    x, y = m.continuous("x"), m.continuous("y")
    for i, (a, b, sense, rhs) in enumerate(rows):
        m.add_constraint(x * a + y * b, sense, rhs, f"r{i}")
    m.set_objective(x * cost_x + y * cost_y)
    return m


@pytest.mark.parametrize("m, status", [
    # x - y >= 1 and y - x >= 1: no bound on a free column to propagate from
    (_free_pair(1.0, 0.0, (1.0, -1.0, GE, 1.0), (-1.0, 1.0, GE, 1.0)), INFEASIBLE),
    (_free_pair(1.0, 1.0, (1.0, -1.0, LE, 1.0)), UNBOUNDED),
    # the same rows, and the ray x = y improves -x - y: infeasible both ways
    (_free_pair(-1.0, -1.0, (1.0, -1.0, GE, 1.0), (-1.0, 1.0, GE, 1.0)), INFEASIBLE),
], ids=["infeasible", "unbounded", "primal_and_dual_infeasible"])
def test_every_ending_of_a_pure_lp_without_highs_presolve(m, status):
    arrays = ModelArrays(m)
    ok, lo, hi = arrays.tighten_bounds(arrays.lo, arrays.hi)
    assert ok and np.all(np.isinf(lo)) and np.all(np.isinf(hi))
    solution = solve_builtin(m)  # NumericalFailure would propagate
    assert solution.status == status
    assert solution.stats["lp_solves"] == 1


def test_highs_presolves_only_a_model_with_an_integer_column():
    m = Model()
    x, y = m.continuous("x", 0, 4), m.continuous("y", 0, 4)
    m.add_constraint(x + y, GE, 3.0, "cover")
    m.set_objective(x + y * 2.0)
    pure = _WarmLP(ModelArrays(m)).highs
    assert pure.getOptionValue("presolve")[1] == "off"
    assert pure.getOptionValue("simplex_dual_edge_weight_strategy")[1] == 1  # devex
    b = m.binary("b")
    m.add_constraint(x - b * 4.0, LE, 0.0, "link")
    mixed = _WarmLP(ModelArrays(m)).highs
    assert mixed.getOptionValue("presolve")[1] == "choose"
    assert mixed.getOptionValue("simplex_dual_edge_weight_strategy")[1] == -1  # choose


def test_only_a_model_with_an_integer_column_is_propagated(monkeypatch):
    tighten = ModelArrays.tighten_bounds
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return tighten(self, *args, **kwargs)

    monkeypatch.setattr(ModelArrays, "tighten_bounds", counted)
    m = Model()
    x, y = m.continuous("x", 0, 4), m.continuous("y", 0, 4)
    m.add_constraint(x + y, GE, 3.0, "cover")
    m.set_objective(x + y * 2.0)
    assert solve_builtin(m).status == OPTIMAL
    assert calls == []
    b = m.binary("b")
    m.add_constraint(x - b * 4.0, LE, 0.0, "link")
    assert solve_builtin(m).status == OPTIMAL
    assert len(calls) >= 1


def _random_lp(rng):
    """A small all-continuous LP: boxes finite, half-open or free, rows of
    every sense anchored on a point of the box and some of them shifted past
    it, so that optimal, infeasible and unbounded models all occur."""
    m = Model()
    n = int(rng.integers(2, 7))
    cols = []
    for j in range(n):
        lo = -math.inf if rng.random() < 0.25 else float(rng.integers(-5, 1))
        hi = math.inf if rng.random() < 0.25 else float(rng.integers(1, 8))
        cols.append(m.continuous(f"x{j}", lo, hi))
    ref = rng.uniform(-1.0, 1.0, n)
    m.set_objective(sum((v * float(rng.integers(-9, 10)) for v in cols), start=cols[0] * 0.0))
    for r in range(int(rng.integers(1, 8))):
        coefs = rng.integers(-5, 6, n) * (rng.random(n) < 0.6)
        expr = sum((v * float(a) for v, a in zip(cols, coefs)), start=cols[0] * 0.0)
        anchor = float(coefs @ ref)
        slack = float(rng.integers(-2, 5))  # a negative slack may leave no point
        sense = (LE, GE, EQ)[int(rng.integers(0, 3))]
        rhs = {LE: anchor + slack, GE: anchor - slack, EQ: anchor}[sense]
        m.add_constraint(expr, sense, rhs, f"rand.r={r}")
    return m


def _empty_box():
    """x, y in [0, 4] with x + y >= 10: propagation proves the box empty."""
    m = Model()
    x, y = m.continuous("x", 0, 4), m.continuous("y", 0, 4)
    m.add_constraint(x + y, GE, 10.0, "cover")
    m.set_objective(x + y)
    return m


def _week_model(tmp_path):
    from besched.pipeline import build_problem
    from besched.xmlio import parse_configuration, parse_situation
    from helpers import write_week_scenario

    config, situation = write_week_scenario(tmp_path / "week", seed=12)
    cfg = parse_configuration(config.read_text())
    return build_problem(cfg, parse_situation(situation.read_text(), cfg),
                         base_dir=config.parent).model


def _on_the_propagated_box(m):
    """The reference: propagate the box, then solve the LP on the tightened box."""
    arrays = ModelArrays(m)
    ok, lo, hi = arrays.tighten_bounds(arrays.lo, arrays.hi)
    if not ok:
        return INFEASIBLE, None
    status, _, obj = arrays.solve_lp(lo, hi, "highs")
    return status, obj


def _ends_as_on_the_propagated_box(m, rel):
    assert not ModelArrays(m).integral.any()
    want_status, want_obj = _on_the_propagated_box(m)
    solution = solve_builtin(m)
    assert solution.status == want_status
    assert solution.stats["lp_solves"] == 1
    if want_status == OPTIMAL:
        assert solution.objective == pytest.approx(want_obj, rel=rel)
    return solution


def test_the_week_lp_on_its_own_box_ends_as_on_the_propagated_box(tmp_path):
    week = _week_model(tmp_path)
    solution = _ends_as_on_the_propagated_box(week, rel=1e-9)
    assert solution.status == OPTIMAL
    assert solution.objective == pytest.approx(_milp_objective(week), abs=1e-6)


def test_an_empty_box_is_proven_infeasible_by_its_lp():
    solution = _ends_as_on_the_propagated_box(_empty_box(), rel=1e-9)
    assert solution.status == INFEASIBLE


def test_random_pure_lps_on_their_own_box_end_as_on_the_propagated_box():
    # Propagation can fix a column from two equality rows up to about 1e-9,
    # and HiGHS then returns a point that breaks a row by about 1e-8 (the
    # 16th LP of this seed: its objective lies 9.3e-9 relative below the
    # exact one), so against that path the objectives agree to 1e-7, within
    # HiGHS's feasibility tolerance; the dense reference simplex on the
    # model's own box agrees to 1e-9.
    rng = np.random.default_rng(1801)
    statuses = []
    for _ in range(20):
        m = _random_lp(rng)
        solution = _ends_as_on_the_propagated_box(m, rel=1e-7)
        dense = solve_builtin(m, SolveOptions(lp_backend="dense"))
        assert dense.status == solution.status
        if solution.status == OPTIMAL:
            assert solution.objective == pytest.approx(dense.objective, rel=1e-9)
        statuses.append(solution.status)
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= set(statuses)
