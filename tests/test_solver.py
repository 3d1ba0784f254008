"""Built-in branch-and-bound and the two LP backends."""

import numpy as np
import pytest

from besched.errors import SolverError
from besched.milp import EQ, GE, LE, Model
from besched.solver import (
    INFEASIBLE,
    OPTIMAL,
    TIME_LIMIT,
    UNBOUNDED,
    ModelArrays,
    SolveOptions,
    solve_builtin,
)

from oracles import brute_force_solve, propagate_bounds, random_milp


def test_rounding_forced():
    m = Model()
    x = m.binary("x")
    m.add_constraint(x + 0.0, GE, 0.3, "force")
    m.set_objective(x + 0.0)
    sol = solve_builtin(m)
    assert sol.status == OPTIMAL
    assert sol.values["x"] == 1.0
    assert sol.objective == pytest.approx(1.0)


def test_infeasible_row_pair():
    m = Model()
    x = m.continuous("x", -10, 10)
    m.add_constraint(x + 0.0, LE, 0.0, "low")
    m.add_constraint(x + 0.0, GE, 1.0, "high")
    assert solve_builtin(m).status == INFEASIBLE


def test_unbounded_detected():
    m = Model()
    x = m.continuous("x")
    m.add_constraint(x + 0.0, LE, 5.0, "cap")
    m.set_objective(x + 0.0)
    assert solve_builtin(m).status == UNBOUNDED


def test_options_reject_nonpositive_tolerances():
    with pytest.raises(SolverError):
        SolveOptions(gap_tol=0.0)
    with pytest.raises(SolverError):
        SolveOptions(int_tol=-1.0)


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
        v = sol.values[x.name]
        assert abs(v - round(v)) <= 1e-6


def test_deterministic_resolve():
    rng = np.random.default_rng(21)
    m = random_milp(rng, max_binaries=10, max_rows=15)
    a = solve_builtin(m)
    b = solve_builtin(m)
    assert a.status == b.status
    assert a.values == b.values


def test_time_limit_status():
    rng = np.random.default_rng(3)
    m = random_milp(rng, max_binaries=12, max_rows=20)
    sol = solve_builtin(m, SolveOptions(time_limit=1e-9))
    assert sol.status in (TIME_LIMIT, INFEASIBLE, OPTIMAL)  # tiny models may finish in one node


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
    assert arrays.max_violation(sol.vector(m)) <= 1e-6
    assert arrays.objective_value(sol.vector(m)) == pytest.approx(sol.objective)


def test_dense_and_highs_agree():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = random_milp(rng, max_binaries=7, max_rows=10)
        a = solve_builtin(m, SolveOptions(lp_backend="dense"))
        b = solve_builtin(m, SolveOptions(lp_backend="highs"))
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert a.objective == pytest.approx(b.objective, abs=1e-6)
