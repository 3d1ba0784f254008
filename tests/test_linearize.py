"""Exactness of the reformulation toolkit, mostly by enumeration."""

import math

import numpy as np
import pytest

from besched.errors import ModelError
from besched.linearize import (
    BigM,
    abs_diff,
    binary_abs_diff,
    bool_and,
    product_bin_bounded,
    product_inequality,
    select_interval_gated,
    select_value,
)
from besched.milp import EQ, GE, LE, Model
from besched.solver import SolveOptions, solve_builtin

from oracles import brute_force_solve

OPTS = SolveOptions(lp_backend="dense")


def _pin(m, var, value, tag="pin"):
    m.add_constraint(var + 0.0, EQ, float(value), f"{tag}.{var.name}")


def _solve(m):
    sol = solve_builtin(m, OPTS)
    assert sol.feasible, sol.status
    return sol


def test_bigm_positive_and_large_enough():
    with pytest.raises(ModelError):
        BigM(-1.0, "neg", 1.0)
    with pytest.raises(ModelError):
        BigM(3.0, "small", 5.0)
    assert BigM(5.0, "ok", 5.0).value == 5.0


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("u", [-10, -3, 0, 5, 10])
def test_product_bin_bounded_enumeration(a, u):
    m = Model()
    alpha = m.binary("alpha")
    uu = m.continuous("u", -10, 10)
    v = product_bin_bounded(m, alpha, uu, -10, 10, "v", "prod")
    _pin(m, alpha, a)
    _pin(m, uu, u)
    sol = _solve(m)
    assert sol.x[v.id] == pytest.approx(a * u, abs=1e-9)


@pytest.mark.parametrize("free_u", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_a_product_whose_u_is_in_no_other_row_is_its_two_gate_rows(seed, free_u):
    # alpha continuous in [0, 1]: over (alpha, V) the four rows on U and the
    # two gate rows alone have the same LP minimum and maximum
    rng = np.random.default_rng(seed)
    # odd seeds: a positive minimum, as the MechCHP's output has
    u_min, u_max = sorted(rng.uniform(0.0 if seed % 2 else -10.0, 10.0, 2))
    full, gates = Model(), Model()
    a = full.continuous("alpha", 0.0, 1.0)
    u = full.continuous("u", *((-math.inf, math.inf) if free_u else (u_min, u_max)))
    v = product_bin_bounded(full, a, u, u_min, u_max, "v", "prod")
    ga = gates.continuous("alpha", 0.0, 1.0)
    gv = gates.continuous("v", min(0.0, u_min), max(0.0, u_max))
    gates.add_constraint(ga * u_min - gv, LE, 0.0, "prod.lo_gate")
    gates.add_constraint(gv - ga * u_max, LE, 0.0, "prod.hi_gate")
    for c_a, c_v in rng.normal(size=(3, 2)):
        for sense in (1.0, -1.0):
            full.set_objective(a * (sense * c_a) + v * (sense * c_v))
            gates.set_objective(ga * (sense * c_a) + gv * (sense * c_v))
            (s_full, o_full, _), (s_gates, o_gates, _) = map(brute_force_solve, (full, gates))
            assert s_full == s_gates == "optimal"
            assert o_full == pytest.approx(o_gates, abs=1e-9)


@pytest.mark.parametrize("sense", [GE, LE])
@pytest.mark.parametrize("seed", range(10))
def test_a_product_in_one_inequality_is_its_projection(seed, sense):
    # alpha continuous in [0, 1]: over (alpha, U, W) the product column with
    # its four rows and the row V <sense> c * W + d, and the rows that
    # product_inequality writes without V, have the same LP minimum and
    # maximum, or are both infeasible
    rng = np.random.default_rng(seed)
    u_min, u_max = sorted(rng.uniform(-10.0, 10.0, 2))
    c, d = rng.normal(size=2) * 5
    models = []
    for project in (False, True):
        m = Model()
        a, u = m.continuous("alpha", 0.0, 1.0), m.continuous("u", u_min, u_max)
        w = m.continuous("w", -1.0, 1.0)
        if project:
            product_inequality(m, a, u, u_min, u_max, sense, w * c + d, "prod")
            assert m.bigms == []
        else:
            v = product_bin_bounded(m, a, u, u_min, u_max, "v", "prod.p")
            m.add_constraint(v - w * c - d, sense, 0.0, "prod")
        models.append((m, (a, u, w)))
    for coefs in rng.normal(size=(3, 3)):
        for sign in (1.0, -1.0):
            found = []
            for m, cols in models:
                m.set_objective(sum(x * (sign * k) for x, k in zip(cols, coefs)))
                found.append(brute_force_solve(m)[:2])
            (s_full, o_full), (s_proj, o_proj) = found
            assert s_full == s_proj
            if s_full == "optimal":
                assert o_full == pytest.approx(o_proj, abs=1e-9)


def test_a_projected_row_the_boxes_imply_is_not_written():
    m = Model()
    a, u = m.binary("alpha"), m.continuous("u", -4.0, 6.0)
    # V <= 6 and V >= -4 hold for every alpha * U in the box
    product_inequality(m, a, u, -4.0, 6.0, LE, 6.0, "le")
    product_inequality(m, a, u, -4.0, 6.0, GE, -4.0, "ge")
    assert len(m.constraints) == 0
    # V <= 5 cuts alpha = 1, U > 5 off: only the track row is written
    product_inequality(m, a, u, -4.0, 6.0, LE, 5.0, "cut")
    assert [c.tag for c in m.constraints] == ["cut"]
    with pytest.raises(ModelError, match="finite and ordered"):
        product_inequality(m, a, u, -math.inf, 6.0, LE, 5.0, "unbounded")
    with pytest.raises(ModelError, match="equality"):
        product_inequality(m, a, u, -4.0, 6.0, EQ, 5.0, "equality")


def test_product_rejects_unbounded():
    m = Model()
    alpha = m.binary("alpha")
    u = m.continuous("u")
    with pytest.raises(ModelError):
        product_bin_bounded(m, alpha, u, float("-inf"), 10, "v", "prod")


@pytest.mark.parametrize("a,b", [(3, 3), (2, 5), (5, 2), (-4, 4), (0, -7)])
def test_abs_diff(a, b):
    m = Model()
    va = m.continuous("a", -10, 10)
    vb = m.continuous("b", -10, 10)
    x = abs_diff(m, va, vb, 20, "x", "abs")
    _pin(m, va, a)
    _pin(m, vb, b)
    sol = _solve(m)
    assert sol.x[x.id] == pytest.approx(abs(b - a), abs=1e-9)


def test_binary_abs_diff_matches_under_compatibility_rows():
    from besched.fcchp import build_onoff_chain

    for x0 in (0, 1):
        for x1 in (0, 1):
            m = Model()
            chain = build_onoff_chain(m, 1, x0, name="u")
            _pin(m, chain.x[0], x1)
            expr = binary_abs_diff(chain.start[0], chain.stop[0])
            sol = _solve(m)
            assert m.evaluate(expr, sol.x) == pytest.approx(abs(x1 - x0))


@pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_bool_and_truth_table(a, b):
    m = Model()
    va, vb = m.binary("a"), m.binary("b")
    g = bool_and(m, va, vb, "g", "and")
    _pin(m, va, a)
    _pin(m, vb, b)
    # no objective pressure needed: the three rows pin gamma exactly
    sol = _solve(m)
    assert sol.x[g.id] == pytest.approx(a and b)


def test_select_value_direct_lookup():
    m = Model()
    x = m.integer("x", 1, 4)
    value, lams = select_value(m, x, (1, 1, 2, 4), "sel", "sel")
    _pin(m, x, 3)
    sol = _solve(m)
    assert m.evaluate(value, sol.x) == pytest.approx(2.0)
    assert sum(sol.x[lam.id] for lam in lams) == pytest.approx(1.0)


def test_select_value_boundary_and_sweep():
    table = (1, 2, 2, 5, 7, 7)
    for target in range(1, 7):
        m = Model()
        x = m.integer("x", 1, 6)
        value, _ = select_value(m, x, table, "sel", "sel")
        _pin(m, x, target)
        sol = _solve(m)
        assert m.evaluate(value, sol.x) == pytest.approx(table[target - 1])


def test_select_value_rejects_empty_table():
    m = Model()
    x = m.integer("x", 1, 3)
    with pytest.raises(ModelError):
        select_value(m, x, (), "sel", "sel")


def test_select_interval_gated_lookup():
    # table 1,1,2,2,2,4 grouped as intervals with one selector each
    intervals = [(1, 2, 1.0), (3, 5, 2.0), (6, 6, 4.0)]
    for d in range(1, 7):
        m = Model()
        x = m.integer("x", 1, 6)
        gate = m.binary("gate")
        value, _ = select_interval_gated(m, gate, x + 0.0, intervals, 1, 6, "sel", "sel")
        _pin(m, gate, 1)
        _pin(m, x, d)
        sol = _solve(m)
        expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 4}[d]
        assert m.evaluate(value, sol.x) == pytest.approx(expected)


def test_select_interval_gated_closed_gate_yields_zero():
    m = Model()
    x = m.integer("x", 1, 6)
    gate = m.binary("gate")
    value, _ = select_interval_gated(m, gate, x + 0.0, [(1, 6, 3.0)], 1, 6, "sel", "sel")
    _pin(m, gate, 0)
    _pin(m, x, 4)
    sol = _solve(m)
    assert m.evaluate(value, sol.x) == pytest.approx(0.0)


def test_reformulations_only_append():
    m = Model()
    a = m.binary("a")
    u = m.continuous("u", 0, 5)
    m.add_constraint(a + u, EQ, 1.0, "pre")
    before = [(c.terms.copy(), c.sense, c.rhs) for c in m.constraints]
    product_bin_bounded(m, a, u, 0, 5, "v", "prod")
    after = [(c.terms.copy(), c.sense, c.rhs) for c in m.constraints[: len(before)]]
    assert before == after


def test_bigms_are_recorded_with_tags():
    m = Model()
    x = m.integer("x", 1, 4)
    select_value(m, x, (1, 2, 3, 4), "sel", "sel")
    assert any(bm.tag.startswith("sel") for bm in m.bigms)
