"""Model construction, validation and LP export."""

import math
import random

import numpy as np
import pytest

from besched.errors import DuplicateName, ModelError, UndeclaredVariable
from besched.milp import (BINARY, CONTINUOUS, EQ, GE, INTEGER, INF, LE, Domain, ExprBlock,
                          LinExpr, Model, ValidationReport, Var, export_lp)
from besched.solver import SolveOptions, solve_builtin

from oracles import (RefLinExpr, RefVar, export_lp_reference, parse_lp, random_milp,
                     solve_parsed_lp)


def test_add_var_registers_handle():
    m = Model()
    h = m.binary("x_1")
    assert len(m.vars) == 1
    assert m.vars[0] is h
    assert "x_1" in m.column_names()


def test_add_var_bounded_continuous():
    m = Model()
    v = m.continuous("u_th_3", 0.75, 1.5)
    assert v.domain.lo == 0.75 and v.domain.hi == 1.5
    assert not v.domain.is_integral


def test_duplicate_name_rejected():
    m = Model()
    m.binary("x_1")
    with pytest.raises(DuplicateName):
        m.binary("x_1")


def test_domain_invariants():
    with pytest.raises(ModelError):
        Domain(INTEGER, 3.0, 1.0)
    with pytest.raises(ModelError):
        Domain(BINARY, 0.0, 2.0)
    with pytest.raises(ModelError):
        Domain(CONTINUOUS, math.nan, 1.0)


def test_equal_boxes_give_equal_domains_and_keep_a_zero_sign():
    m, other = Model(), Model()
    a, b = m.continuous("a", 0, 5), m.continuous("b", 0.0, 5.0)
    assert a.domain == b.domain == Domain(CONTINUOUS, 0.0, 5.0)
    # every binary of every model shares one Domain
    assert m.binary("x").domain is m.binary("y").domain is other.binary("x").domain
    assert m.integer("i", -2, 3).domain == m.integer("j", -2.0, 3.0).domain
    assert m.continuous("f").domain == m.continuous("g").domain == Domain(CONTINUOUS, -INF, INF)
    # the same bounds of another kind are another box
    assert m.integer("k", 0, 5).domain != a.domain
    assert m.binary("z").domain != m.continuous("u", 0, 1).domain
    # a zero bound keeps the sign it was given
    neg = m.continuous("neg", -0.0, 5.0)
    assert math.copysign(1.0, neg.domain.lo) == -1.0 and math.copysign(1.0, a.domain.lo) == 1.0
    assert math.copysign(1.0, m.continuous("neg2", -0.0, 5.0).domain.lo) == -1.0


def test_a_bad_box_raises_on_every_call():
    m = Model()
    for attempt in range(3):
        with pytest.raises(ModelError, match="empty domain"):
            m.integer(f"i{attempt}", 3, 1)
        with pytest.raises(ModelError, match="empty domain"):
            m.continuous(f"c{attempt}", 1.0, 0.0)
        for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(ModelError, match="NaN"):
                m.continuous(f"n{attempt}", lo, hi)
            with pytest.raises(ModelError, match="NaN"):
                m.integer(f"n{attempt}", lo, hi)
        with pytest.raises(ModelError, match="binary"):
            m.add_var(f"b{attempt}", Domain(BINARY, 0.0, 2.0))
        for bound in (INF, -INF):  # a box without a finite value
            message = f"^no finite value in the domain: lo={bound}, hi={bound}$"
            with pytest.raises(ModelError, match=message):
                m.continuous(f"f{attempt}", bound, bound)
            with pytest.raises(ModelError, match=message):
                m.integer(f"f{attempt}", bound, bound)
    assert m.vars == []


def test_a_var_is_a_slotted_handle_with_identity_equality():
    m = Model()
    x, y = m.continuous("x"), m.continuous("y")
    assert not hasattr(x, "__dict__")
    assert x == x and x != y and x != Var(x.id, x.name, x.domain)
    assert hash(x) == object.__hash__(x)
    assert len({x, y, Var(x.id, x.name, x.domain)}) == 3
    assert repr(x) == "Var(x)"
    rx, ry = RefVar(x.id), RefVar(y.id)
    for k in SCALARS:
        for out, ref in ((x + k, rx + k), (k + x, k + rx), (x - k, rx - k), (k - x, k - rx),
                         (x * k, rx * k), (k * x, k * rx)):
            assert _bits(out) == _bits(ref), k
    for out, ref in ((x + y, rx + ry), (x - y, rx - ry), (x - x, rx - rx), (x + x, rx + rx),
                     (-x, -rx), (x.expr(), rx.expr())):
        assert _bits(out) == _bits(ref)


def test_add_constraint_and_tags():
    m = Model()
    x1 = m.binary("x_1")
    x0 = m.binary("x_0")
    s = m.binary("start_1")
    cid = m.add_constraint(x1 - x0 - s, LE, 0.0, "unit.startstop.i=1")
    assert isinstance(cid, int)
    assert m.constraints[cid].tag == "unit.startstop.i=1"


def test_degenerate_row_flagged_trivially_true():
    m = Model()
    m.binary("x")
    m.add_constraint(LinExpr(), LE, 0.0, "degenerate")
    report = m.validate()
    assert ("degenerate" in [t for _, t in report.trivial_rows])
    assert not report.infeasible_rows


def test_undeclared_variable_rejected():
    m1, m2 = Model(), Model()
    foreign = m2.binary("alien")
    with pytest.raises(UndeclaredVariable):
        m1.add_constraint(foreign + 0.0, LE, 1.0, "bad")
    m1.binary("x")
    # the message names the first undeclared id in term order
    for terms, bad in (({0: 1.0, 5: 1.0, -1: 1.0}, 5), ({-3: 1.0, 0: 2.0, 7: 1.0}, -3)):
        with pytest.raises(UndeclaredVariable, match=rf"handle {bad} not declared"):
            m1.add_constraint(LinExpr(terms), LE, 1.0, "bad")
        with pytest.raises(UndeclaredVariable, match=rf"handle {bad} not declared"):
            m1.set_objective(LinExpr(terms))
    assert m1.constraints == []


def test_rows_refuse_a_non_finite_rhs_and_an_undeclared_column():
    m = Model()
    ids = m.continuous_series("p", 3, 0.0, 1.0)
    x = m.vars[0]
    with pytest.raises(ModelError, match="non-finite rhs in constraint 'cap'"):
        m.add_constraint(x + 0.0, LE, INF, "cap")
    with pytest.raises(ModelError, match="non-finite rhs in constraint 'cap'"):
        m.add_constraint(x + math.nan, LE, 1.0, "cap")
    with pytest.raises(ModelError, match=r"non-finite rhs in constraint 'cap\.i=2'"):
        m.add_rows(ExprBlock.columns(ids), LE, [1.0, INF, 1.0], "cap")
    with pytest.raises(UndeclaredVariable, match="handle 3 not declared"):
        m.add_rows(ExprBlock.columns([0, 3, 1]), LE, 1.0, "cap")
    assert m.constraints == []


# each fault of the one rule for a stored row: the bad row's sense, tag,
# second column (its first is column 0) and rhs, and the error's class
_ROW_FAULTS = {
    "unknown sense": ("<>", "bad", 1, 1.0, ModelError),
    "empty tag": (LE, "", 1, 1.0, ModelError),
    "undeclared column": (LE, "bad", 2, 1.0, UndeclaredVariable),
    "repeated column": (LE, "bad", 0, 1.0, ModelError),
    "non-finite rhs": (LE, "bad", 1, INF, ModelError),
}


def _store_bad_row(m, entry, sense, tag, col, rhs):
    """Through ``entry``, store a good row and then the row x0 + x{col} with
    ``sense``, ``tag`` and ``rhs``; ``add_constraint`` stores only the bad row.
    ``add_rows`` tags its rows ``{tag}.i=k`` and takes one sense for its block.
    """
    if entry == "add_constraint":
        m.add_constraint(LinExpr({0: 1.0, col: 1.0}), sense, rhs, tag)
    elif entry == "add_rows":
        block = ExprBlock(np.array([0, 2, 4]), np.array([0, 1, 0, col]), np.ones(4),
                          np.zeros(2))
        m.add_rows(block, sense, [1.0, rhs], tag)
    else:
        m.append_rows([0, 1, 0, col], [1.0] * 4, [2, 2], [-1, -1 if sense == LE else 2],
                      [1.0, rhs], ["good", tag])


@pytest.mark.parametrize("entry, fault", [
    (entry, fault) for entry in ("add_constraint", "add_rows", "append_rows")
    for fault in _ROW_FAULTS
    if (entry, fault) != ("add_constraint", "repeated column")  # a LinExpr holds a column once
])
def test_every_store_entry_refuses_each_row_fault_and_stores_nothing(entry, fault):
    *row, error = _ROW_FAULTS[fault]
    sense, tag = row[:2]
    if entry == "add_rows" and tag:
        # an empty tag leaves every row's tag empty, and a bad sense is the block's
        tag = f"{tag}.i={1 if sense == '<>' else 2}"
    m = Model()
    x0, _ = m.binary("x0"), m.binary("x1")
    m.add_constraint(x0 + 0.0, LE, 1.0, "kept")
    before = m.row_arrays()
    with pytest.raises(error) as raised:
        _store_bad_row(m, entry, *row)
    assert repr(tag) in str(raised.value)
    after = m.row_arrays()
    assert all(np.array_equal(x, y) for x, y in zip(before[:5], after[:5]))
    assert after.tags == ["kept"]


def _store_lengths(m):
    return [len(getattr(m, a)) for a in ("_names", "_lo", "_hi", "_kind", "_handles", "_by_name",
                                         "_cols", "_coefs", "_ends", "_senses", "_rhs", "_tags")]


_STORE_FAULTS = {
    # a float sense code equals a known one, but its append raises
    "append_rows, float sense": (
        lambda m: m.append_rows([0, 1], [1.0, 1.0], [1, 1], [-1, 1.0], [0.0, 0.0], ["ok", "t"]),
        ModelError, "unknown constraint sense 1.0 in constraint 't'"),
    "append_rows, float column": (
        lambda m: m.append_rows([0, 1.7], [1.0, 1.0], [1, 1], [-1, 1], [0.0, 0.0], ["ok", "t"]),
        UndeclaredVariable, "variable handle 1.7 not declared in this model, in constraint 't'"),
    "append_rows, coefficient None": (
        lambda m: m.append_rows([0, 1], [1.0, None], [1, 1], [-1, 1], [0.0, 0.0], ["ok", "t"]),
        TypeError, "must be real number"),
    "add_rows, float column": (
        lambda m: m.add_rows(ExprBlock(np.array([0, 1, 2]), np.array([1.7, 0.0]), np.ones(2),
                                       np.zeros(2)), LE, 0.0, "b"),
        UndeclaredVariable, "variable handle 1.7 not declared in this model, in constraint "
                            "'b.i=1'"),
    "add_rows, text coefficient": (
        lambda m: m.add_rows(ExprBlock(np.array([0, 1, 2]), np.array([0, 1]),
                                       np.array([1.0, "a"], dtype=object), np.zeros(2)),
                             LE, 0.0, "b"),
        ValueError, "could not convert string to float: 'a'"),
    "add_var, unknown kind": (
        lambda m: m.add_var("z", Domain("real", 0.0, 1.0)),
        ModelError, "unknown variable kind 'real'"),
}


@pytest.mark.parametrize("fault", _STORE_FAULTS)
def test_a_store_that_raises_leaves_every_store_array_as_it_was(fault):
    store, error, message = _STORE_FAULTS[fault]
    m = Model()
    x0, x1 = m.binary("x0"), m.continuous("x1", 0.0, 2.0)
    m.add_constraint(x0 + x1, LE, 1.0, "kept")
    before = _store_lengths(m)
    with pytest.raises(error) as raised:
        store(m)
    assert message in str(raised.value)
    assert _store_lengths(m) == before
    # the next column and row line up with the store
    y = m.integer("y", 0, 3)
    assert m.vars[2] is y and len(m.column_arrays().lo) == len(m.column_arrays().integral) == 3
    m.append_rows([y.id], [1.0], [1], [1], [1.0], ["next"])
    assert m.row_arrays().tags == ["kept", "next"]


def test_a_non_finite_coefficient_is_refused_naming_its_row_or_column():
    m = Model()
    x, y = m.binary("x"), m.binary("y")
    m.add_constraint(x + y, LE, 1.0, "fine")
    m.add_constraint(LinExpr({x.id: 2.0, y.id: math.inf}), LE, 1.0, "bad")
    for read in (m.row_arrays, m.validate, lambda: export_lp(m), lambda: solve_builtin(m)):
        with pytest.raises(ModelError, match="non-finite coefficient in constraint 'bad'"):
            read()
    with pytest.raises(ModelError, match="non-finite objective coefficient of 'y'"):
        m.set_objective(LinExpr({x.id: 1.0, y.id: math.nan}))
    with pytest.raises(ModelError, match="non-finite objective constant"):
        m.set_objective(x * 1.0 + math.inf)
    assert m.objective.terms == {}


def test_empty_tag_rejected():
    m = Model()
    x = m.binary("x")
    with pytest.raises(ModelError):
        m.add_constraint(x + 0.0, LE, 1.0, "")


def test_validate_reports():
    m = Model()
    m.binary("unused")
    m.add_constraint(LinExpr(const=0.0), EQ, 1.0, "zero_eq_one")
    report = m.validate()
    assert "unused" in report.unused_vars
    assert [t for _, t in report.infeasible_rows] == ["zero_eq_one"]
    # validate never mutates
    assert len(m.constraints) == 1 and len(m.vars) == 1


def test_validate_empty_model_empty_report():
    assert Model().validate() == ValidationReport()


def test_linexpr_normalization():
    m = Model()
    x = m.binary("x")
    e = x + x + 1.0 - x * 0.5
    assert e.terms == {x.id: 1.5}
    assert e.const == 1.0
    assert all(math.isfinite(c) for c in e.terms.values())


def test_export_lp_round_trips_through_independent_solver():
    m = Model("tiny")
    x = m.binary("x")
    m.add_constraint(x + 0.0, GE, 0.3, "force")
    m.set_objective(x + 0.0)
    text = export_lp(m).text
    obj, values = solve_parsed_lp(parse_lp(text))
    assert values["x"] == pytest.approx(1.0)
    assert obj == pytest.approx(1.0)


def test_a_continuous_column_on_the_default_box_has_no_bounds_line():
    m = Model()
    u = m.continuous("u", 0.0)
    x = m.continuous("x", 0.0, 2.0)
    m.add_constraint(u + x, GE, 3.0, "cover")
    m.set_objective(u * 2.0 + x)
    text = export_lp(m).text
    assert text.split("Bounds\n")[1] == " 0 <= x <= 2\nEnd\n"
    parsed = parse_lp(text)
    assert parsed["bounds"] == {"u": (0.0, INF), "x": (0.0, 2.0)}
    obj, values = solve_parsed_lp(parsed)
    assert obj == pytest.approx(4.0)
    assert values["u"] == pytest.approx(1.0) and values["x"] == pytest.approx(2.0)


def test_export_lp_serializes_all_senses():
    m = Model()
    a = m.continuous("a", 0, 5)
    b = m.integer("b", -2, 4)
    m.add_constraint(a + b, LE, 3.0, "le")
    m.add_constraint(a - b, GE, -1.0, "ge")
    m.add_constraint(a + 2 * b, EQ, 2.0, "eq")
    m.set_objective(a + b)
    text = export_lp(m).text
    assert " <= 3" in text and " >= -1" in text and " = 2" in text
    assert "General" in text and "Bounds" in text
    parsed = parse_lp(text)
    assert len(parsed["rows"]) == 3
    assert "b" in parsed["integers"]


def test_export_lp_deterministic():
    def build():
        m = Model("same")
        x = m.binary("x")
        u = m.continuous("u", 0, 2)
        m.add_constraint(x + u, LE, 2.0, "row")
        m.set_objective(u - x)
        return export_lp(m).text

    assert build() == build()


def test_export_lp_sanitizes_illegal_names_reversibly():
    m = Model()
    v = m.binary("fcCHP.x[1]")
    m.set_objective(v + 0.0)
    lp = export_lp(m)
    assert "fcCHP.x[1]" not in lp.text
    (clean, original), = lp.name_map.items()
    assert original == "fcCHP.x[1]"
    assert clean in lp.text


def test_exported_model_agrees_with_builtin():
    m = Model()
    xs = [m.binary(f"x{j}") for j in range(5)]
    m.add_constraint(sum(x + 0.0 for x in xs), GE, 2.0, "pick2")
    m.set_objective(sum((j + 1) * x for j, x in enumerate(xs)))
    sol = solve_builtin(m, SolveOptions(lp_backend="dense"))
    obj, _ = solve_parsed_lp(parse_lp(export_lp(m).text))
    assert sol.objective == pytest.approx(obj, abs=1e-9)


def test_evaluate_reads_values_by_column_id():
    m = Model()
    x = m.binary("x")
    e = 2 * x + 1.0
    assert m.evaluate(e, {x.id: 1.0}) == 3.0
    assert type(m.evaluate(e, np.array([1.0]))) is float


# -- arithmetic against the copy-per-operation reference ----------------------


def _bits(x):
    """Everything an operand is, down to the bits and order of its terms."""
    if isinstance(x, (Var, RefVar)):
        return ("var", x.id)
    if isinstance(x, (LinExpr, RefLinExpr)):
        return ("expr", [(vid, type(c), float(c).hex()) for vid, c in x.terms.items()],
                type(x.const), x.const.hex())
    return ("number", type(x), float(x).hex())


SCALARS = (0, 0.0, -0.0, 1, -1, 3, 1.0, -1.0, 0.5, 0.1, 0.2, 0.3, -0.1, -0.2, 2.5, -7,
           1e-300, 1e300)


def _step(rng, a, b, k, fast):
    """One random operation: the same operator on the package's objects and on
    the reference's (``fast`` tells them apart only for ``accumulate``)."""
    op = rng.randrange(11)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a + k
    if op == 3:
        return k + a
    if op == 4:
        return a - k
    if op == 5:
        return k - a
    if op == 6:
        return a * k
    if op == 7:
        return k * a
    if op == 8:
        return -a
    # in place on a copy; the reference has only the binary operators
    subtract = op == 10
    if not fast:
        return a - b if subtract else a + b
    acc = a.copy() if isinstance(a, LinExpr) else a.expr()
    assert acc.accumulate(b, subtract=subtract) is acc
    return acc


def test_linexpr_arithmetic_matches_the_reference_bit_for_bit():
    m = Model()
    xs = [m.continuous(f"x{j}") for j in range(5)]
    for seed in range(300):
        pool = [(x, RefVar(x.id)) for x in xs] + [(LinExpr(), RefLinExpr())]
        rng = random.Random(seed)
        for _ in range(30):
            (a, ra), (b, rb) = rng.choice(pool), rng.choice(pool)
            k = rng.choice(SCALARS)
            before = [_bits(v) for v in (a, b, ra, rb)]
            state = rng.getstate()
            out = _step(rng, a, b, k, fast=True)
            rng.setstate(state)
            ref = _step(rng, ra, rb, k, fast=False)
            assert _bits(out) == _bits(ref), seed
            # no operator changes an operand, the in-place one included
            assert [_bits(v) for v in (a, b, ra, rb)] == before
            pool.append((out, ref))


def test_linexpr_cancellation_and_signed_zero_constants():
    m = Model()
    x, y = m.continuous("x"), m.continuous("y")
    e = (x + y) - x
    assert list(e.terms) == [y.id]
    assert (x * 0.1 + y * 0.2 - x * 0.1).terms == {y.id: 0.2}
    assert (x - x).terms == {} and (e - e).terms == {}
    # -x carries the constant -0.0 of ``x * -1.0``; 0 - x carries +0.0
    assert math.copysign(1.0, (-x).const) == -1.0
    assert math.copysign(1.0, (0 - x).const) == 1.0
    assert math.copysign(1.0, (-0.0 - x).const) == -1.0
    assert math.copysign(1.0, (x * -2).const) == -1.0
    assert math.copysign(1.0, (x * 0).const) == 1.0
    # subtracting the int 0 adds int 0, which turns -0.0 into 0.0; 0.0 does not
    assert math.copysign(1.0, (-x - 0).const) == 1.0
    assert math.copysign(1.0, (-x - 0.0).const) == -1.0
    acc = LinExpr(const=-0.0)
    acc.accumulate(x)
    assert math.copysign(1.0, acc.const) == -1.0  # a variable adds no constant
    acc.accumulate(acc)
    assert acc.terms == {x.id: 2.0}
    with pytest.raises(TypeError):
        acc.accumulate("x")


# -- LP export against the first per-term version -----------------------------


def _assert_export_matches_reference(model):
    lp = export_lp(model)
    text, name_map = export_lp_reference(model)
    assert lp.text == text
    assert lp.name_map == name_map


def test_export_lp_matches_the_reference_on_random_models():
    rng = np.random.default_rng(11)
    for _ in range(100):
        _assert_export_matches_reference(random_milp(rng))


def test_export_lp_matches_the_reference_on_illegal_and_duplicate_names():
    m = Model("names")
    names = ["a.b", "a_b", "a_b__2", "1x", "e5", "E.1", "e", "E", "e_1", "", "_", "ä",
             "x y", "x\ny", "ab]", "ab_", "9", "v_9", "ée3", "E7x", "x1", "x[1]"]
    for j, name in enumerate(names):
        v = m.add_var(name, (Domain(BINARY, 0.0, 1.0), Domain(INTEGER, -2.0, 3.0),
                             Domain(CONTINUOUS, -INF, INF), Domain(CONTINUOUS, 0.0, 5.25),
                             Domain(CONTINUOUS, 1.5, 1.5))[j % 5])
        m.add_constraint(v * (j - 7.5) + 0.1, (LE, GE, EQ)[j % 3], j / 3, f"row{j}")
    m.set_objective(sum((v * 0.3 for v in m.vars[::2]), start=LinExpr()))
    _assert_export_matches_reference(m)
    renamed = export_lp(m).name_map
    assert renamed["a_b__2"] == "a_b" and renamed["a_b__2__2"] == "a_b__2"
    assert renamed["v_e5"] == "e5" and renamed["v_"] == "" and renamed["_e3"] == "ée3"
    # nothing legal is renamed
    _assert_export_matches_reference(Model("empty"))
    only_legal = Model()
    only_legal.binary("x1")
    assert export_lp(only_legal).name_map == {}


def _handle_readout(m):
    """lo, hi and integrality read one handle at a time."""
    return (np.array([v.domain.lo for v in m.vars], dtype=float),
            np.array([v.domain.hi for v in m.vars], dtype=float),
            np.array([v.domain.is_integral for v in m.vars], dtype=bool))


def _week_model(tmp_path):
    from besched.pipeline import build_problem
    from besched.xmlio import parse_configuration, parse_situation
    from helpers import write_week_scenario

    config_path, situation_path = write_week_scenario(tmp_path / "week", seed=3)
    config = parse_configuration(config_path.read_text())
    situation = parse_situation(situation_path.read_text(), config)
    return build_problem(config, situation, base_dir=config_path.parent).model


def _every_box_model():
    m = Model()
    m.continuous("zero", 0.0, 0.0)
    m.continuous("negzero", -0.0, -0.0)
    m.continuous("free")
    m.continuous("up", 0.0, INF)
    m.continuous("down", -INF, -0.0)
    m.binary("b")
    m.integer("i", -3, 7)
    m.add_var("given", Domain(INTEGER, -0.0, 2.0))
    m.continuous_series("s", 6, [0.0, -0.0, -INF, 1.5, 0.0, -0.0], [0.0, 0.0, INF, INF, -0.0, 2.5])
    m.continuous_series("t", 3)
    return m


# per-unit boxes of a series, and the bounds of the scalar columns beside it
MIXED_BOXES = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, INF), (-0.0, INF), (-INF, INF),
               (-INF, -0.0), (1.5, 1.5), (-2.0, 3.0), (0.25, 7.0)]


def _mixed_model(rng):
    """Series columns with boxes that vary per unit, each series followed by
    an integer, a binary and a continuous column on the bounds of its units."""
    m = Model("mixed")
    n = int(rng.integers(1, 9))
    for s in range(int(rng.integers(1, 4))):
        boxes = [MIXED_BOXES[j] for j in rng.integers(0, len(MIXED_BOXES), size=n).tolist()]
        m.continuous_series(f"s{s}", n, [lo for lo, _ in boxes], [hi for _, hi in boxes])
        for k, (lo, hi) in enumerate(boxes[:2]):
            m.integer(f"i{s}.{k}", lo, hi)
            m.binary(f"b{s}.{k}")
            m.continuous(f"c{s}.{k}", lo, hi)
    for r in range(int(rng.integers(0, 6))):
        cols = rng.choice(m.n_columns, size=min(3, m.n_columns), replace=False).tolist()
        terms = {c: float(rng.integers(-4, 5)) or 0.5 for c in cols}
        m.add_constraint(LinExpr(terms), (LE, GE, EQ)[r % 3], float(rng.integers(-3, 4)), f"r{r}")
    m.set_objective(LinExpr({c: 1.25 for c in range(0, m.n_columns, 3)}))
    return m


def test_export_lp_matches_the_reference_on_every_box_and_on_mixed_columns():
    _assert_export_matches_reference(_every_box_model())
    rng = np.random.default_rng(17)
    for _ in range(40):
        _assert_export_matches_reference(_mixed_model(rng))


def test_column_arrays_equal_the_handle_readout(tmp_path):
    from test_pipeline import _every_element_by_hand

    rng = np.random.default_rng(21)
    models = [_every_box_model(), _every_element_by_hand()[0], _week_model(tmp_path), Model()]
    models += [random_milp(rng) for _ in range(20)]
    for m in models:
        arrays = m.column_arrays()
        for got, want in zip(arrays, _handle_readout(m)):
            # bytes: -0.0 keeps its sign
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert len(arrays.lo) == m.n_columns == len(m.vars)
        assert m.column_names() == [v.name for v in m.vars]
    lo, hi, integral = models[0].column_arrays()
    assert np.signbit(lo).tolist() == [False, True, True, False, True, False, True, True,
                                       False, True, True, False, False, True, True, True, True]
    assert integral.tolist() == [False] * 5 + [True] * 3 + [False] * 9


def test_the_column_view_makes_one_handle_per_column_on_first_read():
    m = Model()
    assert m.vars == [] and len(m.vars) == 0 and list(m.vars) == []
    with pytest.raises(IndexError):
        m.vars[0]
    x = m.continuous("x", 0.0, 1.0)
    ids = m.continuous_series("p", 4, 0.0, [1.0, 2.0, 3.0, 4.0])
    assert ids.tolist() == [1, 2, 3, 4] and len(m.vars) == 5
    assert m.vars[0] is x
    last = m.vars[-1]
    assert last is m.vars[4] is m.vars[-1]
    assert (last.id, last.name, last.domain.lo, last.domain.hi) == (4, "p[4]", 0.0, 4.0)
    assert m.vars[1:3] == [m.vars[1], m.vars[2]] and m.vars[1] is m.vars[1]
    assert m.vars[::-2] == [m.vars[4], m.vars[2], m.vars[0]]
    assert m.vars == list(m.vars) == [m.vars[k] for k in range(5)]
    assert m.vars != [x] and m.vars[2] != Var(2, "p[2]", m.vars[2].domain)
    with pytest.raises(IndexError):
        m.vars[5]
    with pytest.raises(IndexError):
        m.vars[-6]
    # a series column's handle gets the Domain of its box on the first read
    assert m.vars[1].domain == m.continuous("q", 0.0, 1.0).domain
    assert "p[3]" in m.column_names() and "p[5]" not in m.column_names()


@pytest.mark.parametrize("lo, hi, message", [
    ([0.0, math.nan, 0.0], 1.0, r"^Building\.heating\[2\]: NaN bound$"),
    (0.0, [1.0, 1.0, math.nan], r"^Building\.heating\[3\]: NaN bound$"),
    ([0.0, 2.0 + 4e-13, 3.0], [1.0, 2.0, 2.0],
     r"^Building\.heating\[2\]: empty domain: lo=2\.0000000000004 > hi=2\.0$"),
    (1.0, 0.0, r"^Building\.heating\[1\]: empty domain: lo=1\.0 > hi=0\.0$"),
    ([0.0, INF, INF], INF,
     r"^Building\.heating\[2\]: no finite value in the domain: lo=inf, hi=inf$"),
    (-INF, [1.0, 1.0, -INF],
     r"^Building\.heating\[3\]: no finite value in the domain: lo=-inf, hi=-inf$"),
])
def test_a_bad_series_box_raises_naming_its_column(lo, hi, message):
    m = Model()
    m.continuous("x", 0.0, 1.0)
    for _ in range(2):  # a bad box is never stored, so it raises again
        with pytest.raises(ModelError, match=message):
            m.continuous_series("Building.heating", 3, lo, hi)
    assert m.n_columns == 1 and "Building.heating[1]" not in m.column_names()
    m.continuous_series("Building.heating", 3, 0.0, 1.0)  # the names stay free
    assert m.n_columns == 4


def test_a_series_gives_the_columns_of_one_continuous_call_each():
    rng = np.random.default_rng(4)
    lo = rng.choice([0.0, -0.0, -INF, 1.0, 2.5], size=40)
    hi = np.maximum(lo, rng.choice([0.0, -0.0, INF, 2.5, 3.0], size=40))
    series, single = Model(), Model()
    series.continuous_series("s", 40, lo, hi)
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()), start=1):
        single.continuous(f"s[{i}]", a, b)
    assert series.column_names() == single.column_names()
    for got, want in zip(series.column_arrays(), single.column_arrays()):
        assert got.tobytes() == want.tobytes()
    assert export_lp(series).text == export_lp(single).text
