"""The row builders against the LinExpr operator chains they replace.

``gated_column``, ``product_bin_bounded`` and ``product_inequality`` write
each row's term dict through ``linearize._mccormick_row``.  The reference
builders below are the operator-chain versions, kept here as the oracle:
both must hand ``add_constraint`` the same expressions (term order,
``float.hex`` of every coefficient and of the constant, -0.0 included) and
leave the same rows, columns and big-M records; ``product_inequality`` must
also drop the same rows that the column boxes imply.  ``transition_rows``
and ``build_min_durations`` hand their rows to ``Model.append_rows`` and
call no ``add_constraint``, so against their references the stored rows
(tag, terms, sense and ``rhs.hex``), columns and big-M records must agree.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besched.errors import ModelError, UndeclaredVariable
from besched.fcchp import OnOffChain, build_min_durations, transition_rows
from besched.linearize import (gated_column, product_bin_bounded, product_inequality,
                               record_bigm)
from besched.milp import GE, LE, LinExpr, Model, as_expr

COEFS = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, 0.0, -0.0, 0.1, -0.3, 3.0, 1e-17])
NUMBERS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 0.1, -0.3, 3, -2])
EVENTS = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.1, -0.3])
BOUNDS = st.tuples(NUMBERS, NUMBERS).map(sorted)  # u_min <= u_max, zero, negative or equal


class _Recording(Model):
    """A model that also records every row's expression as handed over."""

    def __init__(self):
        super().__init__("rows")
        self.lhs = []

    def add_constraint(self, lhs, sense, rhs=0.0, tag=""):
        e = as_expr(lhs)
        self.lhs.append(([(v, c.hex()) for v, c in e.terms.items()], float(e.const).hex()))
        return super().add_constraint(lhs, sense, rhs, tag)


def _product_reference(model, alpha, u, u_min, u_max, name, tag):
    a = as_expr(alpha)
    ue = as_expr(u)
    v = model.continuous(name, min(0.0, u_min), max(0.0, u_max))
    model.add_constraint(a * u_min - v, LE, 0.0, f"{tag}.lo_gate")
    model.add_constraint(v - a * u_max, LE, 0.0, f"{tag}.hi_gate")
    model.add_constraint(ue - (1 - a) * u_max - v, LE, 0.0, f"{tag}.lo_track")
    model.add_constraint(v - ue + (1 - a) * u_min, LE, 0.0, f"{tag}.hi_track")
    record_bigm(model, max(abs(u_min), abs(u_max), 1e-12), tag, max(abs(u_min), abs(u_max), 1e-12))
    return v


def _gated_reference(model, alpha, u_min, u_max, name, tag):
    a = as_expr(alpha)
    v = model.continuous(name, min(0.0, u_min), max(0.0, u_max))
    model.add_constraint(a * u_min - v, LE, 0.0, f"{tag}.lo_gate")
    model.add_constraint(v - a * u_max, LE, 0.0, f"{tag}.hi_gate")
    return v


def _inequality_reference(model, alpha, u, u_min, u_max, sense, bound, tag):
    a, ue, b = as_expr(alpha), as_expr(u), as_expr(bound)
    if sense == GE:
        rows = ((b - a * u_max, f"{tag}.gate"), (b - ue + (1 - a) * u_min, tag))
    else:
        rows = ((a * u_min - b, f"{tag}.gate"), (ue - (1 - a) * u_max - b, tag))
    lo, hi = model._lo, model._hi
    for e, row_tag in rows:
        if e.const + sum(c * (hi[v] if c > 0 else lo[v]) for v, c in e.terms.items()) > 0:
            model.add_constraint(e, LE, 0.0, row_tag)


def _transition_reference(model, state, state_0, begin_at, end_at, tag, on=None):
    for i in range(1, len(state) + 1):
        now = state[i - 1]
        prev = state[i - 2] if i > 1 else float(state_0)
        begin, end = begin_at(i), end_at(i)
        t = f"{tag}.i={i}"
        model.add_constraint(begin - now + prev, GE, 0.0, f"{t}.a")
        model.add_constraint(begin - now, LE, 0.0, f"{t}.b")
        model.add_constraint(begin + prev, LE, 1.0, f"{t}.c")
        model.add_constraint(end - prev + now, GE, 0.0, f"{t}.d")
        model.add_constraint(end - prev, LE, 0.0, f"{t}.e")
        model.add_constraint(end + now, LE, 1.0, f"{t}.f")
        if on is not None:
            model.add_constraint(on[i - 1] - now, GE, 0.0, f"{t}.on")


def _model_record(m):
    return (m.lhs, *_stored_record(m))


def _stored_record(m):
    """The rows, columns, boxes and big-M records a model stores."""
    cols = m.column_arrays()
    return ([(c.tag, [(v, x.hex()) for v, x in c.terms.items()], c.sense, c.rhs.hex())
             for c in m.constraints],
            m.column_names(), [x.hex() for x in cols.lo], [x.hex() for x in cols.hi],
            cols.integral.tolist(), repr(m.bigms))


# an operand as drawn: ("var", k), ("num", x) or ("expr", {k: coef}, const)
POOL = 5  # columns 0-4, binaries made before each build
_operand = st.one_of(
    st.tuples(st.just("var"), st.integers(0, POOL - 1)),
    st.tuples(st.just("num"), NUMBERS),
    st.tuples(st.just("expr"), st.dictionaries(st.integers(0, POOL - 1), COEFS, max_size=4),
              NUMBERS),
)


def _make(m, drawn):
    if drawn[0] == "var":
        return m.vars[drawn[1]]
    if drawn[0] == "num":
        return drawn[1]
    return LinExpr({m.vars[k].id: c for k, c in drawn[1].items()}, drawn[2])


def _built(product, alpha, u, bounds):
    m = _Recording()
    for k in range(POOL):
        m.binary(f"b{k}")
    u_min, u_max = bounds
    v = product(m, _make(m, alpha), _make(m, u), u_min, u_max, "v", "p")
    return v.id, _model_record(m)


@settings(max_examples=400, deadline=None)
@given(_operand, _operand, BOUNDS)
@example(("expr", {0: 1.0, 1: 2.0}, -0.0), ("expr", {1: 2.0, 2: 1.0}, 0.0), [0.0, 2.0])
@example(("expr", {0: -1.0}, 1.0), ("expr", {0: 2.0}, -0.0), [-2.0, 2.0])
@example(("var", 0), ("expr", {0: -1.0}, -0.0), [-1.0, -1.0])
@example(("num", -0.0), ("num", -0.0), [-0.0, 0.0])
def test_product_rows_match_the_operator_chains(alpha, u, bounds):
    assert _built(product_bin_bounded, alpha, u, bounds) == \
        _built(_product_reference, alpha, u, bounds)


def _gated(model, alpha, _u, u_min, u_max, name, tag):
    return gated_column(model, alpha, u_min, u_max, name, tag)


def _gated_ref(model, alpha, _u, u_min, u_max, name, tag):
    return _gated_reference(model, alpha, u_min, u_max, name, tag)


@settings(max_examples=300, deadline=None)
@given(_operand, BOUNDS)
@example(("expr", {0: 1.0, 1: 2.0}, -0.0), [0.0, 2.0])
@example(("expr", {0: -1.0, 1: 0.0}, 1.0), [-2.0, 2.0])
@example(("num", -0.0), [-0.0, 0.0])
@example(("var", 0), [1.0, 3])
def test_gated_rows_match_the_operator_chains(alpha, bounds):
    assert _built(_gated, alpha, ("num", 0.0), bounds) == \
        _built(_gated_ref, alpha, ("num", 0.0), bounds)


def _inequality_built(rows, alpha, u, bound, bounds, sense):
    m = _Recording()
    for k in range(POOL):
        m.binary(f"b{k}")
    rows(m, _make(m, alpha), _make(m, u), *bounds, sense, _make(m, bound), "p")
    return _model_record(m)


@settings(max_examples=400, deadline=None)
@given(_operand, _operand, _operand, BOUNDS, st.sampled_from((GE, LE)))
@example(("expr", {0: 1.0, 1: 2.0}, -0.0), ("expr", {1: 2.0, 2: 1.0}, 0.0), ("num", -0.0),
         [0.0, 2.0], GE)
@example(("expr", {0: -1.0}, 1.0), ("expr", {0: 2.0}, -0.0), ("num", 0.0), [-0.0, 0.0], LE)
# a -0.0 bound constant over a u constant 0.0: the row keeps its -0.0
@example(("var", 0), ("expr", {1: 2.0}, 0.0), ("expr", {3: 1.0}, -0.0), [0.0, 2.0], GE)
@example(("num", -0.0), ("num", -0.0), ("num", -0.0), [-0.0, 0.0], GE)
# the coldstart.onstart row: start * l >= start * i - M * k - L, alpha in the bound
@example(("var", 0), ("var", 1), ("expr", {0: 3.0, 2: -3.0}, -2.0), [-2, 3], GE)
@example(("var", 0), ("var", 1), ("expr", {0: 3.0, 2: -3.0}, -2.0), [-2, 3], LE)
def test_inequality_rows_match_the_operator_chains(alpha, u, bound, bounds, sense):
    assert _inequality_built(product_inequality, alpha, u, bound, bounds, sense) == \
        _inequality_built(_inequality_reference, alpha, u, bound, bounds, sense)


@st.composite
def _transitions(draw):
    n = draw(st.integers(1, 4))
    # begin_at(i) and end_at(i) read a series shifted back by a lag: a
    # variable inside the horizon, a recorded float before it
    begin = (draw(st.integers(0, 3)), draw(st.lists(EVENTS, min_size=4, max_size=4)))
    end = (draw(st.integers(0, 3)), draw(st.lists(EVENTS, min_size=4, max_size=4)))
    return n, draw(st.sampled_from((0, 1))), begin, end, draw(st.booleans())


def _transition_built(rows, n, state_0, begin, end, with_on):
    m = Model("rows")
    state = [m.binary(f"x[{i}]") for i in range(1, n + 1)]
    series = {}
    for name, (lag, history) in (("begin", begin), ("end", end)):
        cols = [m.binary(f"{name}[{i}]") for i in range(1, n + 1)]
        series[name] = (lambda i, lag=lag, cols=cols, history=history:
                        cols[i - lag - 1] if i - lag >= 1 else history[lag - i])
    on = [m.binary(f"on[{i}]") for i in range(1, n + 1)] if with_on else None
    rows(m, state, state_0, series["begin"], series["end"], "t", on=on)
    return _stored_record(m)


@settings(max_examples=300, deadline=None)
@given(_transitions())
@example((2, 0, (1, [-0.0, 0.0, 0.0, 0.0]), (2, [0.5, -0.0, 0.1, 0.0]), True))
@example((1, 1, (1, [-0.3, 0.0, 0.0, 0.0]), (1, [-0.0, 0.0, 0.0, 0.0]), False))
def test_transition_rows_match_the_operator_chains(case):
    assert _transition_built(transition_rows, *case) == \
        _transition_built(_transition_reference, *case)


def _min_durations_reference(model, chain, on_min, off_min, name="unit"):
    starts = sorted(j for j in chain.hist_start if j < 1)
    stops = sorted(j for j in chain.hist_stop if j < 1)
    for i in range(1, len(chain.x) + 1):
        if on_min > 1:
            lo = i - on_min + 1
            units = [j for j in starts if j >= lo] + list(range(max(lo, 1), i))
            run = LinExpr()
            for j in units:
                run = run + chain.start_at(j)
            model.add_constraint(chain.x[i - 1] - run, GE, 0.0, f"{name}.minrun.i={i}")
        if off_min > 1:
            lo = i - off_min + 1
            units = [j for j in stops if j >= lo] + list(range(max(lo, 1), i))
            down = LinExpr()
            for j in units:
                down = down + chain.stop_at(j)
            model.add_constraint(chain.x[i - 1] + down, LE, 1.0, f"{name}.mindown.i={i}")


# recorded events before unit 1: units -4 to 0, any value the history may carry
_HISTORY = st.dictionaries(st.integers(-4, 0), EVENTS, max_size=4)


def _durations_built(rows, n, x_0, on_min, off_min, hist_start, hist_stop):
    m = Model("rows")
    x, start, stop = ([m.binary(f"{s}[{i}]") for i in range(1, n + 1)]
                      for s in ("x", "start", "stop"))
    rows(m, OnOffChain(x, start, stop, x_0, hist_start, hist_stop), on_min, off_min, name="u")
    return _stored_record(m)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.sampled_from((0, 1)), st.integers(1, 4), st.integers(1, 4),
       _HISTORY, _HISTORY)
# 0.1 + -0.3 before unit 1, and a -0.0 event alone
@example(3, 1, 4, 4, {-2: 0.1, 0: -0.3}, {-1: -0.0})
@example(2, 0, 3, 2, {0: -0.0}, {-1: 0.1, -2: 0.1, 0: -0.3})
def test_min_duration_rows_match_the_operator_chains(n, x_0, on_min, off_min, hist_start,
                                                       hist_stop):
    args = (n, x_0, on_min, off_min, hist_start, hist_stop)
    assert _durations_built(build_min_durations, *args) == \
        _durations_built(_min_durations_reference, *args)


def test_a_row_whose_operands_share_a_column_is_refused():
    # no builder passes one: the operators would merge the two into one term
    m = Model("rows")
    x = [m.binary(f"x[{i}]") for i in range(1, 4)]
    ev = [m.binary(f"ev[{i}]") for i in range(1, 4)]
    with pytest.raises(ModelError, match=r"'t.i=2.a' share a column"):
        transition_rows(m, x, 0, lambda i: x[0] if i == 2 else ev[i - 1],
                        lambda i: ev[i - 1], "t")
    with pytest.raises(ModelError, match=r"'t.i=3.d' share a column"):
        transition_rows(m, x, 0, lambda i: ev[i - 1], lambda i: x[1] if i == 3 else 0.0, "t")
    with pytest.raises(ModelError, match=r"'t.i=1.on' share a column"):
        transition_rows(m, x, 0, lambda i: ev[i - 1], lambda i: 0.0, "t", on=[x[0], *ev[1:]])
    chain = OnOffChain(x, [ev[0], x[2], ev[2]], ev, 0, {}, {})
    with pytest.raises(ModelError, match=r"'u.minrun.i=3' share a column"):
        build_min_durations(m, chain, 3, 1, name="u")
    assert len(m.constraints) == 0
    # begin and end never meet in a row, so they may share a column
    transition_rows(m, x, 0, lambda i: ev[i - 1], lambda i: ev[i - 1], "t")
    assert len(m.constraints) == 18


def _appended(**changes):
    """A batch of three rows for ``Model.append_rows``, with ``changes``."""
    batch = dict(cols=[0, 1, 1, 2], coefs=[1.0, -1.0, 2.0, 1.0], counts=[2, 0, 2],
                 senses=[-1, 0, 1], rhs=[0.0, 1.5, -2.0], tags=["r1", "r2", "r3"])
    batch.update(changes)
    return batch


def _three_columns():
    m = Model("rows")
    for k in range(3):
        m.binary(f"b{k}")
    return m


def test_append_rows_stores_what_add_constraint_stores():
    m, ref = _three_columns(), _three_columns()
    assert m.append_rows(**_appended()) == range(0, 3)
    ref.add_constraint(LinExpr({0: 1.0, 1: -1.0}), LE, 0.0, "r1")
    ref.add_constraint(LinExpr(), "=", 1.5, "r2")
    ref.add_constraint(LinExpr({1: 2.0, 2: 1.0}), GE, -2.0, "r3")
    assert _stored_record(m) == _stored_record(ref)
    assert m.append_rows([], [], [], [], [], []) == range(3, 3)
    assert m.row_arrays().indptr.tolist() == [0, 2, 2, 4]


@pytest.mark.parametrize("changes, error, message", [
    ({"cols": [0, 1, 1, 3]}, UndeclaredVariable, "variable handle 3 not declared in this "
     "model, in constraint 'r3'"),
    ({"cols": [-1, 1, 1, 2]}, UndeclaredVariable, "handle -1 not declared .* 'r1'"),
    ({"rhs": [0.0, float("nan"), float("inf")]}, ModelError, "non-finite rhs in constraint 'r2'"),
    ({"rhs": [0.0, 1.5, float("-inf")]}, ModelError, "non-finite rhs in constraint 'r3'"),
    ({"senses": [-1, 2, 1]}, ModelError, "unknown constraint sense 2 in constraint 'r2'"),
    ({"senses": [-1, 0, ">="]}, ModelError, "unknown constraint sense '>=' in .* 'r3'"),
    ({"tags": ["r1", "", "r3"]}, ModelError, "constraint tag must be non-empty"),
    ({"counts": [2, 0, 1]}, ModelError, "row lists of unequal lengths"),
    ({"tags": ["r1", "r2"]}, ModelError, "row lists of unequal lengths"),
])
def test_append_rows_refuses_a_bad_batch_and_stores_nothing(changes, error, message):
    m = _three_columns()
    m.add_constraint(LinExpr({0: 1.0}), LE, 1.0, "kept")
    before = _stored_record(m)
    with pytest.raises(error, match=message):
        m.append_rows(**_appended(**changes))
    assert _stored_record(m) == before


def test_append_rows_names_the_first_bad_row_whatever_its_fault():
    # row 2's rhs fails before row 3's column and sense
    with pytest.raises(ModelError, match="non-finite rhs in constraint 'r2'"):
        _three_columns().append_rows(**_appended(cols=[0, 1, 1, 7], senses=[-1, 0, 5],
                                                 rhs=[0.0, float("inf"), 0.0]))


def test_append_rows_keeps_finite_rows_whose_rhs_sum_overflows():
    m = _three_columns()
    m.append_rows(**_appended(rhs=[1e308, 1e308, 1e308]))
    assert m.row_arrays().rhs.tolist() == [1e308] * 3
