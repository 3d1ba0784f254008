"""The McCormick row builders against the LinExpr operator chains they replace.

``gated_column``, ``product_bin_bounded`` and ``product_inequality`` write
each row's term dict through ``linearize._mccormick_row``.  The reference
builders below are the operator-chain versions, kept here as the oracle:
both must hand ``add_constraint`` the same expressions (term order,
``float.hex`` of every coefficient and of the constant, -0.0 included) and
leave the same rows, columns and big-M records; ``product_inequality`` must
also drop the same rows that the column boxes imply.  ``transition_rows``
is on the operators itself, and its reference pins its rows all the same.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from besched.fcchp import transition_rows
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
    cols = m.column_arrays()
    return (m.lhs,
            [(c.tag, [(v, x.hex()) for v, x in c.terms.items()], c.sense, c.rhs.hex())
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
    m = _Recording()
    state = [m.binary(f"x[{i}]") for i in range(1, n + 1)]
    series = {}
    for name, (lag, history) in (("begin", begin), ("end", end)):
        cols = [m.binary(f"{name}[{i}]") for i in range(1, n + 1)]
        series[name] = (lambda i, lag=lag, cols=cols, history=history:
                        cols[i - lag - 1] if i - lag >= 1 else history[lag - i])
    on = [m.binary(f"on[{i}]") for i in range(1, n + 1)] if with_on else None
    rows(m, state, state_0, series["begin"], series["end"], "t", on=on)
    return _model_record(m)


@settings(max_examples=300, deadline=None)
@given(_transitions())
@example((2, 0, (1, [-0.0, 0.0, 0.0, 0.0]), (2, [0.5, -0.0, 0.1, 0.0]), True))
@example((1, 1, (1, [-0.3, 0.0, 0.0, 0.0]), (1, [-0.0, 0.0, 0.0, 0.0]), False))
def test_transition_rows_match_the_operator_chains(case):
    assert _transition_built(transition_rows, *case) == \
        _transition_built(_transition_reference, *case)

