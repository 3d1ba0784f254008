"""The row builders against the LinExpr operator chains they replace.

Every fcCHP row family and every ``linearize`` writer gathers its rows in a
``milp.RowList`` and stores them with one ``Model.append_rows`` call; no
builder forms a row with the ``LinExpr`` operators or calls
``add_constraint``.  The reference builders below are the operator-chain
versions they replace, kept here as the oracle: a whole fcCHP plant
(``_ReferenceBuilder``) and each writer alone.  Both ways must leave the
same row store byte for byte (columns, coefficients, row ends, senses, rhs
and tags), the same column names and boxes and the same big-M records;
``product_inequality`` must also drop the same rows that the column boxes
imply.
"""

import math
from functools import partial
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besched.assembly import TimeGrid
from besched.errors import BeschedError, ModelError, UndeclaredVariable
from besched.fcchp import FcchpBuilder, OnOffChain, build_min_durations, transition_rows
from besched.linearize import (abs_diff, bool_and, gated_column, product_bin_bounded,
                               product_inequality, record_bigm, select_interval_gated,
                               select_value)
from besched.milp import _SENSE_CODE, EQ, GE, LE, LinExpr, Model, RowList, as_expr

from helpers import make_costs, make_phys, write
from test_acceptance import INITIAL_STATES

COEFS = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, 0.0, -0.0, 0.1, -0.3, 3.0, 1e-17])
NUMBERS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 0.1, -0.3, 3, -2])
EVENTS = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.1, -0.3])
BOUNDS = st.tuples(NUMBERS, NUMBERS).map(sorted)  # u_min <= u_max, zero, negative or equal


def _stored(writer):
    """``writer`` as a function of a model, its rows stored by one call."""
    return partial(write, writer)


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


def _store_bytes(m):
    """The row store byte for byte (columns, coefficients, row ends, senses,
    rhs and tags), the column names and boxes, and the big-M records."""
    return (bytes(m._cols), bytes(m._coefs), bytes(m._ends), bytes(m._senses), bytes(m._rhs),
            tuple(m._tags), tuple(m._names), bytes(m._lo), bytes(m._hi), bytes(m._kind),
            repr(m.bigms))


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


def _pool():
    m = Model("rows")
    for k in range(POOL):
        m.binary(f"b{k}")
    return m


def _built(product, alpha, u, bounds):
    m = _pool()
    u_min, u_max = bounds
    v = product(m, _make(m, alpha), _make(m, u), u_min, u_max, "v", "p")
    return v.id, _store_bytes(m)


@settings(max_examples=400, deadline=None)
@given(_operand, _operand, BOUNDS)
@example(("expr", {0: 1.0, 1: 2.0}, -0.0), ("expr", {1: 2.0, 2: 1.0}, 0.0), [0.0, 2.0])
@example(("expr", {0: -1.0}, 1.0), ("expr", {0: 2.0}, -0.0), [-2.0, 2.0])
@example(("var", 0), ("expr", {0: -1.0}, -0.0), [-1.0, -1.0])
@example(("num", -0.0), ("num", -0.0), [-0.0, 0.0])
def test_product_rows_match_the_operator_chains(alpha, u, bounds):
    assert _built(_stored(product_bin_bounded), alpha, u, bounds) == \
        _built(_product_reference, alpha, u, bounds)


def _gated(model, alpha, _u, u_min, u_max, name, tag):
    return _stored(gated_column)(model, alpha, u_min, u_max, name, tag)


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
    m = _pool()
    rows(m, _make(m, alpha), _make(m, u), *bounds, sense, _make(m, bound), "p")
    return _store_bytes(m)


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
    assert _inequality_built(_stored(product_inequality), alpha, u, bound, bounds,
                             _SENSE_CODE[sense]) == \
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
    return _store_bytes(m)


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
    return _store_bytes(m)


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


def _abs_diff_reference(model, a, b, bound, name, tag):
    ae, be = as_expr(a), as_expr(b)
    beta = model.binary(f"{name}_sel")
    x = model.continuous(name, 0.0, bound)
    p = _product_reference(model, beta, be - ae, -bound, bound, f"{name}_p", f"{tag}.p")
    model.add_constraint(x - (ae - be) - 2 * p, EQ, 0.0, f"{tag}.def")
    return x


def _bool_and_reference(model, a, b, name, tag):
    ae, be = as_expr(a), as_expr(b)
    g = model.binary(name)
    model.add_constraint(ae + be - g, LE, 1.0, f"{tag}.low")
    model.add_constraint(g - ae, LE, 0.0, f"{tag}.a")
    model.add_constraint(g - be, LE, 0.0, f"{tag}.b")
    return g


def _select_reference(model, gate, x, intervals, x_min, x_max, name, tag):
    xe, ge = as_expr(x), as_expr(gate)
    lams, total, value = [], LinExpr(), LinExpr()
    big_m = max(x_max - intervals[0][0], intervals[-1][1] - x_min, 1.0)
    record_bigm(model, big_m, tag, big_m)
    for a, b, v in intervals:
        lam = model.binary(f"{name}_l{a}_{b}")
        lams.append(lam)
        total.accumulate(lam)
        value.accumulate(lam * float(v))
        m_up = max(x_max - b, 1.0)
        m_dn = max(a - x_min, 1.0)
        model.add_constraint(xe - b + m_up * lam, LE, m_up, f"{tag}.ub.j={a}_{b}")
        model.add_constraint(xe - a - m_dn * lam, GE, -m_dn, f"{tag}.lb.j={a}_{b}")
    model.add_constraint(total - ge, EQ, 0.0, f"{tag}.onehot")
    return value, lams


def _select_value_reference(model, x, table, name, tag):
    n = len(table)
    return _select_reference(model, 1.0, x, [(i, i, table[i - 1]) for i in range(1, n + 1)],
                             1, n, name, tag)


def _written(writer, *drawn, args=()):
    """The store of a pool model after ``writer`` on the drawn operands, and
    what it returned: a column's id, or a lookup's value terms and selectors."""
    m = _pool()
    out = writer(m, *(_make(m, x) for x in drawn), *args)
    if isinstance(out, tuple):
        value, lams = out
        out = ([(v, c.hex()) for v, c in value.terms.items()], value.const.hex(),
               [lam.id for lam in lams])
    else:
        out = out.id
    return out, _store_bytes(m)


@settings(max_examples=300, deadline=None)
@given(_operand, _operand, st.sampled_from([0.0, 1.0, 2.5, 12]))
@example(("expr", {0: 1.0, 1: 2.0}, -0.0), ("expr", {1: 2.0, 2: 1.0}, 0.0), 3.0)
@example(("var", 0), ("var", 0), 1.0)  # the operands cancel
def test_abs_diff_rows_match_the_operator_chains(a, b, bound):
    args = (bound, "x", "abs")
    assert _written(_stored(abs_diff), a, b, args=args) == \
        _written(_abs_diff_reference, a, b, args=args)


@settings(max_examples=300, deadline=None)
@given(_operand, _operand)
@example(("var", 0), ("var", 0))  # a + b merges into one term
@example(("expr", {0: 1.0}, -0.0), ("expr", {0: -1.0}, 0.0))  # a + b cancels
def test_bool_and_rows_match_the_operator_chains(a, b):
    assert _written(_stored(bool_and), a, b, args=("g", "and")) == \
        _written(_bool_and_reference, a, b, args=("g", "and"))


TABLES = st.lists(st.sampled_from([0, 1, 2, 2.5, -1, -0.0, 7]), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(_operand, TABLES)
@example(("expr", {0: 1.0, 1: -2.0}, -0.0), [0, -0.0, 2])
def test_select_value_rows_match_the_operator_chains(x, table):
    args = (table, "sel", "sel")
    assert _written(_stored(select_value), x, args=args) == \
        _written(_select_value_reference, x, args=args)


@settings(max_examples=300, deadline=None)
@given(_operand, _operand, TABLES, st.integers(-3, 3))
@example(("var", 0), ("expr", {1: -1.0}, 3.0), [1, 1, 2], -1)
def test_gated_lookup_rows_match_the_operator_chains(gate, x, table, x_min):
    # one interval per table entry, grouped where neighbours are equal
    intervals = []
    for d, v in enumerate(table, start=1):
        if intervals and intervals[-1][2] == v:
            intervals[-1] = (intervals[-1][0], d, v)
        else:
            intervals.append((d, d, v))
    args = (intervals, x_min, len(table) + 1, "sel", "sel")
    assert _written(_stored(select_interval_gated), gate, x, args=args) == \
        _written(_select_reference, gate, x, args=args)


class _ReferenceBuilder(FcchpBuilder):
    """The fcCHP builder with every row formed by the ``LinExpr`` operators
    and stored by ``add_constraint``: the bodies the row lists replace."""

    def _kept(self, i, tracker, value_0, lo, hi, name, tag):
        start = self.vars["chain"].start[i - 1]
        if i == 1:
            return (1 - start) * value_0
        prev = tracker[i - 2]
        return prev - _product_reference(self.model, start, prev, lo, hi, name, tag)

    def build_chain(self):
        m, n, name = self.model, self.n, self.name
        x, start, stop = ([m.binary(f"{name}.{s}[{i}]") for i in range(1, n + 1)]
                          for s in ("x", "start", "stop"))
        chain = OnOffChain(x, start, stop, int(self.init.x_0), dict(self.init.start_history),
                           dict(self.hist_stop))
        _transition_reference(m, x, chain.x_0, chain.start_at, chain.stop_at,
                              f"{name}.startstop")
        _min_durations_reference(m, chain, self.up.on_min, self.up.off_min, name=name)
        self.vars["chain"] = chain
        return chain

    def build_change_tracker(self):
        m, name = self.model, self.name
        chain = self.vars["chain"]
        l = [m.integer(f"{name}.l[{i}]", self.l_lo, self.n) for i in range(1, self.n + 1)]
        for i in range(1, self.n + 1):
            change = as_expr(chain.start[i - 1]) + as_expr(chain.stop[i - 1])
            tag = f"{name}.lastchange.i={i}"
            kept = ((1 - change) * self.init.l_0 if i == 1 else _product_reference(
                m, 1 - change, l[i - 2], self.l_lo, self.n, f"{name}.lkeep[{i}]", f"{tag}.keep"))
            m.add_constraint(l[i - 1] - kept - change * i, EQ, 0.0, tag)
        self.vars["l"] = l
        return l

    def build_max_runtime(self):
        m, name = self.model, self.name
        chain, l = self.vars["chain"], self.vars["l"]
        span = self.n - self.l_lo
        for i in range(1, self.n + 1):
            prev = float(self.init.l_0) if i == 1 else l[i - 2]
            _inequality_reference(m, chain.stop[i - 1], l[i - 1] - prev, -span, span, LE,
                                  float(self.up.on_max), f"{name}.maxrun.i={i}")

    def build_cold_start_flags(self):
        m, name = self.model, self.name
        chain, l = self.vars["chain"], self.vars["l"]
        L = float(self.phys.cold_start_threshold)
        big_m = record_bigm(m, self.n - self.l_lo + 1.0, f"{name}.coldstart", self.n - self.l_lo)
        k = [m.binary(f"{name}.k[{i}]") for i in range(1, self.n + 1)]
        for i in range(1, self.n + 1):
            tag = f"{name}.coldstart.i={i}"
            start = chain.start[i - 1]
            if i == 1:
                downtime_start = start * 1.0 - start * self.init.l_0
                m.add_constraint(downtime_start - big_m * k[0], LE, L, f"{tag}.onstart")
                if self.init.k_0 == 1:
                    m.add_constraint(1.0 - l[0] - big_m * k[0], LE, 0.0, f"{tag}.keep")
                continue
            _inequality_reference(m, start, l[i - 2], self.l_lo, self.n, GE,
                                  start * float(i) - big_m * k[i - 1] - L, f"{tag}.onstart")
            _inequality_reference(m, k[i - 2], l[i - 1], self.l_lo, self.n, GE,
                                  k[i - 2] * float(i) - big_m * k[i - 1], f"{tag}.keep")
        self.vars["k"] = k
        return k

    def build_warmup_duration(self):
        m, name = self.model, self.name
        chain, l, f = self.vars["chain"], self.vars["l"], self.f
        w = [m.integer(f"{name}.w[{i}]", self.w_lo, self.w_hi) for i in range(1, self.n + 1)]
        for i in range(1, self.n + 1):
            tag = f"{name}.warmdur.i={i}"
            if i == 1:
                looked_up = chain.start[0] * float(f[-self.init.l_0])
            else:
                intervals = []
                for d in range(1, i - self.l_lo + 1):
                    v = f[d - 1]
                    if intervals and intervals[-1][2] == v:
                        intervals[-1] = (intervals[-1][0], d, v)
                    else:
                        intervals.append((d, d, v))
                looked_up, _ = _select_reference(
                    m, chain.start[i - 1], float(i) - l[i - 2], intervals, i - self.n,
                    i - self.l_lo, f"{name}.wsel[{i}]", f"{tag}.lookup")
            kept = self._kept(i, w, self.init.w_0, self.w_lo, self.w_hi,
                              f"{name}.wkeep[{i}]", f"{tag}.keep")
            m.add_constraint(w[i - 1] - looked_up - kept, EQ, 0.0, tag)
        self.vars["w"] = w
        return w

    def build_warmup_phase(self):
        m, name = self.model, self.name
        chain = self.vars["chain"]
        y = self.vars["y"] = [m.binary(f"{name}.y[{i}]") for i in range(1, self.n + 1)]
        sw = self.vars["stopWarmUp"] = [m.binary(f"{name}.stopWarmUp[{i}]")
                                        for i in range(1, self.n + 1)]
        _transition_reference(m, y, self.init.y_0, chain.start_at, self.sw_at,
                              f"{name}.warmphase", on=chain.x)
        return y, sw

    def build_warmup_bounds(self):
        m, name = self.model, self.name
        chain, y, w = self.vars["chain"], self.vars["y"], self.vars["w"]
        f_lo, f_hi = self.f[0], self.f[-1]
        spread = float(f_hi - f_lo + 1)
        sigma_m = record_bigm(m, float(max(f_hi - 1, 1)), f"{name}.sigma", float(max(f_hi - 1, 1)))
        for i in range(1, self.n + 1):
            for j in range(f_lo, f_hi + 1):
                recent = LinExpr()
                for unit in range(max(i - j + 1, 1), i):
                    recent.accumulate(chain.start_at(unit))
                if not recent.terms:
                    continue
                tag = f"{name}.minwarm.i={i}.j={j}"
                sig = m.binary(f"{name}.sigma[{i},{j}]")
                m.add_constraint(sig * sigma_m - recent, GE, 0.0, f"{tag}.ub")
                m.add_constraint(sig - recent, LE, 0.0, f"{tag}.lb")
                _inequality_reference(m, sig, w[i - 1] - float(j - 1), self.w_lo - j + 1,
                                      self.w_hi - j + 1, LE, spread * y[i - 1], tag)
        if self.init.y_0 == 1:
            warm_end = self.init.r_0 + self.init.w_0
            for i in range(1, min(warm_end - 1, self.n) + 1):
                m.add_constraint(y[i - 1] + 0.0, GE, 1.0, f"{name}.minwarm.init.i={i}")
        r = [m.integer(f"{name}.r[{i}]", self.r_lo, self.n) for i in range(1, self.n + 1)]
        for i in range(1, self.n + 1):
            tag = f"{name}.maxwarm.i={i}"
            kept = self._kept(i, r, self.init.r_0, self.r_lo, self.n,
                              f"{name}.rkeep[{i}]", f"{tag}.keep")
            m.add_constraint(r[i - 1] - chain.start[i - 1] * float(i) - kept, EQ, 0.0,
                             f"{tag}.track")
            _inequality_reference(m, y[i - 1], r[i - 1], self.r_lo, self.n, GE,
                                  y[i - 1] * float(i) - w[i - 1], tag)
        self.vars["r"] = r
        return r

    def build_startup_shutdown(self):
        m, name = self.model, self.name
        s = [m.binary(f"{name}.s[{i}]") for i in range(1, self.n + 1)]
        for i in range(1, self.n + 1):
            jump = LinExpr()
            for unit in range(i, i - self.up.lower_init, -1):
                jump.accumulate(self.sw_at(unit))
            m.add_constraint(s[i - 1] - jump, EQ, 0.0, f"{name}.jump.i={i}")
        self.vars["s"] = s
        return s

    def build_production_phase(self):
        m, name = self.model, self.name
        chain = self.vars["chain"]
        z = self.vars["z"] = [m.binary(f"{name}.z[{i}]") for i in range(1, self.n + 1)]
        _transition_reference(m, z, self.init.z_0, lambda i: self.sw_at(i - self.up.start_up),
                              chain.stop_at, f"{name}.prodphase", on=chain.x)
        return z

    def build_power_equations(self):
        m, name, phys, up = self.model, self.name, self.phys, self.up
        chain, y, z, k = self.vars["chain"], self.vars["y"], self.vars["z"], self.vars["k"]
        u_th = None
        ramp = phys.delta_p_th_prod * self.grid.hours_per_unit
        if math.isfinite(ramp) and ramp < phys.p_th_max - phys.p_th_min:
            u_th = self.vars["u_th"] = [
                m.continuous(f"{name}.uth[{i}]", phys.p_th_min, phys.p_th_max)
                for i in range(1, self.n + 1)]
            for i in range(2, self.n + 1):
                step = u_th[i - 1] - u_th[i - 2]
                m.add_constraint(step, LE, ramp, f"{name}.ramplim.i={i}.up")
                m.add_constraint(step, GE, -ramp, f"{name}.ramplim.i={i}.down")
        series = {key: [] for key in ("gamma", "thermalOutputPower", "electricOutputPower",
                                      "electricInputPower", "primaryInputPower")}
        for i in range(1, self.n + 1):
            level = (phys.p_th_min, phys.p_th_max, f"{name}.zu[{i}]", f"{name}.prodlevel.i={i}")
            prod_level = (_gated_reference(m, z[i - 1], *level) if u_th is None
                          else _product_reference(m, z[i - 1], u_th[i - 1], *level))
            th = LinExpr()
            for j, p in enumerate(up.p_th_up):
                th.accumulate(self.sw_at(i - j) * p)
            th = th + prod_level
            gamma = _bool_and_reference(m, y[i - 1], k[i - 1], f"{name}.gamma[{i}]",
                                        f"{name}.coldwarm.i={i}")
            ein = y[i - 1] * phys.p_el_warm_up + gamma * phys.p_el_cold_start
            for j, p in enumerate(up.p_el_down):
                ein.accumulate(chain.stop_at(i - j) * p)
            pin = y[i - 1] * phys.p_pr_warm_up + gamma * phys.p_pr_cold_start
            for j, p in enumerate(up.p_pr_up):
                pin.accumulate(self.sw_at(i - j) * p)
            for key, value in zip(series, (
                    gamma, th, th * (phys.eta_el / phys.eta_th),
                    ein + (1 - chain.x[i - 1]) * phys.p_el_stand_by,
                    pin + prod_level * (1.0 / phys.eta_th))):
                series[key].append(value)
        self.vars.update(series)


LEDGER = ("thermalOutputPower", "electricOutputPower", "electricInputPower",
          "primaryInputPower", "financialInput")


@st.composite
def _plants(draw):
    """A criterion-5 initial state and a plant drawn around ``make_phys``:
    warm-up tables up to twice the longest horizon, the durations in whole
    units of the drawn step, and a ramp limit that writes ramp rows or not."""
    n = draw(st.integers(1, 8))
    dt = draw(st.sampled_from((0.25, 0.5, 1.0)))
    steps = draw(st.lists(st.integers(0, 2), min_size=1, max_size=16))
    start_up = draw(st.integers(1, 4)) * dt
    phys = dict(
        warmup_table=tuple(accumulate(steps[1:], initial=1 + steps[0])),
        cold_start_threshold=draw(st.integers(1, 4)),
        d_on_min=draw(st.integers(1, n)) * dt, d_off_min=draw(st.integers(1, 4)) * dt,
        d_start_up=start_up, d_init=start_up * draw(st.sampled_from((0.25, 0.5, 1.0))),
        d_down=draw(st.integers(1, 3)) * dt,
        delta_p_th_prod=draw(st.sampled_from((math.inf, 0.3, 0.6, 5.0))))
    phys["d_on_max"] = phys["d_on_min"] + draw(st.integers(0, 6)) * dt
    return draw(st.integers(0, len(INITIAL_STATES) - 1)), n, dt, phys


def _plant_built(builder, state, n, dt, phys):
    m = Model("plant")
    try:
        b = builder(m, TimeGrid(n, dt), make_phys(**phys), make_costs(n), INITIAL_STATES[state],
                    name="fc")
        b.build()
    except BeschedError as exc:  # a state the plant's timeline cannot produce
        return type(exc).__name__, str(exc)
    ledger = [[([(v, c.hex()) for v, c in e.terms.items()], e.const.hex()) for e in b.vars[key]]
              for key in LEDGER]
    return _store_bytes(m), ledger


@settings(max_examples=300, deadline=None)
@given(_plants())
# the table longer than the horizon, and the y term of maxwarm.i=n.gate cancelling
@example((4, 6, 1.0, dict(warmup_table=(1, 2, 3, 4, 5, 6, 7), cold_start_threshold=2,
                          d_on_min=2.0, d_off_min=2.0, d_start_up=2.0, d_init=1.0, d_down=1.0,
                          delta_p_th_prod=0.3, d_on_max=10.0)))
# warming up at unit 0 with w_0 = 2 = f(1 - l_0): warmdur.i=1 drops its start term
@example((12, 4, 0.5, dict(warmup_table=(2,), cold_start_threshold=4, d_on_min=0.5,
                          d_off_min=0.5, d_start_up=0.5, d_init=0.125, d_down=0.5,
                          delta_p_th_prod=math.inf, d_on_max=0.5)))
def test_fcchp_plants_match_the_operator_chains(case):
    built = _plant_built(FcchpBuilder, *case)
    assert built == _plant_built(_ReferenceBuilder, *case)


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
    assert _store_bytes(m) == _store_bytes(ref)
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
    before = _store_bytes(m)
    with pytest.raises(error, match=message):
        m.append_rows(**_appended(**changes))
    assert _store_bytes(m) == before


def test_append_rows_names_the_first_bad_row_whatever_its_fault():
    # row 2's rhs fails before row 3's column and sense
    with pytest.raises(ModelError, match="non-finite rhs in constraint 'r2'"):
        _three_columns().append_rows(**_appended(cols=[0, 1, 1, 7], senses=[-1, 0, 5],
                                                 rhs=[0.0, float("inf"), 0.0]))


def test_append_rows_keeps_finite_rows_whose_rhs_sum_overflows():
    m = _three_columns()
    m.append_rows(**_appended(rhs=[1e308, 1e308, 1e308]))
    assert m.row_arrays().rhs.tolist() == [1e308] * 3
