"""Exact linear reformulations of the nonlinear idioms used by the component
sub-models: binary*bounded products, absolute differences, Boolean
conjunction, and table lookup at a variable integer index.

A product V = alpha * U that feeds a single inequality gets no column:
``product_inequality`` writes the inequality's projection onto alpha, U and
its other columns.  A product that feeds several rows or an equality is a
column held by four rows (``product_bin_bounded``), or by its two gate rows
alone where U sits in no other row (``gated_column``).
``product_inequality`` writes no row that the column boxes already imply.

All three write their rows through ``_mccormick_row``, the one writer of
the four McCormick (1976) rows, with V any expression: the new column, or
the bound of ``product_inequality``.

All builders only add variables and rows; existing rows are never touched.
Every big-M constant is recorded on the model together with the bound that
proves it valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelError
from .milp import EQ, GE, LE, LinExpr, Model, Var, _add_terms, _adopt, as_expr


@dataclass(frozen=True)
class BigM:
    value: float
    tag: str  # constraint family this constant bounds
    required: float  # tightest valid bound recorded for the family

    def __post_init__(self):
        if not (self.value > 0):
            raise ModelError(f"big-M for {self.tag!r} must be positive, got {self.value}")
        if self.value < self.required:
            raise ModelError(
                f"big-M {self.value} for {self.tag!r} is below the required bound {self.required}"
            )


def record_bigm(model: Model, value: float, tag: str, required: float) -> float:
    model.bigms.append(BigM(value, tag, required))
    return value


def _mccormick_row(row: str, a: LinExpr, u: LinExpr | None, v: LinExpr, u_min: float,
                   u_max: float) -> LinExpr:
    """Left side of one McCormick row ``<= 0`` of V = alpha * U, U in
    [u_min, u_max]: ``lo_gate`` is ``a * u_min - v``, ``hi_gate``
    ``v - a * u_max``, ``lo_track`` ``u - (1 - a) * u_max - v`` and
    ``hi_track`` ``v - u + (1 - a) * u_min``; only the track rows read u.

    The term dict is written directly, with the float operation of that
    ``LinExpr`` operator chain per coefficient and constant: bit for bit its
    row (term order, a cancelled term dropped, a product by a zero bound
    empty, the sign of a zero constant), without its temporary copies.
    """
    at, ak = a.terms, a.const
    if row == "lo_gate":
        terms = {} if u_min == 0 else {c_id: c * u_min for c_id, c in at.items()}
        _add_terms(terms, v.terms.items(), True)
        return _adopt(terms, (0.0 if u_min == 0 else ak * u_min) + -v.const)
    if row == "hi_gate":
        terms = v.terms.copy()
        if u_max != 0:
            _add_terms(terms, [(c_id, c * u_max) for c_id, c in at.items()], True)
        return _adopt(terms, v.const + -(0.0 if u_max == 0 else ak * u_max))
    if row == "lo_track":
        terms = u.terms.copy()
        if u_max != 0:
            _add_terms(terms, [(c_id, (-c) * u_max) for c_id, c in at.items()], True)
        _add_terms(terms, v.terms.items(), True)
        return _adopt(terms, (u.const + -(0.0 if u_max == 0 else (-ak + 1) * u_max)) + -v.const)
    # hi_track
    terms = _add_terms(v.terms.copy(), u.terms.items(), True)
    if u_min != 0:
        _add_terms(terms, [(c_id, (-c) * u_min) for c_id, c in at.items()])
    return _adopt(terms, (v.const + -u.const) + (0.0 if u_min == 0 else (-ak + 1) * u_min))


def gated_column(model: Model, alpha, u_min: float, u_max: float, name: str, tag: str) -> Var:
    """Column V in [min(0, u_min), max(0, u_max)] held between alpha * u_min
    and alpha * u_max by its ``lo_gate`` and ``hi_gate`` rows
    (``_mccormick_row``, tagged ``{tag}.lo_gate`` and ``{tag}.hi_gate``): V is
    0 where alpha = 0 and in [u_min, u_max] where alpha = 1.

    These are the first two rows of ``product_bin_bounded``.  Alone they are
    its projection onto alpha and V when the set-point U sits in no other row:
    eliminating U in [u_min, u_max] from the track rows leaves rows weaker than
    the gates, so the feasible set, LP relaxation included, is the same.  The
    gate coefficients are the bounds themselves, so no big-M is recorded.
    """
    a = as_expr(alpha)
    v = model.continuous(name, min(0.0, u_min), max(0.0, u_max))
    ve = v.expr()
    for row in ("lo_gate", "hi_gate"):
        model.add_constraint(_mccormick_row(row, a, None, ve, u_min, u_max), LE, 0.0,
                             f"{tag}.{row}")
    return v


def product_bin_bounded(model: Model, alpha, u, u_min: float, u_max: float, name: str, tag: str) -> Var:
    """Auxiliary V = alpha * U for binary-valued alpha and U in [u_min, u_max].

    alpha may be a binary variable or any expression that is 0/1 in every
    feasible solution (e.g. start_i + stop_i under compatibility rows).
    The gate rows (``gated_column``) hold V between alpha * u_min and
    alpha * u_max, the ``lo_track`` and ``hi_track`` rows (``_mccormick_row``)
    tie V to U where alpha = 1.  A U used in no other row needs only the gate
    rows, so callers without such a U (``build_mech_chp``, the fcCHP
    production level without ramp rows) call ``gated_column`` alone.
    """
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise ModelError(f"product {name!r}: bounds on U must be finite")
    if u_min > u_max:
        raise ModelError(f"product {name!r}: u_min {u_min} > u_max {u_max}")
    a, ue = as_expr(alpha), as_expr(u)
    v = gated_column(model, a, u_min, u_max, name, tag)
    ve = v.expr()
    for row in ("lo_track", "hi_track"):
        model.add_constraint(_mccormick_row(row, a, ue, ve, u_min, u_max), LE, 0.0,
                             f"{tag}.{row}")
    bound = max(abs(u_min), abs(u_max), 1e-12)
    record_bigm(model, bound, tag, bound)
    return v


def product_inequality(model: Model, alpha, u, u_min: float, u_max: float, sense: str, bound,
                       tag: str) -> None:
    """The row ``V <sense> bound`` for V = alpha * U (binary-valued alpha, U in
    [u_min, u_max]), written without V: the Fourier-Motzkin projection of V
    out of the four ``product_bin_bounded`` rows and this one.

    V >= g leaves ``g <= alpha * u_max`` (``{tag}.gate``) and
    ``g <= U - (1 - alpha) * u_min`` (``tag``), the ``hi_gate`` and
    ``hi_track`` rows of ``_mccormick_row`` with g for V; V <= h leaves
    ``alpha * u_min <= h`` (``{tag}.gate``) and ``U - (1 - alpha) * u_max <= h``
    (``tag``), its ``lo_gate`` and ``lo_track`` rows with h for V.  Every
    other pairing of V's bounds reduces to alpha in [0, 1] and U in
    [u_min, u_max], which the callers' column boxes give, so the feasible set
    and the LP relaxation are the same (McCormick 1976) with no column and no
    big-M record.  A row whose maximum activity over its columns' boxes cannot
    exceed its right-hand side is implied by the boxes and is not written.
    """
    if sense not in (GE, LE):
        raise ModelError(f"product row {tag!r}: an equality needs the product column")
    if not (math.isfinite(u_min) and math.isfinite(u_max) and u_min <= u_max):
        raise ModelError(f"product row {tag!r}: bounds [{u_min}, {u_max}] on U must be "
                         "finite and ordered")
    a, ue, b = as_expr(alpha), as_expr(u), as_expr(bound)
    rows = (("hi_gate", f"{tag}.gate"), ("hi_track", tag)) if sense == GE else \
        (("lo_gate", f"{tag}.gate"), ("lo_track", tag))
    lo, hi = model._lo, model._hi
    for row, row_tag in rows:
        e = _mccormick_row(row, a, ue, b, u_min, u_max)
        if e.const + sum(c * (hi[v] if c > 0 else lo[v]) for v, c in e.terms.items()) > 0:
            model.add_constraint(e, LE, 0.0, row_tag)


def abs_diff(model: Model, a, b, bound: float, name: str, tag: str) -> Var:
    """Auxiliary X = |B - A| for expressions with |B - A| <= bound.

    Uses one selector binary and two expanded products.
    """
    if not math.isfinite(bound) or bound < 0:
        raise ModelError(f"abs_diff {name!r}: bound must be finite and non-negative")
    ae, be = as_expr(a), as_expr(b)
    beta = model.binary(f"{name}_sel")
    x = model.continuous(name, 0.0, bound)
    # X = beta*(B-A) + (1-beta)*(A-B)
    p = product_bin_bounded(model, beta, be - ae, -bound, bound, f"{name}_p", f"{tag}.p")
    # X = (A-B) + 2*p
    model.add_constraint(x - (ae - be) - 2 * p, EQ, 0.0, f"{tag}.def")
    return x


def binary_abs_diff(start_i, stop_i) -> LinExpr:
    """|x_i - x_{i-1}| when the operands are on/off binaries.

    Valid whenever the start/stop compatibility rows are present: exactly one
    of start_i, stop_i is 1 at a state change and both are 0 otherwise.  Adds
    no variables.
    """
    return as_expr(start_i) + as_expr(stop_i)


def bool_and(model: Model, a, b, name: str, tag: str) -> Var:
    """Auxiliary gamma = a AND b for binary a, b."""
    ae, be = as_expr(a), as_expr(b)
    g = model.binary(name)
    model.add_constraint(ae + be - g, LE, 1.0, f"{tag}.low")
    model.add_constraint(g - ae, LE, 0.0, f"{tag}.a")
    model.add_constraint(g - be, LE, 0.0, f"{tag}.b")
    return g


def select_value(model: Model, x, table, name: str, tag: str):
    """Table lookup value = F[x] for an integer expression x in {1..N}.

    A ``select_interval_gated`` lookup that is always on, with one interval
    [i, i] per table entry: selector binaries lambda_1..lambda_N with sum 1
    pin x to their entry.  Returns (value expression, list of selector vars).
    x must never leave 1..N.
    """
    n = len(table)
    return select_interval_gated(model, 1.0, x, [(i, i, table[i - 1]) for i in range(1, n + 1)],
                                 1, n, name, tag)


def select_interval_gated(model: Model, gate, x, intervals, x_min: float, x_max: float,
                          name: str, tag: str):
    """Gated piecewise-constant lookup: value = gate * F[x] where F is constant
    on each interval.

    intervals is a list of (a, b, value) with a <= b, consecutive and covering
    every x reachable while gate = 1.  One selector binary per interval instead
    of one per table entry; exactness is unchanged because a selector pins x
    into its interval, not to a single point.  x must stay in [x_min, x_max].
    """
    if not intervals:
        raise ModelError(f"select_interval_gated {name!r}: intervals must be non-empty")
    prev_b = None
    for a, b, _v in intervals:
        if a > b:
            raise ModelError(f"select_interval_gated {name!r}: interval [{a},{b}] is empty")
        if prev_b is not None and a != prev_b + 1:
            raise ModelError(f"select_interval_gated {name!r}: gap before interval [{a},{b}]")
        prev_b = b
    xe = as_expr(x)
    ge = as_expr(gate)
    lams = []
    total = LinExpr()
    value = LinExpr()
    big_m = max(x_max - intervals[0][0], intervals[-1][1] - x_min, 1.0)
    record_bigm(model, big_m, tag, big_m)
    for a, b, v in intervals:
        lam = model.binary(f"{name}_l{a}_{b}")
        lams.append(lam)
        total.accumulate(lam)
        value.accumulate(lam * float(v))
        # lam = 1 pins x into [a, b]; lam = 0 leaves x anywhere in [x_min, x_max]
        m_up = max(x_max - b, 1.0)
        m_dn = max(a - x_min, 1.0)
        model.add_constraint(xe - b + m_up * lam, LE, m_up, f"{tag}.ub.j={a}_{b}")
        model.add_constraint(xe - a - m_dn * lam, GE, -m_dn, f"{tag}.lb.j={a}_{b}")
    model.add_constraint(total - ge, EQ, 0.0, f"{tag}.onehot")
    return value, lams
