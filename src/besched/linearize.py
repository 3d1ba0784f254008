"""Exact linear reformulations of the nonlinear idioms used by the component
sub-models: binary*bounded products, absolute differences, Boolean
conjunction, and table lookup at a variable integer index.

A product V = alpha * U that feeds a single inequality gets no column:
``product_inequality`` writes the inequality's projection onto alpha, U and
its other columns.  A product that feeds several rows or an equality is a
column held by four rows (``product_bin_bounded``), or by its two gate rows
alone where U sits in no other row (``gated_column``).
``product_inequality`` writes no row that the column boxes already imply.

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


def gated_column(model: Model, alpha, u_min: float, u_max: float, name: str, tag: str) -> Var:
    """Column V in [min(0, u_min), max(0, u_max)] held between alpha * u_min
    and alpha * u_max by the gate rows ``a * u_min - v <= 0`` (``.lo_gate``)
    and ``v - a * u_max <= 0`` (``.hi_gate``): V is 0 where alpha = 0 and in
    [u_min, u_max] where alpha = 1.

    These are the first two rows of ``product_bin_bounded``.  Alone they are
    its projection onto alpha and V when the set-point U sits in no other row:
    eliminating U in [u_min, u_max] from the track rows leaves rows weaker than
    the gates, so the feasible set, LP relaxation included, is the same.  The
    gate coefficients are the bounds themselves, so no big-M is recorded.
    Each row's term dict is written directly, as the operator chain would
    form it bit for bit (a product by a zero bound is empty).
    """
    a = as_expr(alpha)
    at, ak = a.terms, a.const
    v = model.continuous(name, min(0.0, u_min), max(0.0, u_max))
    vid = v.id
    # v is a new column, so no term of a holds it
    terms = {} if u_min == 0 else {c_id: c * u_min for c_id, c in at.items()}
    terms[vid] = -1.0
    model.add_constraint(_adopt(terms, 0.0 if u_min == 0 else ak * u_min), LE, 0.0,
                         f"{tag}.lo_gate")
    terms = {vid: 1.0}
    if u_max != 0:
        _add_terms(terms, [(c_id, -(c * u_max)) for c_id, c in at.items()])
    model.add_constraint(_adopt(terms, 0.0 + -(ak * u_max if u_max != 0 else 0.0)), LE, 0.0,
                         f"{tag}.hi_gate")
    return v


def product_bin_bounded(model: Model, alpha, u, u_min: float, u_max: float, name: str, tag: str) -> Var:
    """Auxiliary V = alpha * U for binary-valued alpha and U in [u_min, u_max].

    alpha may be a binary variable or any expression that is 0/1 in every
    feasible solution (e.g. start_i + stop_i under compatibility rows).
    The gate rows (``gated_column``) hold V between alpha * u_min and
    alpha * u_max, the track rows tie V to U where alpha = 1.  A U used in no
    other row needs only the gate rows, so callers without such a U
    (``build_mech_chp``, the fcCHP production level without ramp rows) call
    ``gated_column`` alone.

    With ``a`` and ``u`` the operands as ``LinExpr``, the track rows are
    ``u - (1 - a) * u_max - v`` and ``v - u + (1 - a) * u_min``.  This is a
    hot builder, so each row's term dict is written directly from the
    operands' terms and constants, with the float operation the ``LinExpr``
    operators do per coefficient and constant: the rows are bit for bit those
    of the operator chains, without their temporary copies.
    """
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise ModelError(f"product {name!r}: bounds on U must be finite")
    if u_min > u_max:
        raise ModelError(f"product {name!r}: u_min {u_min} > u_max {u_max}")
    a = as_expr(alpha)
    ue = as_expr(u)
    at, ak, ut, uk = a.terms, a.const, ue.terms, ue.const
    v = gated_column(model, a, u_min, u_max, name, tag)
    vid = v.id
    add = model.add_constraint
    # v is a new column, so no term of u holds it
    # u - (1 - a) * u_max - v
    terms = ut.copy()
    if u_max != 0:
        _add_terms(terms, [(c_id, -((-c) * u_max)) for c_id, c in at.items()])
    terms[vid] = -1.0
    add(_adopt(terms, uk + -((-ak + 1) * u_max if u_max != 0 else 0.0)), LE, 0.0,
        f"{tag}.lo_track")
    # v - u + (1 - a) * u_min
    terms = _add_terms({vid: 1.0}, [(c_id, -c) for c_id, c in ut.items()])
    if u_min != 0:
        _add_terms(terms, [(c_id, (-c) * u_min) for c_id, c in at.items()])
    add(_adopt(terms, (0.0 + -uk) + ((-ak + 1) * u_min if u_min != 0 else 0.0)), LE, 0.0,
        f"{tag}.hi_track")
    bound = max(abs(u_min), abs(u_max), 1e-12)
    record_bigm(model, bound, tag, bound)
    return v


def product_inequality(model: Model, alpha, u, u_min: float, u_max: float, sense: str, bound,
                       tag: str) -> None:
    """The row ``V <sense> bound`` for V = alpha * U (binary-valued alpha, U in
    [u_min, u_max]), written without V: the Fourier-Motzkin projection of V
    out of the four ``product_bin_bounded`` rows and this one.

    V >= g leaves ``g <= alpha * u_max`` (``{tag}.gate``) and
    ``g <= U - (1 - alpha) * u_min`` (``tag``); V <= h leaves
    ``alpha * u_min <= h`` (``{tag}.gate``) and ``U - (1 - alpha) * u_max <= h``
    (``tag``).  Every other pairing of V's bounds reduces to alpha in [0, 1]
    and U in [u_min, u_max], which the callers' column boxes give, so the
    feasible set and the LP relaxation are the same (McCormick 1976) with no
    column and no big-M record.  A row whose maximum activity over its
    columns' boxes cannot exceed its right-hand side is implied by the boxes
    and is not written.
    """
    if sense not in (GE, LE):
        raise ModelError(f"product row {tag!r}: an equality needs the product column")
    if not (math.isfinite(u_min) and math.isfinite(u_max) and u_min <= u_max):
        raise ModelError(f"product row {tag!r}: bounds [{u_min}, {u_max}] on U must be "
                         "finite and ordered")
    a, ue, b = as_expr(alpha), as_expr(u), as_expr(bound)
    if sense == GE:
        rows = ((b - a * u_max, f"{tag}.gate"), (b - ue + (1 - a) * u_min, tag))
    else:
        rows = ((a * u_min - b, f"{tag}.gate"), (ue - (1 - a) * u_max - b, tag))
    lo, hi = model._lo, model._hi
    for e, row_tag in rows:
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
    record_bigm(model, max(x_max - intervals[0][0], intervals[-1][1] - x_min, 1.0), tag,
                max(x_max - intervals[0][0], intervals[-1][1] - x_min, 1.0))
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
