"""Exact linear reformulations of the nonlinear idioms used by the component
sub-models: binary*bounded products, absolute differences, Boolean
conjunction, and table lookup at a variable integer index.

A product V = alpha * U that feeds a single inequality gets no column:
``product_inequality`` writes the inequality's projection onto alpha, U and
its other columns.  A product that feeds several rows or an equality is a
column held by four rows (``product_bin_bounded``), or by its two gate rows
alone where U sits in no other row (``gated_column``).
``product_inequality`` writes no row that the column boxes already imply.

Every writer appends its rows to the caller's ``milp.RowList``, which the
caller stores with one ``Model.append_rows`` call.  The operands are
``Var``, ``LinExpr`` or numbers, or already (terms, constant) pairs as
``_operand`` makes them: no row is formed with the ``LinExpr`` operators.
Each row's terms and rhs are computed with the float operations of the
operator chain it stands for (a term that cancels to 0.0 dropped, two
operands' terms of one column merged by ``milp._add_terms``), through
``_difference`` and ``_mccormick_row``, the one writer of the four McCormick
(1976) rows, with V any operand: the new column, or the bound of
``product_inequality``.

All builders only add variables and rows; existing rows are never touched.
Every big-M constant is recorded on the model together with the bound that
proves it valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelError
from .milp import Model, RowList, Var, _add_terms, _adopt, _EQ, _GE, _LE, as_expr


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


def _operand(x) -> tuple:
    """``x`` as an operand (terms, constant): the term dict and constant of
    its ``LinExpr``, shared, not copied.  A tuple is taken to be one already."""
    if type(x) is tuple:
        return x
    if type(x) is Var:  # the terms of Var.expr(), without the LinExpr
        return {x.id: 1.0}, 0.0
    e = as_expr(x)
    return e.terms, e.const


def _difference(lead, *operands) -> tuple:
    """The operand ``lead - operands[0] - operands[1] ...`` in new terms, as
    the ``LinExpr`` operators form it; each may be anything ``_operand`` takes."""
    terms, const = _operand(lead)
    terms = terms.copy()
    for other, k in map(_operand, operands):
        _add_terms(terms, other.items(), True)
        const += -k
    return terms, const


def _mccormick_row(row: str, a: tuple, u: tuple | None, v: tuple, u_min: float,
                   u_max: float) -> tuple:
    """One McCormick row ``<= 0`` of V = alpha * U, U in [u_min, u_max], as
    an operand: ``lo_gate`` is ``a * u_min - v``, ``hi_gate`` ``v - a *
    u_max``, ``lo_track`` ``u - (1 - a) * u_max - v`` and ``hi_track`` ``v -
    u + (1 - a) * u_min``; only the track rows read u.

    Each coefficient and the constant take the float operation of that
    ``LinExpr`` operator chain: bit for bit its row (term order, a cancelled
    term dropped, a product by a zero bound empty, the sign of a zero
    constant), without its temporary copies.
    """
    (at, ak), (vt, vk) = a, v
    if row == "lo_gate":
        terms = {} if u_min == 0 else {c_id: c * u_min for c_id, c in at.items()}
        _add_terms(terms, vt.items(), True)
        return terms, (0.0 if u_min == 0 else ak * u_min) + -vk
    if row == "hi_gate":
        terms = vt.copy()
        if u_max != 0:
            _add_terms(terms, [(c_id, c * u_max) for c_id, c in at.items()], True)
        return terms, vk + -(0.0 if u_max == 0 else ak * u_max)
    ut, uk = u
    if row == "lo_track":
        terms = ut.copy()
        if u_max != 0:
            _add_terms(terms, [(c_id, (-c) * u_max) for c_id, c in at.items()], True)
        _add_terms(terms, vt.items(), True)
        return terms, (uk + -(0.0 if u_max == 0 else (-ak + 1) * u_max)) + -vk
    # hi_track
    terms = _add_terms(vt.copy(), ut.items(), True)
    if u_min != 0:
        _add_terms(terms, [(c_id, (-c) * u_min) for c_id, c in at.items()])
    return terms, (vk + -uk) + (0.0 if u_min == 0 else (-ak + 1) * u_min)


def gated_column(rows: RowList, alpha, u_min: float, u_max: float, name: str, tag: str) -> Var:
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
    a = _operand(alpha)
    v = rows.model.continuous(name, min(0.0, u_min), max(0.0, u_max))
    for row in ("lo_gate", "hi_gate"):
        rows.add(*_mccormick_row(row, a, None, ({v.id: 1.0}, 0.0), u_min, u_max), _LE, 0.0,
                 f"{tag}.{row}")
    return v


def product_bin_bounded(rows: RowList, alpha, u, u_min: float, u_max: float, name: str, tag: str) -> Var:
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
    a, ue = _operand(alpha), _operand(u)
    v = gated_column(rows, a, u_min, u_max, name, tag)
    for row in ("lo_track", "hi_track"):
        rows.add(*_mccormick_row(row, a, ue, ({v.id: 1.0}, 0.0), u_min, u_max), _LE, 0.0,
                 f"{tag}.{row}")
    bound = max(abs(u_min), abs(u_max), 1e-12)
    record_bigm(rows.model, bound, tag, bound)
    return v


def product_inequality(rows: RowList, alpha, u, u_min: float, u_max: float, sense: int, bound,
                       tag: str) -> None:
    """The row ``V <sense> bound``, sense the code ``milp._GE`` or ``milp._LE``, for V = alpha * U (binary-valued alpha, U in
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
    if sense not in (_GE, _LE):
        raise ModelError(f"product row {tag!r}: an equality needs the product column")
    if not (math.isfinite(u_min) and math.isfinite(u_max) and u_min <= u_max):
        raise ModelError(f"product row {tag!r}: bounds [{u_min}, {u_max}] on U must be "
                         "finite and ordered")
    a, ue, b = _operand(alpha), _operand(u), _operand(bound)
    pairs = (("hi_gate", f"{tag}.gate"), ("hi_track", tag)) if sense == _GE else \
        (("lo_gate", f"{tag}.gate"), ("lo_track", tag))
    lo, hi = rows.model._lo, rows.model._hi
    for row, row_tag in pairs:
        terms, const = _mccormick_row(row, a, ue, b, u_min, u_max)
        if const + sum(c * (hi[v] if c > 0 else lo[v]) for v, c in terms.items()) > 0:
            rows.add(terms, const, _LE, 0.0, row_tag)


def abs_diff(rows: RowList, a, b, bound: float, name: str, tag: str) -> Var:
    """Auxiliary X = |B - A| for expressions with |B - A| <= bound.

    Uses one selector binary and two expanded products.
    """
    if not math.isfinite(bound) or bound < 0:
        raise ModelError(f"abs_diff {name!r}: bound must be finite and non-negative")
    beta = rows.model.binary(f"{name}_sel")
    x = rows.model.continuous(name, 0.0, bound)
    # X = beta*(B-A) + (1-beta)*(A-B)
    p = product_bin_bounded(rows, beta, _difference(b, a), -bound, bound, f"{name}_p", f"{tag}.p")
    # X = (A-B) + 2*p
    rows.add(*_difference(x, _difference(a, b), ({p.id: 2.0}, 0.0)), _EQ, 0.0, f"{tag}.def")
    return x


def bool_and(rows: RowList, a, b, name: str, tag: str) -> Var:
    """Auxiliary gamma = a AND b for binary a, b: the rows a + b - gamma <= 1,
    gamma - a <= 0 and gamma - b <= 0."""
    ae, be = _operand(a), _operand(b)
    g = rows.model.binary(name)
    both = _add_terms(ae[0].copy(), be[0].items()), ae[1] + be[1]  # a + b
    rows.add(*_difference(both, g), _LE, 1.0, f"{tag}.low")
    rows.add(*_difference(g, ae), _LE, 0.0, f"{tag}.a")
    rows.add(*_difference(g, be), _LE, 0.0, f"{tag}.b")
    return g


def select_value(rows: RowList, x, table, name: str, tag: str):
    """Table lookup value = F[x] for an integer expression x in {1..N}.

    A ``select_interval_gated`` lookup that is always on, with one interval
    [i, i] per table entry: selector binaries lambda_1..lambda_N with sum 1
    pin x to their entry.  Returns (value expression, list of selector vars).
    x must never leave 1..N.
    """
    n = len(table)
    return select_interval_gated(rows, 1.0, x, [(i, i, table[i - 1]) for i in range(1, n + 1)],
                                 1, n, name, tag)


def select_interval_gated(rows: RowList, gate, x, intervals, x_min: float, x_max: float,
                          name: str, tag: str):
    """Gated piecewise-constant lookup: value = gate * F[x] where F is constant
    on each interval.

    intervals is a list of (a, b, value) with a <= b, consecutive and covering
    every x reachable while gate = 1.  One selector binary per interval instead
    of one per table entry; exactness is unchanged because a selector pins x
    into its interval, not to a single point.  x must stay in [x_min, x_max].
    Per interval the rows ``x - b + m_up * lam <= m_up`` and ``x - a - m_dn *
    lam >= -m_dn``, with x's terms first, then ``sum(lam) - gate = 0``.
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
    xt, xk = _operand(x)
    lams = []
    value = {}  # the terms lam * v, none where v is 0
    big_m = max(x_max - intervals[0][0], intervals[-1][1] - x_min, 1.0)
    record_bigm(rows.model, big_m, tag, big_m)
    for a, b, v in intervals:
        lam = rows.model.binary(f"{name}_l{a}_{b}")
        lams.append(lam)
        if float(v) != 0:
            value[lam.id] = float(v)
        # lam = 1 pins x into [a, b]; lam = 0 leaves x anywhere in [x_min, x_max]
        m_up = max(x_max - b, 1.0)
        m_dn = max(a - x_min, 1.0)
        rows.add({**xt, lam.id: 1.0 * m_up}, (xk + -b) + 0.0, _LE, float(m_up),
                 f"{tag}.ub.j={a}_{b}")
        rows.add({**xt, lam.id: -(1.0 * m_dn)}, (xk + -a) + -0.0, _GE, float(-m_dn),
                 f"{tag}.lb.j={a}_{b}")
    rows.add(*_difference(({lam.id: 1.0 for lam in lams}, 0.0), gate), _EQ, 0.0, f"{tag}.onehot")
    return _adopt(value, 0.0), lams
