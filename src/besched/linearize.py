"""Exact linear reformulations of the nonlinear idioms used by the component
sub-models: binary*bounded products, absolute differences, Boolean
conjunction, and table lookup at a variable integer index.

All builders only add variables and rows; existing rows are never touched.
Every big-M constant is recorded on the model together with the bound that
proves it valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelError
from .milp import EQ, GE, LE, LinExpr, Model, Var, as_expr


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


def product_bin_bounded(model: Model, alpha, u, u_min: float, u_max: float, name: str, tag: str) -> Var:
    """Auxiliary V = alpha * U for binary-valued alpha and U in [u_min, u_max].

    alpha may be a binary variable or any expression that is 0/1 in every
    feasible solution (e.g. start_i + stop_i under compatibility rows).
    The gate rows hold V between alpha * u_min and alpha * u_max, the track
    rows tie V to U where alpha = 1.  A U used in no other row needs only the
    two gate rows: for alpha in [0, 1], some U in [u_min, u_max] meets the
    track rows exactly when the gate rows hold (``build_mech_chp`` writes
    them alone).
    """
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise ModelError(f"product {name!r}: bounds on U must be finite")
    if u_min > u_max:
        raise ModelError(f"product {name!r}: u_min {u_min} > u_max {u_max}")
    a = as_expr(alpha)
    ue = as_expr(u)
    v = model.continuous(name, min(0.0, u_min), max(0.0, u_max))
    model.add_constraint(a * u_min - v, LE, 0.0, f"{tag}.lo_gate")
    model.add_constraint(v - a * u_max, LE, 0.0, f"{tag}.hi_gate")
    model.add_constraint(ue - (1 - a) * u_max - v, LE, 0.0, f"{tag}.lo_track")
    model.add_constraint(v - ue + (1 - a) * u_min, LE, 0.0, f"{tag}.hi_track")
    record_bigm(model, max(abs(u_min), abs(u_max), 1e-12), tag, max(abs(u_min), abs(u_max), 1e-12))
    return v


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
        total = total + lam
        value = value + lam * float(v)
        # lam = 1 pins x into [a, b]; lam = 0 leaves x anywhere in [x_min, x_max]
        m_up = max(x_max - b, 1.0)
        m_dn = max(a - x_min, 1.0)
        model.add_constraint(xe - b + m_up * lam, LE, m_up, f"{tag}.ub.j={a}_{b}")
        model.add_constraint(xe - a - m_dn * lam, GE, -m_dn, f"{tag}.lb.j={a}_{b}")
    model.add_constraint(total - ge, EQ, 0.0, f"{tag}.onehot")
    return value, lams
