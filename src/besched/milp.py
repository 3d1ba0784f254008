"""In-memory mixed-integer linear programs with validation and LP-format export.

The model is deliberately minimal: variables with domains, linear
constraints, one linear objective with a fixed *minimize* sense.  Costs are
registered with positive sign, yields with negative sign.  Every constraint
carries a provenance tag so generated rows can be traced back to the
component and time unit that emitted them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import DuplicateName, ModelError, UndeclaredVariable

INF = math.inf

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

LE = "<="
EQ = "="
GE = ">="


@dataclass(frozen=True)
class Domain:
    kind: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ModelError(f"empty domain: lo={self.lo} > hi={self.hi}")
        if self.kind == BINARY and (self.lo, self.hi) != (0.0, 1.0):
            raise ModelError("binary domain must be {0, 1}")
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ModelError("NaN bound")

    @staticmethod
    def binary() -> "Domain":
        return Domain(BINARY, 0.0, 1.0)

    @staticmethod
    def integer(lo: float, hi: float) -> "Domain":
        return Domain(INTEGER, float(lo), float(hi))

    @staticmethod
    def continuous(lo: float = -INF, hi: float = INF) -> "Domain":
        return Domain(CONTINUOUS, float(lo), float(hi))

    @property
    def is_integral(self) -> bool:
        return self.kind in (INTEGER, BINARY)


class LinExpr:
    """Linear expression: sum of coefficient * variable plus a constant."""

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=0.0):
        self.terms = dict(terms) if terms else {}
        self.const = float(const)

    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.const)

    def __add__(self, other):
        out = self.copy()
        if isinstance(other, LinExpr):
            for vid, c in other.terms.items():
                nc = out.terms.get(vid, 0.0) + c
                if nc == 0.0:
                    out.terms.pop(vid, None)
                else:
                    out.terms[vid] = nc
            out.const += other.const
        elif isinstance(other, Var):
            nc = out.terms.get(other.id, 0.0) + 1.0
            if nc == 0.0:
                out.terms.pop(other.id, None)
            else:
                out.terms[other.id] = nc
        elif isinstance(other, (int, float)):
            out.const += other
        else:
            return NotImplemented
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (LinExpr, Var)):
            return self + (other * -1.0)
        if isinstance(other, (int, float)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (self * -1.0) + other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        if scalar == 0:
            return LinExpr()
        return LinExpr({v: c * scalar for v, c in self.terms.items()}, self.const * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        parts = [f"{c:+g}*v{v}" for v, c in sorted(self.terms.items())]
        if self.const or not parts:
            parts.append(f"{self.const:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


@dataclass(frozen=True, eq=False)
class Var:
    id: int
    name: str
    domain: Domain

    def expr(self) -> LinExpr:
        return LinExpr({self.id: 1.0})

    def __add__(self, other):
        return self.expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.expr() - other

    def __rsub__(self, other):
        return other - self.expr()

    def __mul__(self, scalar):
        return self.expr() * scalar

    __rmul__ = __mul__

    def __neg__(self):
        return self.expr() * -1.0

    def __repr__(self):
        return f"Var({self.name})"


def as_expr(x) -> LinExpr:
    """Coerce a Var, number, or LinExpr into a LinExpr."""
    if isinstance(x, LinExpr):
        return x
    if isinstance(x, Var):
        return x.expr()
    if isinstance(x, (int, float)):
        return LinExpr(const=float(x))
    raise TypeError(f"cannot treat {x!r} as a linear expression")


@dataclass
class Constraint:
    id: int
    terms: dict  # var id -> coefficient, constant already folded into rhs
    sense: str
    rhs: float
    tag: str


@dataclass
class ValidationReport:
    unused_vars: list = field(default_factory=list)
    infeasible_rows: list = field(default_factory=list)  # (constraint id, tag)
    trivial_rows: list = field(default_factory=list)  # (constraint id, tag)
    unbounded_objective_vars: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.infeasible_rows or self.unbounded_objective_vars)

    def is_empty(self) -> bool:
        return not (
            self.unused_vars
            or self.infeasible_rows
            or self.trivial_rows
            or self.unbounded_objective_vars
        )


class Model:
    """Single-writer MILP container.  Sense is always minimize."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.vars: list[Var] = []
        self._by_name: dict[str, Var] = {}
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.bigms: list = []  # BigM records, see linearize module

    # -- variables ---------------------------------------------------------

    def add_var(self, name: str, domain: Domain) -> Var:
        if name in self._by_name:
            raise DuplicateName(f"variable name already in use: {name!r}")
        v = Var(len(self.vars), name, domain)
        self.vars.append(v)
        self._by_name[name] = v
        return v

    def binary(self, name: str) -> Var:
        return self.add_var(name, Domain.binary())

    def integer(self, name: str, lo: float, hi: float) -> Var:
        return self.add_var(name, Domain.integer(lo, hi))

    def continuous(self, name: str, lo: float = -INF, hi: float = INF) -> Var:
        return self.add_var(name, Domain.continuous(lo, hi))

    def var_by_name(self, name: str) -> Var:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    # -- constraints and objective ------------------------------------------

    def _check_declared(self, terms):
        for vid in terms:
            if vid < 0 or vid >= len(self.vars):
                raise UndeclaredVariable(f"variable handle {vid} not declared in this model")

    def add_constraint(self, lhs, sense: str, rhs: float = 0.0, tag: str = "") -> int:
        if sense not in (LE, EQ, GE):
            raise ModelError(f"unknown constraint sense: {sense!r}")
        if not tag:
            raise ModelError("constraint tag must be non-empty")
        e = as_expr(lhs)
        self._check_declared(e.terms)
        rhs = float(rhs) - e.const
        if not math.isfinite(rhs):
            raise ModelError(f"non-finite rhs in constraint {tag!r}")
        c = Constraint(len(self.constraints), dict(e.terms), sense, rhs, tag)
        self.constraints.append(c)
        return c.id

    def constraints_by_tag(self, prefix: str):
        return [c for c in self.constraints if c.tag.startswith(prefix)]

    def set_objective(self, expr) -> None:
        e = as_expr(expr)
        self._check_declared(e.terms)
        self.objective = e

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, expr, values) -> float:
        """Evaluate an expression against values indexed by var id or by name."""
        e = as_expr(expr)
        if isinstance(values, dict) and values and isinstance(next(iter(values)), str):
            return sum(c * values[self.vars[v].name] for v, c in e.terms.items()) + e.const
        return sum(c * values[v] for v, c in e.terms.items()) + e.const

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        used = set(self.objective.terms)
        for c in self.constraints:
            used.update(c.terms)
        for v in self.vars:
            if v.id not in used:
                report.unused_vars.append(v.name)
        for c in self.constraints:
            if not c.terms:
                satisfied = {
                    LE: 0.0 <= c.rhs + 1e-12,
                    EQ: abs(c.rhs) <= 1e-12,
                    GE: 0.0 >= c.rhs - 1e-12,
                }[c.sense]
                (report.trivial_rows if satisfied else report.infeasible_rows).append(
                    (c.id, c.tag)
                )
        for vid, coef in self.objective.terms.items():
            v = self.vars[vid]
            if v.domain.kind != CONTINUOUS or coef == 0.0:
                continue
            # unbounded in the improving (downward) direction of minimize
            if (coef > 0 and v.domain.lo == -INF) or (coef < 0 and v.domain.hi == INF):
                report.unbounded_objective_vars.append(v.name)
        return report


# -- LP file export -----------------------------------------------------------

_LEGAL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# a leading e/E followed by a digit can be misread as an exponent by LP readers
_EXPONENT_LIKE = re.compile(r"[eE][0-9.]")


@dataclass
class LpFile:
    text: str
    name_map: dict  # sanitized name -> original name (only renamed entries)

    def __str__(self):
        return self.text


def _sanitize_names(model: Model):
    """Map every variable to an LP-legal name, reversibly."""
    taken = set()
    forward = {}  # var id -> lp name
    renamed = {}
    for v in model.vars:
        name = v.name
        if not _LEGAL_NAME.match(name) or _EXPONENT_LIKE.match(name):
            name = re.sub(r"[^A-Za-z0-9_]", "_", name)
            if not name or not _LEGAL_NAME.match(name) or _EXPONENT_LIKE.match(name):
                name = "v_" + name
        if name in taken:
            k = 2
            while f"{name}__{k}" in taken:
                k += 1
            name = f"{name}__{k}"
        taken.add(name)
        forward[v.id] = name
        if name != v.name:
            renamed[name] = v.name
    return forward, renamed


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".17g")


def _terms_text(terms: dict, names: dict) -> str:
    parts = []
    for vid in sorted(terms):
        c = terms[vid]
        sign = "-" if c < 0 else "+"
        if not parts and sign == "+":
            parts.append(f"{_num(abs(c))} {names[vid]}")
        else:
            parts.append(f"{sign} {_num(abs(c))} {names[vid]}")
    return " ".join(parts)


def export_lp(model: Model) -> LpFile:
    """Serialize the model to CPLEX LP format text.

    Deterministic: identical models produce byte-identical text.  The
    objective constant is not representable in the format and is left out;
    callers recompute objective values from variable assignments.
    """
    names, renamed = _sanitize_names(model)
    used = set(model.objective.terms)
    for c in model.constraints:
        used.update(c.terms)

    lines = ["\\ " + model.name, "Minimize"]
    obj = _terms_text(model.objective.terms, names)
    # vars appearing nowhere still need a column for LP readers
    orphan = " ".join(f"+ 0 {names[v.id]}" for v in model.vars if v.id not in used)
    if not obj and not orphan and model.vars:
        obj = f"0 {names[0]}"
    lines.append(" obj: " + " ".join(x for x in (obj, orphan) if x))

    lines.append("Subject To")
    for c in model.constraints:
        body = _terms_text(c.terms, names)
        if not body:
            if not model.vars:
                raise ModelError("cannot export a constraint over an empty variable set")
            body = f"0 {names[0]}"
        lines.append(f" c{c.id}: {body} {c.sense} {_num(c.rhs)}")

    bounds = []
    generals = []
    binaries = []
    for v in model.vars:
        d = v.domain
        n = names[v.id]
        if d.kind == BINARY:
            binaries.append(n)
            continue
        if d.kind == INTEGER:
            generals.append(n)
        if d.lo == -INF and d.hi == INF:
            bounds.append(f" {n} free")
        elif d.lo == d.hi:
            bounds.append(f" {n} = {_num(d.lo)}")
        elif d.lo == 0.0 and d.hi == INF:
            pass  # LP-format default
        else:
            lo = "-inf" if d.lo == -INF else _num(d.lo)
            hi = "+inf" if d.hi == INF else _num(d.hi)
            bounds.append(f" {lo} <= {n} <= {hi}")
    if bounds:
        lines.append("Bounds")
        lines.extend(bounds)
    if generals:
        lines.append("General")
        lines.extend(" " + n for n in generals)
    if binaries:
        lines.append("Binary")
        lines.extend(" " + n for n in binaries)
    lines.append("End")
    return LpFile("\n".join(lines) + "\n", renamed)
