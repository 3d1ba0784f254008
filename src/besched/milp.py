"""In-memory mixed-integer linear programs with validation and LP-format export.

The model is deliberately minimal: variables with domains, linear
constraints, one linear objective with a fixed *minimize* sense.  Costs are
registered with positive sign, yields with negative sign.  Every constraint
carries a provenance tag so generated rows can be traced back to the
component and time unit that emitted them.

A ``Var`` is a slotted handle (id, name, domain), equal only to itself.
``Model.binary``, ``integer`` and ``continuous`` give all variables of one
box the same ``Domain``: a model builds and checks each distinct box once
(a week model's 7392 columns have 846 boxes), in a dict that lives and dies
with the model.

Expressions are ``LinExpr`` dicts from variable id to coefficient plus a
constant.  ``+``, ``-`` and ``*`` build new expressions and never change an
operand; ``LinExpr.accumulate`` adds or subtracts in place, so a sum over
many expressions (the objective, a balance row) costs the size of its terms,
not a copy per step.  ``a - b`` subtracts term by term and ``Var * k`` builds
its one-term dict directly; the results are bit for bit those of adding
``b * -1.0`` and of ``Var.expr() * k``.

``export_lp`` writes each row's terms in column order.  The variable names
are made LP-legal in one translation over all of them, and each distinct
number is formatted once per export, in caches that live for that call only.
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

    @property
    def is_integral(self) -> bool:
        return self.kind in (INTEGER, BINARY)


class LinExpr:
    """Linear expression: sum of coefficient * variable plus a constant.

    ``+``, ``-`` and ``*`` return new expressions and never change an
    operand.  :meth:`accumulate` adds in place, so a sum over many
    expressions costs the size of its terms rather than a copy per step.
    The terms keep insertion order, and a coefficient that cancels to
    0.0 is dropped.
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=0.0):
        self.terms = dict(terms) if terms else {}
        self.const = float(const)

    def copy(self) -> "LinExpr":
        return _adopt(self.terms.copy(), self.const)

    def accumulate(self, other, subtract: bool = False) -> "LinExpr":
        """Add ``other`` (subtract it with ``subtract``) in place; returns self.

        Term for term and bit for bit the same as ``self + other`` (or
        ``self - other``), without the copy of ``self``.
        """
        terms = self.terms
        if other is self:
            other = other.copy()
        # subtraction adds the negated operand: for floats that is x - y, but
        # an int 0 negates to int 0, which turns a -0.0 constant into 0.0
        if isinstance(other, LinExpr):
            get = terms.get
            for vid, c in other.terms.items():
                nc = get(vid, 0.0) + (-c if subtract else c)
                if nc == 0.0:
                    terms.pop(vid, None)
                else:
                    terms[vid] = nc
            self.const += -other.const if subtract else other.const
        elif isinstance(other, Var):
            vid = other.id
            nc = terms.get(vid, 0.0) + (-1.0 if subtract else 1.0)
            if nc == 0.0:
                terms.pop(vid, None)
            else:
                terms[vid] = nc
        elif isinstance(other, (int, float)):
            self.const += -other if subtract else other
        else:
            raise TypeError(f"cannot treat {other!r} as a linear expression")
        return self

    def __add__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return _adopt(self.terms.copy(), self.const).accumulate(other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return _adopt(self.terms.copy(), self.const).accumulate(other, subtract=True)

    def __rsub__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        return _adopt({v: -c for v, c in self.terms.items()}, -self.const + other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        if scalar == 0:
            return LinExpr()
        return _adopt({v: c * scalar for v, c in self.terms.items()},
                      float(self.const * scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        parts = [f"{c:+g}*v{v}" for v, c in sorted(self.terms.items())]
        if self.const or not parts:
            parts.append(f"{self.const:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


_new_object = object.__new__


def _adopt(terms: dict, const: float) -> LinExpr:
    """A LinExpr that takes ``terms`` as it is, without the constructor's copy."""
    e = _new_object(LinExpr)
    e.terms = terms
    e.const = const
    return e


class Var:
    """A model's handle on one column; equal and hashed by identity."""

    __slots__ = ("id", "name", "domain")

    def __init__(self, id: int, name: str, domain: Domain):
        self.id = id
        self.name = name
        self.domain = domain

    def expr(self) -> LinExpr:
        return _adopt({self.id: 1.0}, 0.0)

    def __add__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self.expr().accumulate(other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self.expr().accumulate(other, subtract=True)

    def __rsub__(self, other):
        return other - self.expr()

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        if scalar == 0:
            return LinExpr()
        return _adopt({self.id: 1.0 * scalar}, float(0.0 * scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"Var({self.name})"


_OPERANDS = (LinExpr, Var, int, float)


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


class Model:
    """Single-writer MILP container.  Sense is always minimize."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.vars: list[Var] = []
        self._by_name: dict[str, Var] = {}
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.bigms: list = []  # BigM records, see linearize module
        self._domains: dict = {}  # box key -> its one Domain, see _domain

    # -- variables ---------------------------------------------------------

    def add_var(self, name: str, domain: Domain) -> Var:
        if name in self._by_name:
            raise DuplicateName(f"variable name already in use: {name!r}")
        v = Var(len(self.vars), name, domain)
        self.vars.append(v)
        self._by_name[name] = v
        return v

    def _domain(self, kind: str, lo: float, hi: float) -> Domain:
        """This model's one ``Domain`` of the box, checked when first built.

        A box that fails the checks is never stored, so it raises on every
        call.  0.0 equals -0.0, so a zero bound also keys by its sign: each
        variable keeps the bound it was given.
        """
        if lo and hi:
            key = (kind, lo, hi)
        else:
            key = (kind, lo, hi, math.copysign(1.0, lo), math.copysign(1.0, hi))
        domain = self._domains.get(key)
        if domain is None:
            domain = self._domains[key] = Domain(kind, lo, hi)
        return domain

    def binary(self, name: str) -> Var:
        return self.add_var(name, self._domain(BINARY, 0.0, 1.0))

    def integer(self, name: str, lo: float, hi: float) -> Var:
        return self.add_var(name, self._domain(INTEGER, float(lo), float(hi)))

    def continuous(self, name: str, lo: float = -INF, hi: float = INF) -> Var:
        return self.add_var(name, self._domain(CONTINUOUS, float(lo), float(hi)))

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    # -- constraints and objective ------------------------------------------

    def _check_declared(self, terms):
        n = len(self.vars)
        if terms and (min(terms) < 0 or max(terms) >= n):
            bad = next(vid for vid in terms if vid < 0 or vid >= n)
            raise UndeclaredVariable(f"variable handle {bad} not declared in this model")

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

    def set_objective(self, expr) -> None:
        e = as_expr(expr)
        self._check_declared(e.terms)
        self.objective = e

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, expr, values) -> float:
        """Evaluate an expression against values indexed by var id or by name.

        The products are added one by one in term order, then the constant,
        as the sparse product in ``schedule.extract_schedule`` adds them
        (``sum`` adds floats with compensation from Python 3.12 on).
        """
        e = as_expr(expr)
        named = isinstance(values, dict) and values and isinstance(next(iter(values)), str)
        total = 0.0
        for v, c in e.terms.items():
            total += c * values[self.vars[v].name if named else v]
        return total + e.const

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

_ILLEGAL_CHAR = re.compile(r"[^A-Za-z0-9_]")
_ILLEGAL_ASCII = str.maketrans(
    {c: "_" for c in map(chr, range(128)) if not (c.isalnum() or c == "_")})


@dataclass
class LpFile:
    text: str
    name_map: dict  # sanitized name -> original name (only renamed entries)

    def __str__(self):
        return self.text


def _sanitize_names(model: Model):
    """Map every variable to an LP-legal name, reversibly.

    Every character outside ``[A-Za-z0-9_]`` becomes ``_``, in one
    translation over all names joined: it maps one character to one, so the
    name lengths cut the result apart again (on a week model that takes
    2 ms, a translation per name 14 ms).  A name that is then empty,
    starts with a digit or could be read as an exponent (``e1``) gets the
    prefix ``v_``, and a name already taken gets ``__2``, ``__3``, ...
    """
    originals = [v.name for v in model.vars]
    joined = "".join(originals).translate(_ILLEGAL_ASCII)
    if not joined.isascii():
        joined = _ILLEGAL_CHAR.sub("_", joined)
    names = []  # by var id
    taken = set()
    end = 0
    for original in originals:
        start, end = end, end + len(original)
        name = joined[start:end]
        if not name or name[0].isdigit() or (name[0] in "eE" and name[1:2].isdigit()):
            name = "v_" + name
        if name in taken:
            k = 2
            while f"{name}__{k}" in taken:
                k += 1
            name = f"{name}__{k}"
        taken.add(name)
        names.append(name)
    renamed = {name: original for name, original in zip(names, originals) if name != original}
    return names, renamed


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".17g")


class _Texts(dict):
    """Number -> text, each formatted on first use; one per export."""

    def __init__(self, fmt):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, x):
        text = self[x] = self.fmt(x)
        return text


def _box_text(lo: float, hi: float, num: _Texts):
    if lo == -INF and hi == INF:
        return " ", " free"
    if lo == hi:
        return " ", f" = {num[lo]}"
    if lo == 0.0 and hi == INF:
        return ()  # LP-format default
    return f" {'-inf' if lo == -INF else num[lo]} <= ", f" <= {'+inf' if hi == INF else num[hi]}"


def export_lp(model: Model) -> LpFile:
    """Serialize the model to CPLEX LP format text.

    Deterministic: identical models produce byte-identical text.  The
    objective constant is not representable in the format and is left out;
    callers recompute objective values from variable assignments.

    Each row's terms are written in column order.  Each distinct number is
    formatted once per export, through caches that live only for this call.
    """
    names, renamed = _sanitize_names(model)
    num = _Texts(_num)
    signed = _Texts(lambda c: f"{'-' if c < 0 else '+'} {_num(abs(c))} ")

    def terms_text(terms):
        text = " ".join([signed[terms[vid]] + names[vid] for vid in sorted(terms)])
        return text[2:] if text[:1] == "+" else text

    used = set(model.objective.terms)
    for c in model.constraints:
        used.update(c.terms)

    lines = ["\\ " + model.name, "Minimize"]
    obj = terms_text(model.objective.terms)
    # vars appearing nowhere still need a column for LP readers
    orphan = " ".join(f"+ 0 {names[v.id]}" for v in model.vars if v.id not in used)
    if not obj and not orphan and model.vars:
        obj = f"0 {names[0]}"
    lines.append(" obj: " + " ".join(x for x in (obj, orphan) if x))

    lines.append("Subject To")
    for c in model.constraints:
        body = terms_text(c.terms)
        if not body:
            if not model.vars:
                raise ModelError("cannot export a constraint over an empty variable set")
            body = f"0 {names[0]}"
        lines.append(f" c{c.id}: {body} {c.sense} {num[c.rhs]}")

    bounds = []
    generals = []
    binaries = []
    # (lo, hi) -> (before, after) the name, () for the default box: a week
    # model has 7392 columns but a handful of boxes
    box_text = {}
    for v, n in zip(model.vars, names):
        d = v.domain
        if d.kind == BINARY:
            binaries.append(n)
            continue
        if d.kind == INTEGER:
            generals.append(n)
        box = box_text.get((d.lo, d.hi))
        if box is None:
            box = box_text[(d.lo, d.hi)] = _box_text(d.lo, d.hi, num)
        if box:
            bounds.append(box[0] + n + box[1])
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
