"""In-memory mixed-integer linear programs with validation and LP-format export.

The model is deliberately minimal: variables with domains, linear
constraints, one linear objective with a fixed *minimize* sense.  Costs are
registered with positive sign, yields with negative sign.  Every constraint
carries a provenance tag so generated rows can be traced back to the
component and time unit that emitted them.

A model keeps its rows in one CSR row store: column and coefficient arrays,
row ends, senses, right-hand sides and tags.  ``add_constraint`` appends one
row from an expression, ``add_rows`` a block of rows, one per time unit,
from an ``ExprBlock``: a series of expressions held as arrays (term columns
and coefficients in insertion order, row pointers and a constant vector).
``append_rows`` appends rows given as plain lists (columns, coefficients,
term counts, sense codes, right-hand sides and tags).  One rule says what a
stored row may be, whichever of the three stores it: a known sense, a
non-empty tag, declared columns, each column at most once, and a finite
right-hand side.  Each entry tests its batch in one cheap pass and hands a
batch that fails to ``Model._check_rows``, which raises the error of the
first bad row, naming its tag; nothing of the batch is stored.
``Model.continuous_series`` makes the named columns of such a series in one
call.  ``row_arrays`` hands the store to the solver and to ``export_lp`` as
numpy arrays; ``Model.constraints`` is a read-only view that builds a
``Constraint`` record for each row it is asked for.

Beside the row store a model keeps a column store, the one record of each
column's name and box: the names in a list and the box in three flat
arrays, its bounds and its kind.  ``Model.binary``, ``integer`` and
``continuous`` check the box through a ``Domain`` (every binary shares one)
and append it; ``continuous_series`` checks a whole series in one array pass
and appends it without a ``Domain``.  ``column_arrays`` hands the arrays to
the solver as numpy copies, and ``export_lp`` finds the distinct boxes of
its Bounds lines in them.

A ``Var`` is a slotted handle (id, name, domain), equal only to itself.
``Model.vars`` is a read-only view of the columns: column k reads as its one
handle, made with its ``Domain`` on the first read and kept, so a series
column that is never read never gets one.

Expressions are ``LinExpr`` dicts from variable id to coefficient plus a
constant.  ``+``, ``-`` and ``*`` build new expressions and never change an
operand; ``LinExpr.accumulate`` adds or subtracts in place, so a sum over
many expressions (the objective, a balance row) costs the size of its terms,
not a copy per step.  ``a - b`` subtracts term by term and ``Var * k`` builds
its one-term dict directly; the results are bit for bit those of adding
``b * -1.0`` and of ``Var.expr() * k``.

``export_lp`` writes each row's terms in column order.  The variable names
are made LP-legal in one translation over all of them.  ``_num_texts``, the
one number writer of the LP file and of schedule.csv, formats each distinct
number of a file once, all in one ``%`` operation.
"""

from __future__ import annotations

import math
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, islice, repeat
from operator import ne
from typing import NamedTuple

import numpy as np

from .errors import DuplicateName, ModelError, UndeclaredVariable

INF = math.inf

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

LE = "<="
EQ = "="
GE = ">="

# a row's sense as stored: -1 for <=, 0 for =, 1 for >=
_SENSE_CODE = {LE: -1, EQ: 0, GE: 1}
_SENSE_OF = {-1: LE, 0: EQ, 1: GE}


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
        if self.lo == INF or self.hi == -INF:
            raise ModelError(f"no finite value in the domain: lo={self.lo}, hi={self.hi}")

    @property
    def is_integral(self) -> bool:
        return self.kind in (INTEGER, BINARY)


# a column's kind as stored: an index into _KINDS
_KINDS = (CONTINUOUS, INTEGER, BINARY)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_BINARY = Domain(BINARY, 0.0, 1.0)


class LinExpr:
    """Linear expression: sum of coefficient * variable plus a constant.

    ``+``, ``-`` and ``*`` return new expressions and never change an
    operand.  :meth:`accumulate` adds in place, so a sum over many
    expressions costs the size of its terms rather than a copy per step.
    The terms keep insertion order, and a coefficient that cancels to
    0.0 is dropped.

    Scalar rows are formed with these operators, except two kinds.  The
    McCormick rows of ``linearize``: its one writer, ``_mccormick_row``,
    forms each row's term dict itself, with the float operations these
    operators would do, and hands it to ``Model.add_constraint`` as one
    expression.  The switched-state rows of ``fcchp.transition_rows`` and
    ``fcchp.build_min_durations``: their columns and +-1.0 coefficients come
    from the ``Var`` ids, their float operands fold into the rhs, and each
    call hands all its rows to ``Model.append_rows`` at once.  The operators
    merge two terms of one column; a row formed without them that holds a
    column twice breaks the store's one rule for rows and is refused.
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
            _add_terms(terms, other.terms.items(), subtract)
            self.const += -other.const if subtract else other.const
        elif isinstance(other, Var):
            _add_terms(terms, ((other.id, 1.0),), subtract)
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


def _add_terms(terms: dict, pairs, subtract: bool = False) -> dict:
    """Add each (column, coefficient) pair to ``terms`` in place (subtract it
    with ``subtract``), the one addition rule of every expression: a sum that
    cancels to 0.0 drops the term.  Returns ``terms``."""
    get = terms.get
    for vid, c in pairs:
        nc = get(vid, 0.0) + (-c if subtract else c)
        if nc == 0.0:
            terms.pop(vid, None)
        else:
            terms[vid] = nc
    return terms


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


class ExprBlock:
    """A series of linear expressions held as arrays, one per time unit.

    The terms of expression ``i`` are ``cols[ptr[i]:ptr[i + 1]]`` with the
    coefficients in the same places of ``coefs``, in term insertion order,
    and its constant is ``const[i]``.  The constructors below give bit for
    bit the expressions that the ``LinExpr`` operators would.
    """

    __slots__ = ("ptr", "cols", "coefs", "const")

    def __init__(self, ptr, cols, coefs, const):
        self.ptr = ptr
        self.cols = cols
        self.coefs = coefs
        self.const = const

    def __len__(self) -> int:
        return len(self.const)

    @classmethod
    def columns(cls, cols, const=0.0) -> "ExprBlock":
        """The expressions ``Var + const``: one term of coefficient 1.0 each."""
        cols = np.asarray(cols, dtype=np.int64)
        n = len(cols)
        # Var + k adds k to the constant 0.0, which turns a -0.0 into 0.0
        return cls(np.arange(n + 1), cols, np.ones(n),
                   np.add(0.0, np.broadcast_to(np.asarray(const, dtype=float), (n,))))

    @classmethod
    def scaled(cls, cols, scale) -> "ExprBlock":
        """The expressions ``Var * k``: no term where k is 0, and the constant
        ``0.0 * k`` (-0.0 for a negative k) elsewhere."""
        cols = np.asarray(cols, dtype=np.int64)
        k = np.broadcast_to(np.asarray(scale, dtype=float), cols.shape)
        keep = k != 0.0
        ptr = np.concatenate(([0], np.cumsum(keep)))
        return cls(ptr, cols[keep], k[keep], np.where(keep, 0.0 * k, 0.0))

    @classmethod
    def constants(cls, values) -> "ExprBlock":
        const = np.array(values, dtype=float)
        return cls(np.zeros(len(const) + 1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   np.zeros(0), const)

    @classmethod
    def from_exprs(cls, series) -> "ExprBlock":
        """The block of a sequence of ``LinExpr``, ``Var`` or numbers."""
        exprs = list(map(as_expr, series))
        terms = [e.terms for e in exprs]
        lens = np.fromiter(map(len, terms), dtype=np.int64, count=len(terms))
        ptr = np.concatenate(([0], np.cumsum(lens)))
        nnz = int(ptr[-1])
        cols = np.fromiter(chain.from_iterable(terms), dtype=np.int64, count=nnz)
        coefs = np.fromiter(chain.from_iterable(map(dict.values, terms)), dtype=float,
                            count=nnz)
        const = np.fromiter((e.const for e in exprs), dtype=float, count=len(exprs))
        return cls(ptr, cols, coefs, const)

    @classmethod
    def stack(cls, blocks) -> "ExprBlock":
        """The expressions of every block, one block after the other."""
        if not blocks:
            return cls.constants(())
        lens = np.concatenate([np.diff(b.ptr) for b in blocks])
        return cls(np.concatenate(([0], np.cumsum(lens))),
                   np.concatenate([b.cols for b in blocks]),
                   np.concatenate([b.coefs for b in blocks]),
                   np.concatenate([b.const for b in blocks]))

    def negated(self) -> "ExprBlock":
        return ExprBlock(self.ptr, self.cols, -self.coefs, -self.const)

    def exprs(self) -> list:
        """The expressions as ``LinExpr``, built on each call."""
        cols, coefs, ptr = self.cols.tolist(), self.coefs.tolist(), self.ptr.tolist()
        return [_adopt(dict(zip(cols[a:b], coefs[a:b])), k)
                for a, b, k in zip(ptr, ptr[1:], self.const.tolist())]


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


class RowArrays(NamedTuple):
    """A model's rows as numpy arrays: row ``k`` has the terms
    ``cols[indptr[k]:indptr[k + 1]]`` with ``coefs`` in the same places."""

    indptr: np.ndarray
    cols: np.ndarray
    coefs: np.ndarray
    senses: np.ndarray  # int8: -1 for <=, 0 for =, 1 for >=
    rhs: np.ndarray
    tags: list


class _View(Sequence):
    """Read-only view of one of a model's stores: an index reads one item
    (``_item``), a slice a list of them, and the view equals a list or tuple
    of the same items."""

    __slots__ = ("_model",)

    def __init__(self, model: "Model"):
        self._model = model

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._item(i) for i in range(*k.indices(len(self)))]
        return self._item(range(len(self))[k])  # negative indices, and IndexError past the end

    def __eq__(self, other):
        if not isinstance(other, (type(self), list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


class _RowView(_View):
    """The rows: each row read is a new ``Constraint`` with the terms in
    stored order."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._model._tags)

    def _item(self, k):
        m = self._model
        start = m._ends[k - 1] if k else 0
        end = m._ends[k]
        return Constraint(k, dict(zip(m._cols[start:end], m._coefs[start:end])),
                          _SENSE_OF[m._senses[k]], m._rhs[k], m._tags[k])

    def __iter__(self):
        m = self._model
        cols, coefs, start = m._cols.tolist(), m._coefs.tolist(), 0
        for k, (end, code, rhs, tag) in enumerate(zip(m._ends, m._senses, m._rhs, m._tags)):
            yield Constraint(k, dict(zip(cols[start:end], coefs[start:end])), _SENSE_OF[code],
                             rhs, tag)
            start = end


class ColumnArrays(NamedTuple):
    """A model's column boxes as numpy arrays, by column id."""

    lo: np.ndarray
    hi: np.ndarray
    integral: np.ndarray  # bool: an integer or binary column


class _ColumnView(_View):
    """The columns: column ``k`` reads as its one ``Var`` handle, made with
    its ``Domain`` on the first read and kept."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._model._names)

    def _item(self, k):
        m = self._model
        handle = m._handles[k]
        if handle is None:
            handle = m._handles[k] = Var(k, m._names[k],
                                         Domain(_KINDS[m._kind[k]], m._lo[k], m._hi[k]))
        return handle

    def __iter__(self):
        """The handles of the columns there are now, the missing ones made in
        one pass."""
        handles = self._model._handles
        for k in [k for k, h in enumerate(handles) if h is None]:
            self._item(k)
        return iter(handles[:])


class Model:
    """Single-writer MILP container.  Sense is always minimize."""

    def __init__(self, name: str = "model"):
        self.name = name
        # the column store: column k is named _names[k], has the bounds
        # _lo[k], _hi[k] and the kind _KINDS[_kind[k]]; _handles[k] is its
        # Var once one was asked for
        self._names: list[str] = []
        self._lo = array("d")
        self._hi = array("d")
        self._kind = array("b")
        self._handles: list = []
        self._by_name: dict[str, int] = {}  # column name -> column id
        # the CSR row store: row k's terms end at _ends[k] in _cols/_coefs
        self._cols = array("q")
        self._coefs = array("d")
        self._ends = array("q")
        self._senses = array("b")
        self._rhs = array("d")
        self._tags: list[str] = []
        self.objective: LinExpr = LinExpr()
        self.bigms: list = []  # BigM records, see linearize module

    # -- variables ---------------------------------------------------------

    @property
    def vars(self) -> _ColumnView:
        """The columns, read-only: column k reads as its one ``Var`` handle."""
        return _ColumnView(self)

    @property
    def n_columns(self) -> int:
        return len(self._names)

    def column_names(self) -> list:
        """The column names by column id, copied."""
        return list(self._names)

    def column_arrays(self) -> ColumnArrays:
        """The column boxes as numpy arrays, copied."""
        return ColumnArrays(np.array(self._lo), np.array(self._hi),
                            np.array(self._kind, dtype=bool))

    def add_var(self, name: str, domain: Domain) -> Var:
        if name in self._by_name:
            raise DuplicateName(f"variable name already in use: {name!r}")
        k = len(self._names)
        v = Var(k, name, domain)
        self._names.append(name)
        self._lo.append(domain.lo)
        self._hi.append(domain.hi)
        self._kind.append(_KIND_CODE[domain.kind])
        self._handles.append(v)
        self._by_name[name] = k
        return v

    def binary(self, name: str) -> Var:
        return self.add_var(name, _BINARY)

    def integer(self, name: str, lo: float, hi: float) -> Var:
        return self.add_var(name, Domain(INTEGER, float(lo), float(hi)))

    def continuous(self, name: str, lo: float = -INF, hi: float = INF) -> Var:
        return self.add_var(name, Domain(CONTINUOUS, float(lo), float(hi)))

    def continuous_series(self, name: str, n: int, lo=-INF, hi=INF) -> np.ndarray:
        """Continuous columns ``name[1]`` to ``name[n]``; returns their ids.

        ``lo`` and ``hi`` are each one bound for all columns or one per
        column.  The same columns as ``n`` calls of :meth:`continuous`, but
        no ``Var`` or ``Domain`` is made: the bounds are checked in one
        array pass and appended as they are.  A bad box raises the message
        of :meth:`continuous`, naming its first column.
        """
        names = [f"{name}[{i}]" for i in range(1, n + 1)]
        if not self._by_name.keys().isdisjoint(names):
            taken = next(x for x in names if x in self._by_name)
            raise DuplicateName(f"variable name already in use: {taken!r}")
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,))
        bad = (lo > hi) | np.isnan(lo) | np.isnan(hi) | (lo == INF) | (hi == -INF)
        if bad.any():
            k = int(bad.argmax())
            try:
                Domain(CONTINUOUS, float(lo[k]), float(hi[k]))  # raises the message
            except ModelError as exc:
                raise ModelError(f"{names[k]}: {exc}") from None
        start = len(self._names)
        self._names.extend(names)
        self._lo.frombytes(lo.tobytes())
        self._hi.frombytes(hi.tobytes())
        self._kind.frombytes(bytes(n))  # every column continuous
        self._handles.extend([None] * n)
        self._by_name.update(zip(names, range(start, start + n)))
        return np.arange(start, start + n)

    # -- constraints and objective ------------------------------------------

    def _check_declared(self, terms):
        n = len(self._names)
        if terms and (min(terms) < 0 or max(terms) >= n):
            bad = next(vid for vid in terms if vid < 0 or vid >= n)
            raise UndeclaredVariable(f"variable handle {bad} not declared in this model")

    @property
    def constraints(self) -> _RowView:
        """The rows, read-only: each row read is a new ``Constraint``."""
        return _RowView(self)

    def add_constraint(self, lhs, sense: str, rhs: float = 0.0, tag: str = "") -> int:
        code = _SENSE_CODE.get(sense)
        e = lhs if type(lhs) is LinExpr else as_expr(lhs)
        terms = e.terms
        rhs = float(rhs) - e.const
        # the terms are a dict, so no column repeats
        if (code is None or not tag or not math.isfinite(rhs)
                or (terms and (min(terms) < 0 or max(terms) >= len(self._names)))):
            self._check_rows(list(terms), [len(terms)], [sense if code is None else code],
                             [rhs], [tag])
        self._cols.extend(terms)
        self._coefs.extend(terms.values())
        self._ends.append(len(self._cols))
        self._senses.append(code)
        self._rhs.append(rhs)
        self._tags.append(tag)
        return len(self._tags) - 1

    def add_rows(self, lhs: ExprBlock, sense: str, rhs=0.0, tag: str = "") -> range:
        """One row per expression of ``lhs``, tagged ``{tag}.i=1``, ``.i=2``, ...

        Row i is the row ``add_constraint(lhs[i], sense, rhs[i])`` adds, with
        ``rhs`` one number for all rows or one per row.  An empty ``tag``
        leaves every row's tag empty.  Returns the row ids.
        """
        code = _SENSE_CODE.get(sense)
        cols, counts, n, n_cols = lhs.cols, np.diff(lhs.ptr), len(lhs), len(self._names)
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), (n,)) - lhs.const
        tags = [f"{tag}.i={i}" for i in range(1, n + 1)] if tag else [tag] * n
        # a column repeats in a row where two sorted keys row * (n_cols + 1) + col meet
        keys = np.sort(np.repeat(np.arange(n) * (n_cols + 1), counts) + cols)
        if (code is None or not tag or not np.isfinite(rhs).all()
                or (len(cols) and (cols.min() < 0 or cols.max() >= n_cols))
                or (keys[1:] == keys[:-1]).any()):
            self._check_rows(cols.tolist(), counts.tolist(), [sense if code is None else code] * n,
                             rhs.tolist(), tags)
        first, base = len(self._tags), len(self._cols)
        self._cols.frombytes(np.asarray(cols, dtype=np.int64).tobytes())
        self._coefs.frombytes(np.asarray(lhs.coefs, dtype=float).tobytes())
        self._ends.frombytes((np.asarray(lhs.ptr[1:], dtype=np.int64) + base).tobytes())
        self._senses.frombytes(np.full(n, code, dtype=np.int8).tobytes())
        self._rhs.frombytes(rhs.tobytes())
        self._tags.extend(tags)
        return range(first, first + n)

    def append_rows(self, cols: list, coefs: list, counts: list, senses: list, rhs: list,
                    tags: list) -> range:
        """Rows given as plain lists, stored in one append per list.

        Row k has the next ``counts[k]`` entries of ``cols`` and ``coefs`` as
        its terms, the sense code ``senses[k]`` (-1 for <=, 0 for =, 1 for
        >=), the right-hand side ``rhs[k]`` and the tag ``tags[k]``: the row
        ``add_constraint`` stores from the same terms, constant and tag.  A
        batch with a row that breaks the rule of :meth:`_check_rows` is
        refused whole.  Returns the row ids.
        """
        if not (len(counts) == len(senses) == len(rhs) == len(tags)
                and len(cols) == len(coefs) == sum(counts)):
            raise ModelError("row lists of unequal lengths")
        # each row takes its columns in turn from one iterator; a sum of
        # finite values may overflow, so the rhs test can fail alone
        terms = iter(cols)
        if not (_SENSE_OF.keys() >= set(senses) and all(tags)
                and (not cols or (min(cols) >= 0 and max(cols) < len(self._names)))
                and list(map(len, map(set, map(islice, repeat(terms), counts)))) == counts
                and math.isfinite(sum(rhs))):
            self._check_rows(cols, counts, senses, rhs, tags)
        first, base = len(self._tags), len(self._cols)
        self._cols.extend(cols)
        self._coefs.extend(coefs)
        self._ends.extend(islice(accumulate(counts, initial=base), 1, None))
        self._senses.extend(senses)
        self._rhs.extend(rhs)
        self._tags.extend(tags)
        return range(first, first + len(tags))

    def _check_rows(self, cols, counts, senses, rhs, tags):
        """The one rule for what a stored row may be: a known sense code, a
        non-empty tag, declared columns, each at most once, and a finite
        rhs.  Raises the error of the first row of a batch that breaks it,
        naming its tag; ``add_constraint``, ``add_rows`` and ``append_rows``
        call it on every batch that fails their quick test, and store
        nothing when it raises."""
        n, end = len(self._names), 0
        for count, code, r, tag in zip(counts, senses, rhs, tags):
            start, end = end, end + count
            row = cols[start:end]
            if code not in _SENSE_OF:
                raise ModelError(f"unknown constraint sense {code!r} in constraint {tag!r}")
            if not tag:
                raise ModelError(f"constraint tag must be non-empty, got {tag!r}")
            bad = next((vid for vid in row if vid < 0 or vid >= n), None)
            if bad is not None:
                raise UndeclaredVariable(
                    f"variable handle {bad} not declared in this model, in constraint {tag!r}")
            if len(set(row)) < count:
                raise ModelError(f"the operands of constraint {tag!r} share a column")
            if not math.isfinite(r):
                raise ModelError(f"non-finite rhs in constraint {tag!r}")

    def row_arrays(self) -> RowArrays:
        """The row store as numpy arrays, copied: the model stays writable.

        Every reader of the rows comes through here, so a non-finite
        coefficient is refused here, naming its row.
        """
        coefs = np.array(self._coefs)
        bad = np.flatnonzero(~np.isfinite(coefs))
        if len(bad):
            row = int(np.searchsorted(self._ends, bad[0], side="right"))
            raise ModelError(f"non-finite coefficient in constraint {self._tags[row]!r}")
        return RowArrays(np.concatenate(([0], np.array(self._ends, dtype=np.int64))),
                         np.array(self._cols, dtype=np.int64), coefs,
                         np.array(self._senses, dtype=np.int8), np.array(self._rhs),
                         list(self._tags))

    def set_objective(self, expr) -> None:
        e = as_expr(expr)
        self._check_declared(e.terms)
        if not math.isfinite(e.const):
            raise ModelError(f"non-finite objective constant {e.const}")
        coefs = np.fromiter(e.terms.values(), dtype=float, count=len(e.terms))
        if not np.isfinite(coefs).all():
            bad = next(vid for vid, c in e.terms.items() if not math.isfinite(c))
            raise ModelError(f"non-finite objective coefficient of {self._names[bad]!r}")
        self.objective = e

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, expr, x) -> float:
        """Evaluate an expression against values indexed by column id, such
        as a solution's ``x``; the result is a Python float.

        The products are added one by one in term order, then the constant,
        as the sparse product in ``schedule.extract_schedule`` adds them
        (``sum`` adds floats with compensation from Python 3.12 on).
        """
        e = as_expr(expr)
        total = 0.0
        for v, c in e.terms.items():
            total += c * x[v]
        return float(total + e.const)

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        rows = self.row_arrays()
        used = _used_columns(self, rows)
        names = self._names
        report.unused_vars = [names[vid] for vid in np.flatnonzero(~used).tolist()]
        empty = np.flatnonzero(np.diff(rows.indptr) == 0).tolist()
        for k, code, rhs in zip(empty, rows.senses[empty].tolist(), rows.rhs[empty].tolist()):
            satisfied = {
                LE: 0.0 <= rhs + 1e-12,
                EQ: abs(rhs) <= 1e-12,
                GE: 0.0 >= rhs - 1e-12,
            }[_SENSE_OF[code]]
            (report.trivial_rows if satisfied else report.infeasible_rows).append(
                (k, rows.tags[k])
            )
        return report


# -- LP file export -----------------------------------------------------------

# every character but [A-Za-z0-9_] and the newline that separates names
_ILLEGAL_CHAR = re.compile(r"[^A-Za-z0-9_\n]")
_ILLEGAL_ASCII = str.maketrans(
    {c: "_" for c in map(chr, range(128)) if not (c.isalnum() or c in "_\n")})
# a sanitized name that needs the prefix v_: empty, a leading digit, or "e1"
_PREFIX = re.compile(r"[0-9]|[eE][0-9]|$")
# the first characters of a name that never needs it
_NO_PREFIX = frozenset("ABCDFGHIJKLMNOPQRSTUVWXYZabcdfghijklmnopqrstuvwxyz_")


@dataclass
class LpFile:
    text: str
    name_map: dict  # sanitized name -> original name (only renamed entries)


def _sanitize_names(model: Model):
    """Map every variable to an LP-legal name, reversibly.

    Every character outside ``[A-Za-z0-9_]`` becomes ``_``, in one
    translation over all names joined by newlines, which the translation
    keeps and a split then cuts at (on a week model that takes 2 ms, a
    translation per name 14 ms).  A name that is then empty, starts with a
    digit or could be read as an exponent (``e1``) gets the prefix ``v_``,
    and a name already taken gets ``__2``, ``__3``, ...  Both are rare: the
    names are walked one by one only when one of them starts with a digit,
    ``e``, ``E`` or nothing, or when two are equal.
    """
    originals = model._names
    if not originals:
        return [], {}
    joined = "\n".join(originals)
    if joined.count("\n") >= len(originals):  # a name holds a newline itself
        joined = "\n".join(name.replace("\n", "_") for name in originals)
    joined = joined.translate(_ILLEGAL_ASCII)
    if not joined.isascii():
        joined = _ILLEGAL_CHAR.sub("_", joined)
    names = joined.split("\n")  # by var id
    if not _NO_PREFIX.issuperset({name[:1] for name in names}):
        names = ["v_" + name if _PREFIX.match(name) else name for name in names]
    if len(set(names)) < len(names):
        taken = set()
        for i, name in enumerate(names):
            if name in taken:
                k = 2
                while f"{name}__{k}" in taken:
                    k += 1
                name = names[i] = f"{name}__{k}"
            taken.add(name)
    renamed = dict(compress(zip(names, originals), map(ne, names, originals)))
    return names, renamed


def _num_texts(values: np.ndarray, fmt: str) -> dict:
    """The text of every distinct finite number of ``values``, by number.

    They are formatted in one ``%`` operation: a whole number below 1e15 as
    an integer (-0.0 as ``0``), any other with ``fmt``: ``%.17g`` in the LP
    file, ``%r`` in schedule.csv.
    """
    distinct = np.unique(values[np.isfinite(values)])
    whole = (distinct == np.trunc(distinct)) & (np.abs(distinct) < 1e15)
    fmts = "\n".join(["%d" if w else fmt for w in whole.tolist()])
    distinct = distinct.tolist()
    return dict(zip(distinct, (fmts % tuple(distinct)).split("\n")))


def _box_text(lo: float, hi: float, num: dict):
    if lo == -INF and hi == INF:
        return " ", " free"
    if lo == hi:
        return " ", f" = {num[lo]}"
    if lo == 0.0 and hi == INF:
        return ()  # LP-format default
    return f" {'-inf' if lo == -INF else num[lo]} <= ", f" <= {'+inf' if hi == INF else num[hi]}"


def _used_columns(model: Model, rows: RowArrays) -> np.ndarray:
    """Per column: does the objective or any row hold it?"""
    used = np.zeros(model.n_columns, dtype=bool)
    used[rows.cols] = True
    used[np.fromiter(model.objective.terms, dtype=np.int64)] = True
    return used


def _rows_text(rows: RowArrays, names: list, num: dict) -> str:
    """The lines of the Subject To section, joined.

    Row k is the tokens ``c{k}:``, a signed number and a name per term in
    column order (``0`` and the first name for a row without terms), its
    sense and its rhs ending the line.  All tokens go into one array and one
    join, with each distinct coefficient formatted once.
    """
    indptr = rows.indptr
    m, nnz = len(rows.rhs), len(rows.cols)
    lens = np.diff(indptr)
    row_of = np.repeat(np.arange(m), lens)
    order = np.lexsort((rows.cols, row_of))
    width = 2 * np.maximum(lens, 1) + 3
    start = np.cumsum(width) - width
    tokens = np.empty(int(width.sum()), dtype=object)
    tokens[start] = [f"c{k}:" for k in range(m)]
    at = start[row_of] + 1 + 2 * (np.arange(nnz) - indptr[row_of])
    distinct, which = np.unique(rows.coefs[order], return_inverse=True)
    signed = np.array([f"{'-' if c < 0 else '+'} {num[abs(c)]}" for c in distinct.tolist()],
                      dtype=object)
    tokens[at] = signed[which]
    tokens[at + 1] = np.array(names, dtype=object)[rows.cols[order]]
    # the first term of a row goes without a plus sign
    first = start[lens > 0] + 1
    tokens[first] = [t[2:] if t[:1] == "+" else t for t in tokens[first].tolist()]
    empty = start[lens == 0]
    tokens[empty + 1] = "0"
    tokens[empty + 2] = names[0]
    end = start + width
    tokens[end - 2] = np.array([LE, EQ, GE], dtype=object)[rows.senses + 1]
    tokens[end - 1] = [num[r] + "\n" for r in rows.rhs.tolist()]
    return " " + " ".join(tokens.tolist())[:-1]


def export_lp(model: Model) -> LpFile:
    """Serialize the model to CPLEX LP format text.

    Deterministic: identical models produce byte-identical text.  The
    objective constant is not representable in the format and is left out;
    callers recompute objective values from variable assignments.

    Each row's terms are written in column order, read from the row store
    sorted once.  Every distinct number is formatted once, by one
    ``_num_texts`` call over all of them, and each distinct box once.
    """
    names, renamed = _sanitize_names(model)
    rows = model.row_arrays()
    obj_coefs = np.fromiter(model.objective.terms.values(), dtype=float)
    # the distinct boxes of the columns with a Bounds line, all but binaries,
    # as lo + hi j: one np.unique over complex numbers (-0.0 equals 0.0)
    kind = np.array(model._kind)
    bounded = kind != _KIND_CODE[BINARY]
    boxes = np.empty(int(bounded.sum()), dtype=complex)
    boxes.real, boxes.imag = np.array(model._lo)[bounded], np.array(model._hi)[bounded]
    boxes, box_of = np.unique(boxes, return_inverse=True)
    num = _num_texts(np.concatenate((
        np.abs(rows.coefs), rows.rhs, np.abs(obj_coefs), boxes.real, boxes.imag)), "%.17g")
    signed = {c: f"{'-' if c < 0 else '+'} {num[abs(c)]} "
              for c in set(model.objective.terms.values())}

    used = _used_columns(model, rows)
    lines = ["\\ " + model.name, "Minimize"]
    obj = " ".join([signed[c] + names[vid] for vid, c in sorted(model.objective.terms.items())])
    if obj[:1] == "+":
        obj = obj[2:]
    # vars appearing nowhere still need a column for LP readers
    orphan = " ".join(f"+ 0 {names[vid]}" for vid in np.flatnonzero(~used).tolist())
    if not obj and not orphan and names:
        obj = f"0 {names[0]}"
    lines.append(" obj: " + " ".join(x for x in (obj, orphan) if x))

    lines.append("Subject To")
    if len(rows.rhs):
        if not names:
            raise ModelError("cannot export a constraint over an empty variable set")
        lines.append(_rows_text(rows, names, num))

    # each distinct box's text before and after the name, () for the default box
    box_text = [_box_text(box.real, box.imag, num) for box in boxes.tolist()]
    bounds = [text[0] + n + text[1] for text, n in
              zip(map(box_text.__getitem__, box_of.tolist()), compress(names, bounded.tolist()))
              if text]
    generals = list(compress(names, (kind == _KIND_CODE[INTEGER]).tolist()))
    binaries = list(compress(names, (~bounded).tolist()))
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
