"""The ledger's array path against the LinExpr sums it replaces.

Random ledgers mix series registered as blocks (``ExprBlock.columns``,
``scaled`` and ``constants``) and as lists of ``LinExpr``.  The balance
rows, the objective and the extracted schedule must equal, bit for bit, the
sums of ``oracles.RefLinExpr`` that add one expression at a time.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besched.assembly import (CARRIERS, SERIES_PREFIX, SINK, BalanceLedger, TimeGrid,
                              build_balances, build_objective)
from besched.errors import StructuralInfeasibility
from besched.milp import ExprBlock, LinExpr, Model
from besched.schedule import extract_schedule
from besched.solver import Solution

from oracles import (RefLinExpr, RefVar, balances_reference, extract_reference,
                     objective_reference)

# few distinct values, so that terms meet and cancel: 0.5 - 0.5 is 0.0
COEFS = st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0, 0.0, -0.0, 0.1, 0.2, -0.3, 1e-17])
ROLES = ("source", "sink", "input", "output", "state")


@st.composite
def ledgers(draw):
    n = draw(st.integers(1, 4))
    n_vars = draw(st.integers(1, 5))
    column = st.integers(0, n_vars - 1)
    entries = []
    for k in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("columns", "scaled", "constants", "exprs")))
        if kind == "exprs":
            data = [(draw(st.dictionaries(column, COEFS, max_size=3)), draw(COEFS))
                    for _ in range(n)]
        elif kind == "constants":
            data = draw(st.lists(COEFS, min_size=n, max_size=n))
        else:
            data = (draw(st.lists(column, min_size=n, max_size=n)),
                    draw(st.lists(COEFS, min_size=n, max_size=n)))
        entries.append((f"c{k}", draw(st.sampled_from(ROLES)), draw(st.sampled_from(CARRIERS)),
                        kind, data))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n_vars, max_size=n_vars))
    return n, n_vars, entries, values


def _series(kind, data):
    """The series as the ledger gets it, and as RefLinExpr."""
    if kind == "exprs":
        return ([LinExpr(terms, k) for terms, k in data],
                [RefLinExpr(terms, k) for terms, k in data])
    if kind == "constants":
        return ExprBlock.constants(data), [RefLinExpr(const=k) for k in data]
    cols, ks = data
    if kind == "columns":
        return ExprBlock.columns(cols, const=ks), [RefVar(c) + k for c, k in zip(cols, ks)]
    return ExprBlock.scaled(cols, ks), [RefVar(c) * k for c, k in zip(cols, ks)]


def _hex_terms(terms: dict):
    return sorted((vid, c.hex()) for vid, c in terms.items())


@settings(max_examples=300, deadline=None)
@given(ledgers())
# 0.5 x as a heat source and 0.5 x as a heat sink cancel to 0.0: no term
@example((1, 2, [("a", "source", "heat", "scaled", ([0], [0.5])),
                 ("b", "sink", "heat", "exprs", [({0: 0.5}, 0.0)]),
                 ("c", "source", "heat", "columns", ([1], [0.0]))], [1.0, 2.0]))
def test_balances_objective_and_schedule_match_the_linexpr_sums(case):
    n, n_vars, entries, values = case
    model = Model()
    for j in range(n_vars):
        model.continuous(f"x{j}")
    ledger = BalanceLedger(TimeGrid(n, 1.0))
    power = {c: ([], []) for c in CARRIERS}
    financial = {"input": [], "output": []}
    states = []  # (name, reference series) in registration order
    for name, role, carrier, kind, data in entries:
        series, ref = _series(kind, data)
        if role in ("source", "sink"):
            ledger.add_power(carrier, role, name, series)
            power[carrier][role == SINK].append(ref)
            states.append((f"{SERIES_PREFIX[(carrier, role)]}_{name}", ref))
        elif role == "state":
            ledger.add_state(name, series)
            states.append((name, ref))
        else:
            ledger.add_financial(role, name, series)
            financial[role].append(ref)
            states.append((f"financial{role.title()}_{name}", ref))

    # the states read back as the expressions registered
    assert [(name, [(list(e.terms.items()), e.const.hex()) for e in exprs])
            for name, exprs in ledger.states] == [
        (name, [(list(r.terms.items()), r.const.hex()) for r in ref]) for name, ref in states]

    rows = balances_reference(power, n)
    forced = [r for r in rows if not r[1] and abs(r[2]) > 1e-12]
    if forced:
        with pytest.raises(StructuralInfeasibility, match=forced[0][0].split(".")[1]):
            build_balances(model, ledger)
        return
    build_balances(model, ledger)
    assert [(c.tag, _hex_terms(c.terms), c.sense, c.rhs.hex()) for c in model.constraints] == [
        (tag, _hex_terms(terms), "=", rhs.hex()) for tag, terms, rhs in rows]

    build_objective(model, ledger)
    obj = objective_reference(financial["input"], financial["output"])
    assert _hex_terms(model.objective.terms) == _hex_terms(obj.terms)
    assert model.objective.const.hex() == obj.const.hex()

    solution = Solution("optimal", 0.0, x=np.array(values, dtype=float))
    got = extract_schedule(ledger, solution).series
    assert list(got) == [name for name, _ in states]
    for name, ref in states:
        assert [v.hex() for v in got[name]] == [extract_reference(r, values).hex() for r in ref]

