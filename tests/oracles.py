"""Independent reference implementations used by the test suite.

Everything in here deliberately avoids the package's model builders: results
are computed by enumeration, sequential simulation, or numeric integration so
they can serve as ground truth for the MILP formulations.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from besched.errors import ModelError
from besched.milp import EQ, GE, LE, Model

INF = math.inf


# ---------------------------------------------------------------------------
# brute-force MILP reference


def _row_ok(activity, sense, rhs, tol=1e-9):
    if sense == LE:
        return activity <= rhs + tol
    if sense == GE:
        return activity >= rhs - tol
    return abs(activity - rhs) <= tol


def brute_force_solve(model: Model):
    """Minimize by enumerating every integer assignment.

    Continuous variables left after fixing the integers are handled with
    scipy's LP solver.  Returns (status, objective, values-by-name) where
    status is "optimal" or "infeasible".
    """
    int_vars = [v for v in model.vars if v.domain.is_integral]
    cont_vars = [v for v in model.vars if not v.domain.is_integral]
    ranges = []
    for v in int_vars:
        lo, hi = int(math.ceil(v.domain.lo)), int(math.floor(v.domain.hi))
        if lo > hi:
            return "infeasible", math.nan, {}
        ranges.append(range(lo, hi + 1))

    # rows over integer columns alone are checked before any LP is set up
    integral = {v.id for v in int_vars}
    int_rows = [(con.terms.items(), con.sense, con.rhs) for con in model.constraints
                if con.terms.keys() <= integral]
    best_obj = math.inf
    best = None
    for combo in itertools.product(*ranges):
        fixed = {v.id: float(val) for v, val in zip(int_vars, combo)}
        if not all(_row_ok(sum(c * fixed[vid] for vid, c in terms), sense, rhs)
                   for terms, sense, rhs in int_rows):
            continue
        if cont_vars:
            res = _lp_over_continuous(model, fixed, cont_vars)
            if res is None:
                continue
            obj, cont_vals = res
            values = dict(fixed)
            values.update(cont_vals)
        else:
            values = fixed
            obj = model.objective.const + sum(
                c * fixed[vid] for vid, c in model.objective.terms.items()
            )
        if obj < best_obj - 1e-12:
            best_obj = obj
            best = values
    if best is None:
        return "infeasible", math.nan, {}
    return "optimal", best_obj, {model.vars[vid].name: val for vid, val in best.items()}


def _lp_over_continuous(model: Model, fixed: dict, cont_vars):
    from scipy.optimize import linprog

    col = {v.id: j for j, v in enumerate(cont_vars)}
    n = len(cont_vars)
    c = np.zeros(n)
    for vid, coef in model.objective.terms.items():
        if vid in col:
            c[col[vid]] = coef
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in model.constraints:
        row = np.zeros(n)
        shift = 0.0
        for vid, coef in con.terms.items():
            if vid in col:
                row[col[vid]] = coef
            else:
                shift += coef * fixed[vid]
        rhs = con.rhs - shift
        if not row.any():
            if not _row_ok(shift, con.sense, con.rhs):
                return None
            continue
        if con.sense == LE:
            a_ub.append(row), b_ub.append(rhs)
        elif con.sense == GE:
            a_ub.append(-row), b_ub.append(-rhs)
        else:
            a_eq.append(row), b_eq.append(rhs)
    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(v.domain.lo if v.domain.lo != -INF else None,
                 v.domain.hi if v.domain.hi != INF else None) for v in cont_vars],
        method="highs",
    )
    if res.status != 0:
        return None
    obj = float(res.fun) + model.objective.const
    obj += sum(coef * fixed[vid] for vid, coef in model.objective.terms.items()
               if vid not in col)
    return obj, {v.id: float(res.x[j]) for v, j in ((v, col[v.id]) for v in cont_vars)}


def random_milp(rng: np.random.Generator, max_binaries=12, max_rows=30) -> Model:
    """A small random MILP with binaries, a few continuous vars, mixed senses.

    Rows are anchored around a random reference point so most instances are
    feasible; whether the reference point is optimal is up to the solver.
    """
    m = Model("random")
    nb = int(rng.integers(2, max_binaries + 1))
    nc = int(rng.integers(0, 3))
    bins = [m.binary(f"b{j}") for j in range(nb)]
    conts = [m.continuous(f"u{j}", 0.0, float(rng.integers(1, 10))) for j in range(nc)]
    allv = bins + conts
    ref = [float(rng.integers(0, 2)) for _ in bins]
    ref += [float(rng.integers(0, int(v.domain.hi) + 1)) for v in conts]
    obj = sum((v * float(rng.integers(-9, 10)) for v in allv), start=bins[0] * 0.0)
    m.set_objective(obj)
    n_rows = int(rng.integers(1, max_rows + 1))
    for r in range(n_rows):
        picks = rng.choice(len(allv), size=min(len(allv), int(rng.integers(1, 5))),
                           replace=False)
        coefs = {int(j): float(rng.integers(-5, 6)) for j in picks}
        expr = sum((allv[j] * c for j, c in coefs.items()), start=bins[0] * 0.0)
        anchor = sum(c * ref[j] for j, c in coefs.items())
        sense = (LE, GE, EQ)[int(rng.integers(0, 3))]
        if sense == LE:
            rhs = anchor + float(rng.integers(0, 4))
        elif sense == GE:
            rhs = anchor - float(rng.integers(0, 4))
        else:
            rhs = anchor
        m.add_constraint(expr, sense, rhs, f"rand.r={r}")
    return m


def propagate_bounds(model: Model, tol=1e-9):
    """Row-by-row activity bound propagation, repeated until no bound moves.

    Plain-Python reference for the solver's whole-matrix presolve: sweeps the
    rows in model order and lets each tightening act on the rows after it.
    Returns (feasible, lo, hi) as lists.
    """
    lo = [v.domain.lo for v in model.vars]
    hi = [v.domain.hi for v in model.vars]
    integral = [v.domain.is_integral for v in model.vars]
    changed = True
    while changed:
        changed = False
        if any(a > b + tol for a, b in zip(lo, hi)):
            return False, lo, hi
        for con in model.constraints:
            terms = [(j, c, c * lo[j] if c > 0 else c * hi[j], c * hi[j] if c > 0 else c * lo[j])
                     for j, c in con.terms.items()]
            min_act = sum(t[2] for t in terms)
            max_act = sum(t[3] for t in terms)
            if con.sense != GE and min_act > con.rhs + 1e-7:
                return False, lo, hi
            if con.sense != LE and max_act < con.rhs - 1e-7:
                return False, lo, hi
            for j, c, t_min, t_max in terms:
                if c == 0:
                    continue
                caps = []
                if con.sense != GE and math.isfinite(min_act):
                    caps.append(((con.rhs - (min_act - t_min)) / c, c > 0))
                if con.sense != LE and math.isfinite(max_act):
                    caps.append(((con.rhs - (max_act - t_max)) / c, c < 0))
                for cap, is_upper in caps:
                    if is_upper and cap < hi[j] - tol:
                        hi[j] = cap
                        changed = True
                    elif not is_upper and cap > lo[j] + tol:
                        lo[j] = cap
                        changed = True
        if changed:
            for j, is_int in enumerate(integral):
                if is_int:
                    lo[j] = math.ceil(lo[j] - 1e-6)
                    hi[j] = math.floor(hi[j] + 1e-6)
    return not any(a > b + tol for a, b in zip(lo, hi)), lo, hi


# ---------------------------------------------------------------------------
# switching-pattern feasibility and fcCHP state simulation


def derive_events(x, x_0):
    """start/stop lists implied by an on/off pattern."""
    start, stop = [], []
    prev = x_0
    for xi in x:
        start.append(1 if xi == 1 and prev == 0 else 0)
        stop.append(1 if xi == 0 and prev == 1 else 0)
        prev = xi
    return start, stop


def pattern_feasible(x, x_0, hist_start, hist_stop, on_min, on_max, off_min, l_0):
    """Run-length check of minimum/maximum durations, including history.

    Mirrors the paper's semantics: a start pins the unit on for on_min units,
    a stop pins it off for off_min units, and every stop inside the horizon
    closes an operation block of at most on_max units (blocks still running at
    the horizon end are unchecked).
    """
    n = len(x)
    start, stop = derive_events(x, x_0)

    def x_at(i):
        return x[i - 1] if i >= 1 else x_0

    starts = [j for j, v in hist_start.items() if v == 1]
    starts += [i for i in range(1, n + 1) if start[i - 1] == 1]
    stops = [j for j, v in hist_stop.items() if v == 1]
    stops += [i for i in range(1, n + 1) if stop[i - 1] == 1]

    for s in starts:
        for i in range(max(s, 1), min(s + on_min - 1, n) + 1):
            if x_at(i) != 1:
                return False
    for s in stops:
        for i in range(max(s, 1), min(s + off_min - 1, n) + 1):
            if x_at(i) != 0:
                return False
    last_change = l_0
    for i in range(1, n + 1):
        if stop[i - 1] == 1 and i - last_change > on_max:
            return False
        if start[i - 1] == 1 or stop[i - 1] == 1:
            last_change = i
    return True


def warmup_lookup(table, downtime):
    idx = min(downtime, len(table)) - 1
    return int(table[idx])


def simulate_fcchp(x, init, table, start_up, lower_init, cold_threshold):
    """Sequential replay of the plant state machine for a fixed on/off pattern.

    `init` carries x_0, y_0, z_0, k_0, l_0, r_0, w_0.  Returns per-unit series
    l, r, w, k, y, sw (stopWarmUp), z, s or None when the pattern cannot be
    completed consistently (e.g. a production trigger while already producing).
    """
    n = len(x)
    start, stop = derive_events(x, init.x_0)

    # pre-horizon stopWarmUp events implied by the declared state
    hist_sw = {}
    if init.x_0 == 1 and init.y_0 == 0:
        hist_sw[init.r_0 + init.w_0] = 1
    elif init.x_0 == 0 and init.r_0 < init.l_0:
        hist_sw[min(init.r_0 + init.w_0, init.l_0)] = 1

    l, r, w, k, y, sw, z, s = [], [], [], [], [], [], [], []
    lp, rp, wp, kp, yp, zp = init.l_0, init.r_0, init.w_0, init.k_0, init.y_0, init.z_0
    warm_end = rp + wp if yp == 1 else None

    for i in range(1, n + 1):
        st, sp = start[i - 1], stop[i - 1]
        if st:
            downtime = i - lp
            ki = 1 if downtime > cold_threshold else 0
            wi = warmup_lookup(table, downtime)
            li = ri = i
            warm_end = i + wi
        else:
            li = i if sp else lp
            ri = rp
            wi = wp
            # a pending cold-start flag survives until the next state change
            ki = kp if li < i else 0
        if x[i - 1] == 0 and warm_end is not None and i < warm_end:
            return None  # a warm-up cannot be abandoned by stopping early
        yi = 1 if (x[i - 1] == 1 and warm_end is not None and i < warm_end) else 0
        if st:
            yi = 1  # the start unit itself warms up (w >= 1 guarantees i < warm_end)
        swi = 1 if yp == 1 and yi == 0 else 0
        if swi:
            warm_end = None

        def sw_at(j):
            if j >= 1:
                return sw[j - 1] if j <= len(sw) else (swi if j == i else 0)
            return hist_sw.get(j, 0)

        if sp and zp == 0:
            return None  # stopping is only possible from the production phase
        trigger = sw_at(i - start_up)
        if trigger and zp == 1:
            return None  # production trigger while already producing
        if trigger and sp:
            return None  # trigger and stop collide
        zi = 1 if trigger else (0 if sp else zp)
        if zi == 1 and x[i - 1] == 0:
            return None
        si = sum(sw_at(i - j + 1) for j in range(1, lower_init + 1))

        l.append(li), r.append(ri), w.append(wi), k.append(ki)
        y.append(yi), sw.append(swi), z.append(zi), s.append(si)
        lp, rp, wp, kp, yp, zp = li, ri, wi, ki, yi, zi
    return {"l": l, "r": r, "w": w, "k": k, "y": y, "sw": sw, "z": z, "s": s}


# ---------------------------------------------------------------------------
# numeric start-up profile integration


def profile_average_numeric(t0, t1, p_init, p_start_up, d_init, d_start_up, samples=200000):
    """Mean of the start-up power profile over [t0, t1] hours by midpoint rule."""

    def power(t):
        if t <= d_init:
            return p_init
        if t >= d_start_up:
            return p_start_up
        frac = (t - d_init) / (d_start_up - d_init)
        return p_init + frac * (p_start_up - p_init)

    ts = np.linspace(t0, t1, samples + 1)
    mids = (ts[:-1] + ts[1:]) / 2.0
    return float(np.mean([power(t) for t in mids]))


# ---------------------------------------------------------------------------
# storage level replay


def storage_replay(initial, charge, discharge, dt, loss_per_hour=0.0,
                   eta_charge=1.0, eta_discharge=1.0):
    levels = []
    level = initial
    for c, d in zip(charge, discharge):
        level = level * (1.0 - loss_per_hour * dt) + (c * eta_charge - d / eta_discharge) * dt
        levels.append(level)
    return levels


# ---------------------------------------------------------------------------
# greedy heat-pump baseline (charge at night, track demand during the day)


def greedy_heatpump_energy(demand, cop, elec_power, dt, level0, max_level, night):
    """Electric energy of a rule-based controller: at night run the pump
    whenever the buffer can absorb the surplus, during the day run it only
    when the buffer would otherwise run dry.  Raises if the rule itself
    cannot cover the demand."""
    level = level0
    energy = 0.0
    for i, d in enumerate(demand):
        heat = elec_power * cop[i]
        if night[i]:
            on = level + (heat - d) * dt <= max_level + 1e-9
        else:
            on = level - d * dt < -1e-9
        if not on and level - d * dt < -1e-9:
            on = True  # never let the buffer run dry, whatever the time of day
        supply = heat if on else 0.0
        level += (supply - d) * dt
        if level < -1e-9:
            raise AssertionError(f"baseline cannot cover demand at unit {i + 1}")
        energy += (elec_power if on else 0.0) * dt
    return energy


# ---------------------------------------------------------------------------
# LP-file parser + independent MILP solve of the parsed file


_SENSES = {"<=": LE, ">=": GE, "=": EQ, "<": LE, ">": GE}


def parse_lp(text: str):
    """Parse the CPLEX LP subset the package emits.

    Returns dict with keys: objective {name: coef}, rows [(terms, sense, rhs)],
    bounds {name: (lo, hi)}, integers set, binaries set.
    """
    section = None
    objective = {}
    rows = []
    bounds = {}
    integers, binaries = set(), set()
    names = []

    def parse_terms(body):
        terms = {}
        for sign, coef, name in re.findall(r"([+-]?)\s*([0-9.eE+-]*)\s*([A-Za-z_][\w]*)", body):
            c = float(coef) if coef not in ("", "+", "-") else 1.0
            if sign == "-":
                c = -c
            terms[name] = terms.get(name, 0.0) + c
            if name not in bounds:
                names.append(name)
                bounds[name] = (0.0, INF)  # LP-format default
        return terms

    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in ("minimize", "maximize", "subject to", "bounds", "general",
                   "binary", "end", "st", "s.t."):
            section = low
            continue
        if section == "minimize":
            body = line.split(":", 1)[-1]
            objective.update(parse_terms(body))
        elif section == "subject to":
            body = line.split(":", 1)[-1]
            mm = re.search(r"(<=|>=|=|<|>)\s*([-+0-9.eE]+)\s*$", body)
            terms = parse_terms(body[: mm.start()])
            rows.append((terms, _SENSES[mm.group(1)], float(mm.group(2))))
        elif section == "bounds":
            if line.endswith(" free"):
                bounds[line[:-5].strip()] = (-INF, INF)
            elif "<=" in line:
                lo_s, name, hi_s = [p.strip() for p in line.split("<=")]
                lo = -INF if lo_s == "-inf" else float(lo_s)
                hi = INF if hi_s == "+inf" else float(hi_s)
                bounds[name] = (lo, hi)
            elif "=" in line:
                name, v = [p.strip() for p in line.split("=")]
                bounds[name] = (float(v), float(v))
        elif section == "general":
            integers.add(line)
        elif section == "binary":
            binaries.add(line)
            bounds[line] = (0.0, 1.0)
    return {"objective": objective, "rows": rows, "bounds": bounds,
            "integers": integers, "binaries": binaries, "names": names}


def solve_parsed_lp(parsed):
    """Solve a parse_lp result with scipy's independent MILP solver."""
    from scipy.optimize import milp, LinearConstraint, Bounds
    from scipy import sparse

    names = parsed["names"]
    col = {n: j for j, n in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for name, coef in parsed["objective"].items():
        c[col[name]] = coef
    lo = np.array([parsed["bounds"][nm][0] for nm in names])
    hi = np.array([parsed["bounds"][nm][1] for nm in names])
    integrality = np.array(
        [1 if nm in parsed["integers"] or nm in parsed["binaries"] else 0 for nm in names]
    )
    a, lb, ub = [], [], []
    for terms, sense, rhs in parsed["rows"]:
        row = np.zeros(n)
        for name, coef in terms.items():
            row[col[name]] = coef
        a.append(row)
        lb.append(rhs if sense in (GE, EQ) else -INF)
        ub.append(rhs if sense in (LE, EQ) else INF)
    cons = [LinearConstraint(sparse.csr_matrix(np.array(a)), np.array(lb), np.array(ub))]
    res = milp(c, constraints=cons, bounds=Bounds(lo, hi), integrality=integrality)
    if res.status != 0:
        return None, None
    values = {nm: float(res.x[col[nm]]) for nm in names}
    return float(res.fun), values


# ---------------------------------------------------------------------------
# linear expression arithmetic: a plain copy-per-operation reference


class RefLinExpr:
    """Linear expression arithmetic as first written: every operation copies,
    subtraction adds the negated copy ``other * -1.0``.  The package's
    ``LinExpr`` must give bit-equal ``terms`` (in the same order) and
    ``const`` on every program of these operations."""

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=0.0):
        self.terms = dict(terms) if terms else {}
        self.const = float(const)

    def copy(self):
        return RefLinExpr(self.terms, self.const)

    def __add__(self, other):
        out = self.copy()
        if isinstance(other, RefLinExpr):
            for vid, c in other.terms.items():
                nc = out.terms.get(vid, 0.0) + c
                if nc == 0.0:
                    out.terms.pop(vid, None)
                else:
                    out.terms[vid] = nc
            out.const += other.const
        elif isinstance(other, RefVar):
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
        if isinstance(other, (RefLinExpr, RefVar)):
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
            return RefLinExpr()
        return RefLinExpr({v: c * scalar for v, c in self.terms.items()}, self.const * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


class RefVar:
    """A variable handle for :class:`RefLinExpr`: every operation goes
    through a one-term expression."""

    def __init__(self, vid: int):
        self.id = vid

    def expr(self):
        return RefLinExpr({self.id: 1.0})

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


# ---------------------------------------------------------------------------
# balances, objective and extraction as first written, over RefLinExpr


def balances_reference(power: dict, n: int) -> list:
    """The carrier balances summed one expression at a time.

    ``power`` maps each carrier, in the order rows are emitted, to its
    (sources, sinks): lists of series of ``RefLinExpr``.  Per unit the
    sources are added and the sinks subtracted, one copy per step.  Returns
    (tag, terms, rhs) per row, the rhs as ``add_constraint`` folds the
    constant into it.
    """
    rows = []
    for carrier, (sources, sinks) in power.items():
        if not sources and not sinks:
            continue
        for i in range(n):
            net = RefLinExpr()
            for series in sources:
                net = net + series[i]
            for series in sinks:
                net = net - series[i]
            rows.append((f"balance.{carrier}.i={i + 1}", net.terms, 0.0 - net.const))
    return rows


def objective_reference(inputs: list, outputs: list) -> RefLinExpr:
    """Total costs minus total yields, series by series and unit by unit."""
    obj = RefLinExpr()
    for series in inputs:
        for e in series:
            obj = obj + e
    for series in outputs:
        for e in series:
            obj = obj - e
    return obj


def extract_reference(expr: RefLinExpr, x) -> float:
    """A schedule value: the products added in term order, then the
    constant, rounded by Python's ``round(v, 12)``."""
    total = 0.0
    for vid, c in expr.terms.items():
        total += c * x[vid]
    return round(total + expr.const, 12)


# ---------------------------------------------------------------------------
# LP export: the first, per-name and per-term version of ``milp.export_lp``

_LEGAL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_EXPONENT_LIKE = re.compile(r"[eE][0-9.]")


def _sanitize_names_reference(model: Model):
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


def _num_reference(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".17g")


def _terms_text_reference(terms: dict, names: dict) -> str:
    parts = []
    for vid in sorted(terms):
        c = terms[vid]
        sign = "-" if c < 0 else "+"
        if not parts and sign == "+":
            parts.append(f"{_num_reference(abs(c))} {names[vid]}")
        else:
            parts.append(f"{sign} {_num_reference(abs(c))} {names[vid]}")
    return " ".join(parts)


def export_lp_reference(model: Model):
    """Returns (text, name_map) as ``milp.export_lp`` must produce them."""
    names, renamed = _sanitize_names_reference(model)
    used = set(model.objective.terms)
    for c in model.constraints:
        used.update(c.terms)

    lines = ["\\ " + model.name, "Minimize"]
    obj = _terms_text_reference(model.objective.terms, names)
    orphan = " ".join(f"+ 0 {names[v.id]}" for v in model.vars if v.id not in used)
    if not obj and not orphan and model.vars:
        obj = f"0 {names[0]}"
    lines.append(" obj: " + " ".join(x for x in (obj, orphan) if x))

    lines.append("Subject To")
    for c in model.constraints:
        body = _terms_text_reference(c.terms, names)
        if not body:
            if not model.vars:
                raise ModelError("cannot export a constraint over an empty variable set")
            body = f"0 {names[0]}"
        lines.append(f" c{c.id}: {body} {c.sense} {_num_reference(c.rhs)}")

    bounds = []
    generals = []
    binaries = []
    for v in model.vars:
        d = v.domain
        n = names[v.id]
        if d.kind == "binary":
            binaries.append(n)
            continue
        if d.kind == "integer":
            generals.append(n)
        if d.lo == -INF and d.hi == INF:
            bounds.append(f" {n} free")
        elif d.lo == d.hi:
            bounds.append(f" {n} = {_num_reference(d.lo)}")
        elif d.lo == 0.0 and d.hi == INF:
            pass
        else:
            lo = "-inf" if d.lo == -INF else _num_reference(d.lo)
            hi = "+inf" if d.hi == INF else _num_reference(d.hi)
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
    return "\n".join(lines) + "\n", renamed
