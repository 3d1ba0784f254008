"""Fuel-cell CHP sub-model: on/off state chains, warm-up and start-up phase
timing, production band with ramp limit, and the per-unit cost equation.

The plant runs through stand-by, warm-up (duration a function of the
preceding downtime, longer after a cold start), a start-up ramp with known
discrete power steps, a modulated production phase, and a shut-down phase
with an electric power peak.  Everything is expressed as binaries plus
bounded integer trackers; the nonlinear recursions are expanded through the
reformulations in :mod:`besched.linearize`, whose McCormick rows of a binary
times a tracker come from one writer there.

``transition_rows`` ties a binary state to the events that begin and end it:
the on/off chain (``build_onoff_chain``, shared with heat pumps and mechanical
CHPs), the warm-up and the production phase.  Windows of past events read the
replayed history before unit 1 (``OnOffChain.start_at``, ``FcchpBuilder.sw_at``).

Every row has one form: no row is formed with the ``LinExpr`` operators.  A
row's columns come from the ``Var`` ids, its float operands fold into the
right-hand side, and each call of ``transition_rows`` and
``build_min_durations``, and each build step of ``FcchpBuilder``, gathers
all its rows in one ``milp.RowList`` and stores them with one
``Model.append_rows`` call (``RowList.store``).  The steps add theirs with
``RowList.add``, with operands as (terms, constant) pairs
(``linearize._operand``); the two functions, whose rows repeat one fixed
layout per unit, extend ``append_rows``' six lists in the ``RowList`` from
that layout and form no term dict per row.  Each coefficient and rhs takes
the float operations of the operator chain it stands for; where two operands
share a column they merge by ``milp._add_terms`` (``linearize._difference``),
and the store's rule refuses a row that holds a column twice.  The operator
chains are kept as the reference in ``tests/test_row_builders.py``.  The
ledger series (thermal, electric, primary power and the financial input)
are expressions, not rows, and stay ``LinExpr``.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import add

from .assembly import ELECTRIC, HEAT, BalanceLedger, TimeGrid, check_finite_powers
from .errors import InconsistentHistory, ModelError
from .linearize import (
    _difference,
    bool_and,
    gated_column,
    product_bin_bounded,
    product_inequality,
    record_bigm,
    select_interval_gated,
)
from .milp import LinExpr, Model, RowList, Var, _EQ, _GE, _LE

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class FcchpPhysicalParams:
    """Constant plant characteristics.  Powers in kW, durations in hours."""

    eta_th: float
    eta_el: float
    p_th_max: float
    p_th_min: float
    p_th_init: float
    p_th_start_up: float
    d_on_min: float
    d_on_max: float
    d_off_min: float
    d_init: float
    d_start_up: float
    d_down: float
    # warm-up duration in time units by downtime in time units: a sequence of
    # the values at downtime 1, 2, ...; the last one holds for longer downtimes
    warmup_table: tuple = ()
    p_el_stand_by: float = 0.0
    p_el_warm_up: float = 0.0
    p_el_cold_start: float = 0.0
    p_el_add_shut_down: float = 0.0
    p_pr_warm_up: float = 0.0
    p_pr_cold_start: float = 0.0
    delta_p_th_prod: float = math.inf  # kW per hour
    cold_start_threshold: int = 1  # downtime in units beyond which a start is cold
    name: str = "fcCHP"  # the plant's id, which every error names

    def __post_init__(self):
        if not (0 < self.eta_th < 1 and 0 < self.eta_el < 1):
            raise self._error("efficiencies must lie strictly between 0 and 1")
        if self.eta_th + self.eta_el >= 1:
            raise self._error("eta_th + eta_el must be below 1")
        # the ramp limit delta_p_th_prod may be inf: no ramp rows
        check_finite_powers({
            "maxThermalPower": self.p_th_max, "minThermalPower": self.p_th_min,
            "initThermalPower": self.p_th_init, "startUpThermalPower": self.p_th_start_up,
            "standByElectricPower": self.p_el_stand_by, "warmUpElectricPower": self.p_el_warm_up,
            "coldStartElectricPower": self.p_el_cold_start,
            "addShutDownElectricPower": self.p_el_add_shut_down,
            "warmUpPrimaryPower": self.p_pr_warm_up, "coldStartPrimaryPower": self.p_pr_cold_start,
        }, self.name)
        if not (self.p_th_init <= self.p_th_min < self.p_th_start_up <= self.p_th_max):
            raise self._error(
                "thermal levels must satisfy P_init <= P_min < P_startUp <= P_max, got "
                f"{self.p_th_init}, {self.p_th_min}, {self.p_th_start_up}, {self.p_th_max}"
            )
        for label in ("d_on_min", "d_on_max", "d_off_min", "d_init", "d_start_up", "d_down"):
            if not (getattr(self, label) > 0):
                raise self._error(f"duration {label} must be positive")
        if self.d_init > self.d_start_up:
            raise self._error("d_init must not exceed d_start_up")
        if not self.warmup_table:
            raise self._error("a non-empty warm-up duration table is required")
        if not (self.cold_start_threshold > 0):
            raise self._error("cold-start downtime threshold must be positive")
        if not (self.delta_p_th_prod > 0):
            raise self._error("production ramp limit must be positive")

    def _error(self, message: str) -> ModelError:
        return ModelError(f"{self.name}: {message}")

    def warmup_units(self, downtime_units: int) -> int:
        """f(downtime), clipped to the last supporting value for long downtimes."""
        table = self.warmup_table
        v = table[min(downtime_units, len(table)) - 1]
        iv = int(round(v))
        if iv < 1 or abs(iv - v) > 1e-9:
            raise self._error(
                f"warm-up duration f({downtime_units}) = {v} is not a positive integer")
        return iv


@dataclass(frozen=True)
class FcchpCostParams:
    """Per-unit operating costs.  Prices in ct/kWh, fixed costs in ct."""

    primary_price: tuple  # one entry per time unit
    k_on: float = 0.0
    k_off: float = 0.0
    k_warm_up: float = 0.0
    k_cold_start: float = 0.0
    k_prod: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "primary_price", tuple(float(p) for p in self.primary_price))
        vals = list(self.primary_price) + [
            self.k_on, self.k_off, self.k_warm_up, self.k_cold_start, self.k_prod
        ]
        if not all(math.isfinite(v) for v in vals):
            raise ModelError("all cost parameters must be finite")


@dataclass(frozen=True)
class FcchpInitialState:
    """Plant status immediately before unit 1 of the horizon.

    l_0 is the time unit of the last start or stop, r_0 of the last start,
    w_0 the warm-up duration picked at that start.  start_history maps
    non-positive time units to historical start flags; absent units are 0.
    """

    x_0: int = 0
    y_0: int = 0
    z_0: int = 0
    k_0: int = 0
    l_0: int = 0
    r_0: int = 0
    w_0: int = 1
    start_history: dict = field(default_factory=dict)

    def __post_init__(self):
        for flag in ("x_0", "y_0", "z_0", "k_0"):
            if getattr(self, flag) not in (0, 1):
                raise ModelError(f"{flag} must be 0 or 1")
        if self.l_0 > 0 or self.r_0 > 0:
            raise ModelError("l_0 and r_0 must be non-positive time units")
        if self.w_0 < 0:
            raise ModelError("w_0 must be non-negative")
        if self.y_0 == 1 and self.x_0 == 0:
            raise InconsistentHistory("warming up (y_0 = 1) requires the plant on (x_0 = 1)")
        if self.z_0 == 1 and self.x_0 == 0:
            raise InconsistentHistory("producing (z_0 = 1) requires the plant on (x_0 = 1)")
        if self.y_0 == 1 and self.z_0 == 1:
            raise InconsistentHistory("warm-up and production cannot overlap (y_0 = z_0 = 1)")
        for j, v in self.start_history.items():
            if j > 0:
                raise ModelError(f"start history carries a positive time unit {j}")
            if v not in (0, 1):
                raise ModelError(f"start history value at {j} must be 0 or 1")


@dataclass(frozen=True)
class FcchpUnitParams:
    """Durations converted to whole time units and discretized power steps."""

    on_min: int
    on_max: int
    off_min: int
    lower_init: int
    start_up: int
    p_th_up: tuple  # thermal start-up step per unit, length start_up
    p_pr_up: tuple
    p_el_down: tuple  # electric shut-down step per unit over the shut-down units


def _profile_average(t0: float, t1: float, phys: FcchpPhysicalParams) -> float:
    """Mean thermal power of the start-up profile over [t0, t1] hours.

    Profile: P_init from 0 to d_init, linear rise to P_startUp at d_start_up,
    constant afterwards.
    """

    def integral(t: float) -> float:
        # cumulative integral of the profile from 0 to t
        area = phys.p_th_init * min(t, phys.d_init)
        if t > phys.d_init:
            span = phys.d_start_up - phys.d_init
            # span = 0 means the jump lands directly on P_startUp; the part
            # beyond d_start_up is accounted for below
            if span > 0:
                u = min(t, phys.d_start_up) - phys.d_init
                slope = (phys.p_th_start_up - phys.p_th_init) / span
                area += phys.p_th_init * u + 0.5 * slope * u * u
        if t > phys.d_start_up:
            area += phys.p_th_start_up * (t - phys.d_start_up)
        return area

    return (integral(t1) - integral(t0)) / (t1 - t0)


def derive_unit_params(phys: FcchpPhysicalParams, grid: TimeGrid,
                       name: str = "fcCHP") -> FcchpUnitParams:
    """Convert hour-based plant durations to the grid and build power steps.
    ``name`` is the plant's id; an error names it and the duration's XML
    attribute."""
    on_min = grid.units_ceil(phys.d_on_min, f"{name}.minOnTimeInHours")
    on_max = grid.units_ceil(phys.d_on_max, f"{name}.maxOnTimeInHours")
    off_min = grid.units_ceil(phys.d_off_min, f"{name}.minOffTimeInHours")
    if on_min > grid.n_units:
        raise ModelError(
            f"minimum operating time of {on_min} units exceeds the {grid.n_units}-unit horizon"
        )
    if on_max < on_min:
        raise ModelError("maximum operating time is below the minimum operating time")
    lower_init = grid.units_floor(phys.d_init, f"{name}.initDurationInHours")
    start_up = max(grid.units_ceil(phys.d_start_up, f"{name}.startUpDurationInHours"), 1)
    shut_down = max(grid.units_ceil(phys.d_down, f"{name}.shutDownDurationInHours"), 1)

    dt = grid.hours_per_unit
    p_th_up = tuple(_profile_average(k * dt, (k + 1) * dt, phys) for k in range(start_up))
    p_pr_up = tuple(p / phys.eta_th for p in p_th_up)

    p_el_down = []
    for k in range(shut_down):
        covered = min(phys.d_down, (k + 1) * dt) - k * dt
        p_el_down.append(phys.p_el_add_shut_down * max(covered, 0.0) / dt)

    return FcchpUnitParams(
        on_min=on_min,
        on_max=on_max,
        off_min=off_min,
        lower_init=lower_init,
        start_up=start_up,
        p_th_up=p_th_up,
        p_pr_up=p_pr_up,
        p_el_down=tuple(p_el_down),
    )


# ---------------------------------------------------------------------------
# shared on/off machinery


@dataclass
class OnOffChain:
    """Switching state of one component over the horizon (1-based access)."""

    x: list
    start: list
    stop: list
    x_0: int
    hist_start: dict
    hist_stop: dict

    def start_at(self, i: int):
        return self.start[i - 1] if i >= 1 else float(self.hist_start.get(i, 0))

    def stop_at(self, i: int):
        return self.stop[i - 1] if i >= 1 else float(self.hist_stop.get(i, 0))


# The rows of one unit of ``transition_rows``: (suffix, sense code, terms).  The
# operands are numbered begin 0, now 1, prev 2, end 3 and on 4; a term is an
# (operand, coefficient) pair, in the order the LinExpr operators add them.
_TRANSITION_ROWS = (
    (".a", _GE, ((0, 1.0), (1, -1.0), (2, 1.0))),  # begin - now + prev >= 0
    (".b", _LE, ((0, 1.0), (1, -1.0))),  # begin - now <= 0
    (".c", _LE, ((0, 1.0), (2, 1.0))),  # begin + prev <= 1
    (".d", _GE, ((3, 1.0), (2, -1.0), (1, 1.0))),  # end - prev + now >= 0
    (".e", _LE, ((3, 1.0), (2, -1.0))),  # end - prev <= 0
    (".f", _LE, ((3, 1.0), (1, 1.0))),  # end + now <= 1
    (".on", _GE, ((4, 1.0), (1, -1.0))),  # on - now >= 0
)


def _transition_layout(numbers: tuple, with_on: bool) -> tuple:
    """The rows of one unit as ``Model.append_rows`` takes them, where
    ``numbers`` flags the begin, prev and end operands that are numbers and
    so write no term: (operand of each term, coefficients, term counts,
    sense codes, tag suffixes)."""
    rows = _TRANSITION_ROWS if with_on else _TRANSITION_ROWS[:-1]
    skip = {k for k, number in zip((0, 2, 3), numbers) if number}
    terms = [[(k, c) for k, c in row if k not in skip] for _, _, row in rows]
    return (tuple(k for row in terms for k, _ in row), tuple(c for row in terms for _, c in row),
            tuple(map(len, terms)), tuple(code for _, code, _ in rows),
            tuple(suffix for suffix, _, _ in rows))


# by (begin a number, prev a number, end a number, with the .on row)
_TRANSITION_LAYOUTS = {key: _transition_layout(key[:3], key[3])
                       for key in product((False, True), repeat=4)}


def _split(x) -> tuple:
    """(column, 0.0) of a Var, (None, x) of a number."""
    return (x.id, 0.0) if isinstance(x, Var) else (None, x)


def transition_rows(model: Model, state: list, state_0: int, begin_at, end_at, tag: str,
                    on: list | None = None) -> None:
    """Tie a binary state (one variable per unit, the constant state_0 before
    unit 1) to the events that begin and end it.

    begin_at and end_at map a unit to a variable or, before the horizon, a
    float.  Rows .a-.c set begin_i = 1 exactly when the state rises from
    unit i-1 to i, rows .d-.f set end_i = 1 exactly when it falls; with on,
    the .on row keeps the state inside on_i = 1.

    Each row's columns and +-1.0 coefficients come straight from the
    ``Var`` ids (``_TRANSITION_ROWS``), the float operands (history events,
    state_0) fold into the rhs, and all rows go into one ``RowList``,
    stored with one ``Model.append_rows`` call.  The rows, tags, order and
    rhs bits are the operator chains' (pinned in
    ``tests/test_row_builders.py``).  A row whose operands share
    a column is refused by the store, naming the row.
    """
    rows = RowList(model)
    cols, coefs, counts, senses, rhs, tags = (rows.cols, rows.coefs, rows.counts, rows.senses,
                                              rows.rhs, rows.tags)
    with_on = on is not None
    o = None
    for i in range(1, len(state) + 1):
        now = state[i - 1].id
        p, P = (state[i - 2].id, 0.0) if i > 1 else (None, float(state_0))
        b, B = _split(begin_at(i))
        e, E = _split(end_at(i))
        if with_on:
            o = on[i - 1].id
        ids = (b, now, p, e, o)
        t = f"{tag}.i={i}"
        idx, row_coefs, row_counts, codes, suffixes = _TRANSITION_LAYOUTS[
            b is None, p is None, e is None, with_on]
        cols.extend([ids[k] for k in idx])
        coefs.extend(row_coefs)
        counts.extend(row_counts)
        senses.extend(codes)
        # a number operand moves to the rhs, a Var adds 0.0 there: the same
        # value as the operators' constant, up to the sign of a zero, which
        # 0.0 - c and 1.0 - c do not keep
        rhs.extend((0.0 - (B + P), 0.0 - B, 1.0 - (B + P), 0.0 - (E - P), 0.0 - (E - P),
                    1.0 - E))
        if with_on:
            rhs.append(0.0)
        tags.extend([t + suffix for suffix in suffixes])
    rows.store()


def build_onoff_chain(model: Model, n: int, x_0: int, hist_start: dict | None = None,
                      hist_stop: dict | None = None, name: str = "unit") -> OnOffChain:
    """Binaries x/start/stop with the six compatibility rows per unit."""
    x = [model.binary(f"{name}.x[{i}]") for i in range(1, n + 1)]
    start = [model.binary(f"{name}.start[{i}]") for i in range(1, n + 1)]
    stop = [model.binary(f"{name}.stop[{i}]") for i in range(1, n + 1)]
    chain = OnOffChain(x, start, stop, int(x_0), dict(hist_start or {}), dict(hist_stop or {}))
    transition_rows(model, x, chain.x_0, chain.start_at, chain.stop_at, f"{name}.startstop")
    return chain


def build_min_durations(model: Model, chain: OnOffChain, on_min: int, off_min: int,
                        name: str = "unit") -> None:
    """Minimum run and downtime rows over sliding windows of past events.

    Row minrun.i reads x_i >= sum of the starts in the on_min - 1 units before
    i, row mindown.i reads x_i + sum of the stops in the off_min - 1 units
    before i <= 1.  With a window of one unit (on_min or off_min of 1) the sum
    is empty and the row is the column's own bound, so it is not emitted.
    Before unit 1 a window sums only the recorded events, as every other unit
    there adds the constant 0: a row costs the recorded events and at most
    the horizon, however long the minimum time.

    x_i and the window's columns come straight from the ``Var`` ids, the
    recorded events are summed from 0.0 in unit order into the rhs, as
    ``LinExpr.accumulate`` sums them, and all rows go into one ``RowList``,
    stored with one ``Model.append_rows`` call.  A row whose operands share
    a column is refused by the store, naming the row.
    """
    x = [v.id for v in chain.x]
    # per family: the window span, the event columns, the recorded event
    # units before unit 1, their values, the events' coefficient, the sense
    # and the bound: x - run >= 0.0 and x + down <= 1.0
    windows = []
    if on_min > 1:
        windows.append(("minrun", on_min, [v.id for v in chain.start],
                        sorted(j for j in chain.hist_start if j < 1), chain.start_at,
                        -1.0, _GE, 0.0))
    if off_min > 1:
        windows.append(("mindown", off_min, [v.id for v in chain.stop],
                        sorted(j for j in chain.hist_stop if j < 1), chain.stop_at,
                        1.0, _LE, 1.0))
    rows = RowList(model)
    cols, coefs, counts, senses, rhs, tags = (rows.cols, rows.coefs, rows.counts, rows.senses,
                                              rows.rhs, rows.tags)
    for i in range(1, len(x) + 1):
        for family, span, events, recorded, event_at, coef, code, bound in windows:
            lo = i - span + 1
            row = [x[i - 1], *events[max(lo, 1) - 1:i - 1]]
            cols.extend(row)
            coefs.append(1.0)
            coefs.extend([coef] * (len(row) - 1))
            counts.append(len(row))
            senses.append(code)
            # the window's constant, then the row's, as the operators form them
            s = reduce(add, map(event_at, recorded[bisect_left(recorded, lo):]), 0.0)
            rhs.append(bound - (0.0 + coef * s))
            tags.append(f"{name}.{family}.i={i}")
    rows.store()


# ---------------------------------------------------------------------------
# history replay


def replay_history(init: FcchpInitialState, up: FcchpUnitParams):
    """Derive historical stop and warm-up-end events from the declared state.

    Returns (hist_stop, hist_stop_warmup), dicts over non-positive units.
    Declared states that no replay can produce raise InconsistentHistory.
    """
    hist_stop: dict = {}
    hist_sw: dict = {}

    for j, v in init.start_history.items():
        if v == 1 and j > init.l_0:
            raise InconsistentHistory(
                f"declared start at unit {j} is later than the last state change l_0 = {init.l_0}"
            )
    if init.x_0 == 1:
        if init.r_0 != init.l_0:
            raise InconsistentHistory(
                "plant on at unit 0: the last change must be the last start (l_0 = r_0), "
                f"got l_0 = {init.l_0}, r_0 = {init.r_0}"
            )
        if init.l_0 in init.start_history and init.start_history[init.l_0] != 1:
            raise InconsistentHistory(f"l_0 = {init.l_0} marks a start but the history denies it")
        warmup_end = init.r_0 + init.w_0
        if init.y_0 == 1:
            if warmup_end <= 0:
                raise InconsistentHistory(
                    "y_0 = 1 but the declared warm-up already ended at unit "
                    f"{warmup_end} (r_0 + w_0)"
                )
        else:
            if warmup_end > 0:
                raise InconsistentHistory(
                    "y_0 = 0 but the declared warm-up runs past unit 0 "
                    f"(r_0 + w_0 = {warmup_end})"
                )
            hist_sw[warmup_end] = 1
            expected_z0 = 1 if warmup_end + up.start_up <= 0 else 0
            if init.z_0 != expected_z0:
                raise InconsistentHistory(
                    f"z_0 = {init.z_0} contradicts the start-up timeline "
                    f"(production begins at unit {warmup_end + up.start_up})"
                )
    else:
        if init.r_0 > init.l_0:
            raise InconsistentHistory(
                f"plant off at unit 0 but the last start r_0 = {init.r_0} is not "
                f"older than the last change l_0 = {init.l_0}"
            )
        if init.r_0 < init.l_0:
            # the plant ran from r_0 to l_0; the stop is a real event
            hist_stop[init.l_0] = 1
            warmup_end = init.r_0 + init.w_0
            # a warm-up cut short by the stop ends at the stop itself
            hist_sw[min(warmup_end, init.l_0)] = 1
        # r_0 == l_0: no recorded operation before the horizon
    return hist_stop, hist_sw


# ---------------------------------------------------------------------------
# builder


class FcchpBuilder:
    """Adds one plant instance to a model; call build() or the steps in order."""

    def __init__(self, model: Model, grid: TimeGrid, phys: FcchpPhysicalParams,
                 costs: FcchpCostParams, init: FcchpInitialState, name: str = "fcCHP"):
        if len(costs.primary_price) != grid.n_units:
            raise ModelError(
                f"primary price series has {len(costs.primary_price)} entries, "
                f"expected {grid.n_units}"
            )
        self.model = model
        self.grid = grid
        self.phys = phys
        self.costs = costs
        self.init = init
        self.name = name
        self.up = derive_unit_params(phys, grid, name)
        self.hist_stop, self.hist_sw = replay_history(init, self.up)
        self.n = grid.n_units
        self.vars: dict = {}
        # f[d - 1] = f(d) at every downtime d that the horizon and the history
        # allow, 1 .. n - l_0: a start at unit n can follow a change at l_0
        self.f = [phys.warmup_units(d) for d in range(1, self.n - init.l_0 + 1)]
        if self.n - init.l_0 > len(phys.warmup_table):
            log.info("warm-up table shorter than the longest downtime; it uses the last value")
        if any(b < a for a, b in zip(self.f, self.f[1:])):
            raise phys._error("warm-up duration table must be monotone non-decreasing")
        # tracker bounds shared by every product expansion below
        self.l_lo = init.l_0
        self.r_lo = init.r_0
        self.w_lo = min(init.w_0, self.f[0])
        self.w_hi = max(init.w_0, self.f[-1])

    # -- values at earlier units ---------------------------------------------

    def _kept(self, rows: RowList, i: int, tracker: list, value_0: int, lo, hi, name: str, tag: str):
        """The tracker's previous value unless a start at unit i resets it:
        (1 - start_i) * tracker_{i-1}, expanded as a product after unit 1.
        Returns it as an operand (terms, constant)."""
        start = self.vars["chain"].start[i - 1]
        if i == 1:  # (1 - start_i) * value_0, no term for a value_0 of 0
            return {start.id: -1.0 * value_0} if value_0 else {}, float(1.0 * value_0)
        v = product_bin_bounded(rows, start, tracker[i - 2], lo, hi, name, tag)
        return {tracker[i - 2].id: 1.0, v.id: -1.0}, 0.0

    def sw_at(self, i: int):
        if i >= 1:
            return self.vars["stopWarmUp"][i - 1]
        return float(self.hist_sw.get(i, 0))

    # -- state chains --------------------------------------------------------

    def build_chain(self) -> None:
        chain = self.vars["chain"] = build_onoff_chain(
            self.model, self.n, self.init.x_0,
            hist_start=self.init.start_history, hist_stop=self.hist_stop, name=self.name,
        )
        build_min_durations(self.model, chain, self.up.on_min, self.up.off_min, name=self.name)

    def build_change_tracker(self) -> None:
        """l_i, the unit of the last start or stop: the row ``lastchange``,
        l_i - kept - change_i * i = 0 with change_i = start_i + stop_i, sets
        it to i at a change, else to l_{i-1} through the product kept =
        (1 - change_i) * l_{i-1} (``lkeep``), a column because it feeds an
        equality."""
        m, name, l_0 = self.model, self.name, self.init.l_0
        rows, chain = RowList(m), self.vars["chain"]
        l = self.vars["l"] = [m.integer(f"{name}.l[{i}]", self.l_lo, self.n)
                              for i in range(1, self.n + 1)]
        for i in range(1, self.n + 1):
            s, p = chain.start[i - 1].id, chain.stop[i - 1].id
            tag = f"{name}.lastchange.i={i}"
            # (1 - change) * l_{i-1}, the constant l_0 times 1 - change at unit 1
            kept = (({s: -1.0 * l_0, p: -1.0 * l_0} if l_0 else {}, float(1.0 * l_0)) if i == 1
                    else product_bin_bounded(rows, ({s: -1.0, p: -1.0}, 1.0), l[i - 2], self.l_lo,
                                             self.n, f"{name}.lkeep[{i}]", f"{tag}.keep"))
            rows.add(*_difference(l[i - 1], kept, ({s: 1.0 * i, p: 1.0 * i}, 0.0)), _EQ, 0.0, tag)
        rows.store()

    def build_max_runtime(self) -> None:
        """A run that ends at a stop in unit i lasts stop_i * (l_i - l_{i-1})
        units, at most on_max.

        The product is over l_i - l_{i-1} in [-span, span], span = n - l_0, and
        ``product_inequality`` writes its projection without a column: the row
        ``maxrun.i=i``, l_i - l_{i-1} - (1 - stop_i) * span <= on_max.  When
        span <= on_max no run ending inside the horizon can break the limit,
        the row is implied by the boxes and none is written.
        """
        rows, chain, l = RowList(self.model), self.vars["chain"], self.vars["l"]
        span = self.n - self.l_lo
        for i in range(1, self.n + 1):
            prev = float(self.init.l_0) if i == 1 else l[i - 2]
            product_inequality(rows, chain.stop[i - 1], _difference(l[i - 1], prev), -span, span,
                               _LE, float(self.up.on_max), f"{self.name}.maxrun.i={i}")
        rows.store()

    def build_cold_start_flags(self) -> None:
        """k_i = 1 marks a start after a downtime beyond the cold-start
        threshold L, and a pending cold start that an ongoing downtime carries.

        Both rows read a product with the previous change l_{i-1}: the
        ``onstart`` row start_i * (i - l_{i-1}) - M * k_i <= L and the
        ``keep`` row k_{i-1} * (i - l_i) <= M * k_i.  After unit 1 each is
        written by ``product_inequality``, without a product column; at
        unit 1 l_0 is a constant and the ``onstart`` row is linear as it is.
        """
        m, name, l_0 = self.model, self.name, self.init.l_0
        rows, chain, l = RowList(m), self.vars["chain"], self.vars["l"]
        L = float(self.phys.cold_start_threshold)
        big_m = record_bigm(m, self.n - self.l_lo + 1.0, f"{name}.coldstart", self.n - self.l_lo)
        by_m = -(1.0 * big_m)  # the coefficient of k_i in - M * k_i
        k = self.vars["k"] = [m.binary(f"{name}.k[{i}]") for i in range(1, self.n + 1)]
        for i in range(1, self.n + 1):
            tag = f"{name}.coldstart.i={i}"
            start, k_i = chain.start[i - 1], k[i - 1].id
            if i == 1:
                # start after a downtime beyond L forces k_1 = 1:
                # start * 1.0 - start * l_0 - M * k_1 <= L
                rows.add(*_difference(start, ({start.id: 1.0 * l_0} if l_0 else {}, float(0.0 * l_0)),
                                      ({k_i: 1.0 * big_m}, 0.0)), _LE, L, f"{tag}.onstart")
                # pending cold start propagates through an ongoing downtime:
                # 1 - l_1 - M * k_1 <= 0, linear because k_0 is a constant
                if self.init.k_0 == 1:
                    rows.add({l[0].id: -1.0, k_i: by_m}, 1.0, _LE, 0.0, f"{tag}.keep")
                continue
            # start_i * l_{i-1} >= start_i * i - M * k_i - L
            product_inequality(rows, start, l[i - 2], self.l_lo, self.n, _GE,
                               ({start.id: 1.0 * i, k_i: by_m}, 0.0 + -L), f"{tag}.onstart")
            # k_{i-1} * l_i >= k_{i-1} * i - M * k_i
            product_inequality(rows, k[i - 2], l[i - 1], self.l_lo, self.n, _GE,
                               ({k[i - 2].id: 1.0 * i, k_i: by_m}, 0.0), f"{tag}.keep")
        rows.store()

    def build_warmup_duration(self) -> None:
        """w_i, the warm-up duration of the last start: the row ``warmdur``,
        w_i - looked_up - kept = 0, sets it to looked_up = start_i * f(i -
        l_{i-1}) (the lookup ``{tag}.lookup``) at a start, else to w_{i-1}
        through the product kept = (1 - start_i) * w_{i-1} (``wkeep``)."""
        m, name = self.model, self.name
        rows, start, l = RowList(m), self.vars["chain"].start, self.vars["l"]
        f = self.f
        w = self.vars["w"] = [m.integer(f"{name}.w[{i}]", self.w_lo, self.w_hi)
                              for i in range(1, self.n + 1)]
        for i in range(1, self.n + 1):
            tag = f"{name}.warmdur.i={i}"
            if i == 1:
                looked_up = {start[0].id: 1.0 * float(f[-self.init.l_0])}, 0.0
            else:
                # f(i - l_{i-1}) with equal-valued downtimes grouped into ranges
                intervals = []
                for d in range(1, i - self.l_lo + 1):
                    v = f[d - 1]
                    if intervals and intervals[-1][2] == v:
                        intervals[-1] = (intervals[-1][0], d, v)
                    else:
                        intervals.append((d, d, v))
                looked_up, _ = select_interval_gated(
                    rows, start[i - 1], ({l[i - 2].id: -1.0}, float(i)), intervals,
                    x_min=i - self.n, x_max=i - self.l_lo,
                    name=f"{name}.wsel[{i}]", tag=f"{tag}.lookup",
                )
            kept = self._kept(rows, i, w, self.init.w_0, self.w_lo, self.w_hi,
                              f"{name}.wkeep[{i}]", f"{tag}.keep")
            rows.add(*_difference(w[i - 1], looked_up, kept), _EQ, 0.0, tag)
        rows.store()

    def build_warmup_phase(self) -> None:
        m, name = self.model, self.name
        chain = self.vars["chain"]
        y = self.vars["y"] = [m.binary(f"{name}.y[{i}]") for i in range(1, self.n + 1)]
        self.vars["stopWarmUp"] = [m.binary(f"{name}.stopWarmUp[{i}]")
                                   for i in range(1, self.n + 1)]
        transition_rows(m, y, self.init.y_0, chain.start_at, self.sw_at, f"{name}.warmphase",
                        on=chain.x)

    def build_warmup_bounds(self) -> None:
        """The warm-up lasts at least and at most w_i units.

        ``minwarm.i=i.j=j``: a start in the j - 1 units before i
        (sigma_{i,j} = 1) keeps y_i on while w_i >= j, sigma * (w_i - j + 1)
        <= spread * y_i.  ``maxwarm.i=i``: r_i tracks the last start, and while
        warming up it lies at most w_i units back, y_i * r_i >= y_i * i - w_i.
        ``product_inequality`` writes both without a product column.

        A ``minwarm`` window counts only the starts inside the horizon.  Rows
        for a start before unit 1 would add nothing right: while its warm-up
        still runs at unit 1 (y_0 = 1) the ``minwarm.init`` rows pin it over
        exactly the units they would force; after it ended (j > w_0) they are
        vacuous; and after a stop cut it short they would cap w_1, which
        keeps w_0, below w_0, and so refuse even a plant that stays off.
        """
        m, name = self.model, self.name
        rows, chain, y, w = RowList(m), self.vars["chain"], self.vars["y"], self.vars["w"]
        start = [v.id for v in chain.start]
        f_lo, f_hi = self.f[0], self.f[-1]
        spread = float(f_hi - f_lo + 1)
        sigma_m = record_bigm(m, float(max(f_hi - 1, 1)), f"{name}.sigma", float(max(f_hi - 1, 1)))

        for i in range(1, self.n + 1):
            capped = {y[i - 1].id: 1.0 * spread}, 0.0  # spread * y_i
            for j in range(f_lo, f_hi + 1):
                # the starts of the j - 1 units before i inside the horizon
                recent = start[max(i - j + 1, 1) - 1:i - 1]
                if not recent:
                    continue  # no start can fall into this window; sigma = 0
                tag = f"{name}.minwarm.i={i}.j={j}"
                sig = m.binary(f"{name}.sigma[{i},{j}]")
                # sig * M - recent >= 0 and sig - recent <= 0
                window = dict.fromkeys(recent, -1.0)
                rows.add({sig.id: 1.0 * sigma_m, **window}, 0.0, _GE, 0.0, f"{tag}.ub")
                rows.add({sig.id: 1.0, **window}, 0.0, _LE, 0.0, f"{tag}.lb")
                # sig * (w_i - j + 1) <= spread * y_i
                product_inequality(rows, sig, ({w[i - 1].id: 1.0}, 0.0 + -float(j - 1)),
                                   self.w_lo - j + 1, self.w_hi - j + 1, _LE, capped, tag)

        # an ongoing initial warm-up is pinned directly: its duration w_0 may
        # exceed every table value, putting it out of reach of the rows above
        if self.init.y_0 == 1:
            warm_end = self.init.r_0 + self.init.w_0
            for i in range(1, min(warm_end - 1, self.n) + 1):
                rows.add({y[i - 1].id: 1.0}, 0.0, _GE, 1.0, f"{name}.minwarm.init.i={i}")

        # r tracks the most recent start; warm-up may not outlast w
        r = self.vars["r"] = [m.integer(f"{name}.r[{i}]", self.r_lo, self.n)
                              for i in range(1, self.n + 1)]
        for i in range(1, self.n + 1):
            tag = f"{name}.maxwarm.i={i}"
            kept = self._kept(rows, i, r, self.init.r_0, self.r_lo, self.n,
                              f"{name}.rkeep[{i}]", f"{tag}.keep")
            # r_i - start_i * i - kept = 0
            rows.add(*_difference(r[i - 1], ({start[i - 1]: 1.0 * i}, 0.0), kept), _EQ, 0.0,
                     f"{tag}.track")
            # while warming up, the last start is at most w_i units ago:
            # y_i * r_i >= y_i * i - w_i, vacuous outside warm-up
            product_inequality(rows, y[i - 1], r[i - 1], self.r_lo, self.n, _GE,
                               ({y[i - 1].id: 1.0 * i, w[i - 1].id: -1.0}, 0.0), tag)
        rows.store()

    def build_startup_shutdown(self) -> None:
        """s_i, the jump to the first start-up level: the row ``jump``, s_i -
        (sw_i + sw_{i-1} + ... over lower_init units) = 0, the warm-up ends
        before unit 1 summed into the rhs in unit order."""
        m, name = self.model, self.name
        rows, sw = RowList(m), self.vars["stopWarmUp"]
        s = self.vars["s"] = [m.binary(f"{name}.s[{i}]") for i in range(1, self.n + 1)]
        for i in range(1, self.n + 1):
            units = range(i, i - self.up.lower_init, -1)
            ends = [sw[u - 1].id for u in units if u >= 1]
            recorded = reduce(add, [self.sw_at(u) for u in units if u < 1], 0.0)
            rows.add({s[i - 1].id: 1.0, **dict.fromkeys(ends, -1.0)}, 0.0 + -recorded, _EQ, 0.0,
                     f"{name}.jump.i={i}")
        rows.store()

    def build_production_phase(self) -> None:
        m, name = self.model, self.name
        chain = self.vars["chain"]
        z = self.vars["z"] = [m.binary(f"{name}.z[{i}]") for i in range(1, self.n + 1)]
        # production begins start_up units after the warm-up ends, and ends at a stop
        transition_rows(m, z, self.init.z_0, lambda i: self.sw_at(i - self.up.start_up),
                        chain.stop_at, f"{name}.prodphase", on=chain.x)

    # -- power and cost --------------------------------------------------------

    def build_power_equations(self) -> None:
        """Per-unit thermal, electric and primary power as expressions.

        The production level zu_i = z_i * u_th_i is a product over the
        set-point u_th_i in [p_th_min, p_th_max] only when the ramp rows
        (``ramplim``) tie consecutive set-points.  Without them u_th_i sits in
        no other row, and zu_i is one ``gated_column`` between the gate rows
        (``prodlevel.i=k.lo_gate`` and ``.hi_gate``): the projection that
        ``build_mech_chp`` writes, with the same feasible set and LP
        relaxation.  ``vars["u_th"]`` exists only with the ramp rows.
        """
        m, name, phys, up = self.model, self.name, self.phys, self.up
        rows, chain, n = RowList(m), self.vars["chain"], self.n
        y, z, k = self.vars["y"], self.vars["z"], self.vars["k"]

        u_th = None
        ramp = phys.delta_p_th_prod * self.grid.hours_per_unit
        if math.isfinite(ramp) and ramp < phys.p_th_max - phys.p_th_min:
            u_th = self.vars["u_th"] = [
                m.continuous(f"{name}.uth[{i}]", phys.p_th_min, phys.p_th_max)
                for i in range(1, n + 1)
            ]
            for i in range(2, n + 1):
                # the step u_i - u_{i-1} within [-ramp, ramp]
                step = {u_th[i - 1].id: 1.0, u_th[i - 2].id: -1.0}
                rows.add(step, 0.0, _LE, float(ramp), f"{name}.ramplim.i={i}.up")
                rows.add(step, 0.0, _GE, float(-ramp), f"{name}.ramplim.i={i}.down")

        thermal, electric_out, electric_in, primary_in, gammas = [], [], [], [], []
        for i in range(1, n + 1):
            level = (phys.p_th_min, phys.p_th_max, f"{name}.zu[{i}]", f"{name}.prodlevel.i={i}")
            prod_level = (gated_column(rows, z[i - 1], *level) if u_th is None
                          else product_bin_bounded(rows, z[i - 1], u_th[i - 1], *level))
            th = reduce(LinExpr.accumulate,
                        (self.sw_at(i - j) * p for j, p in enumerate(up.p_th_up)), LinExpr())
            th = th + prod_level
            thermal.append(th)
            electric_out.append(th * (phys.eta_el / phys.eta_th))

            gamma = bool_and(rows, y[i - 1], k[i - 1], f"{name}.gamma[{i}]",
                             f"{name}.coldwarm.i={i}")
            gammas.append(gamma)
            ein = reduce(LinExpr.accumulate,
                         (chain.stop_at(i - j) * p for j, p in enumerate(up.p_el_down)),
                         y[i - 1] * phys.p_el_warm_up + gamma * phys.p_el_cold_start)
            ein = ein + (1 - chain.x[i - 1]) * phys.p_el_stand_by
            electric_in.append(ein)

            pin = reduce(LinExpr.accumulate,
                         (self.sw_at(i - j) * p for j, p in enumerate(up.p_pr_up)),
                         y[i - 1] * phys.p_pr_warm_up + gamma * phys.p_pr_cold_start)
            pin = pin + prod_level * (1.0 / phys.eta_th)
            primary_in.append(pin)
        rows.store()

        self.vars["gamma"] = gammas
        self.vars["thermalOutputPower"] = thermal
        self.vars["electricOutputPower"] = electric_out
        self.vars["electricInputPower"] = electric_in
        self.vars["primaryInputPower"] = primary_in

    def build_cost_equation(self) -> None:
        chain = self.vars["chain"]
        dt = self.grid.hours_per_unit
        c = self.costs
        fin = self.vars["financialInput"] = []
        for i in range(1, self.n + 1):
            e = self.vars["primaryInputPower"][i - 1] * (c.primary_price[i - 1] * dt)
            e = e + chain.start[i - 1] * c.k_on + chain.stop[i - 1] * c.k_off
            e = e + self.vars["y"][i - 1] * c.k_warm_up
            e = e + self.vars["gamma"][i - 1] * c.k_cold_start
            e = e + self.vars["z"][i - 1] * c.k_prod
            fin.append(e)

    # -- orchestration ---------------------------------------------------------

    def build(self, ledger: BalanceLedger | None = None) -> dict:
        self.build_chain()
        self.build_change_tracker()
        self.build_max_runtime()
        self.build_cold_start_flags()
        self.build_warmup_duration()
        self.build_warmup_phase()
        self.build_warmup_bounds()
        self.build_startup_shutdown()
        self.build_production_phase()
        self.build_power_equations()
        self.build_cost_equation()
        if ledger is not None:
            ledger.add_source(HEAT, self.name, self.vars["thermalOutputPower"])
            ledger.add_source(ELECTRIC, self.name, self.vars["electricOutputPower"])
            ledger.add_sink(ELECTRIC, self.name, self.vars["electricInputPower"])
            ledger.add_financial_input(self.name, self.vars["financialInput"])
            ledger.add_state(f"primaryInputPower_{self.name}", self.vars["primaryInputPower"])
            chain = self.vars["chain"]
            ledger.add_state(f"on_{self.name}", chain.x)
            ledger.add_state(f"start_{self.name}", chain.start)
            ledger.add_state(f"stop_{self.name}", chain.stop)
            ledger.add_state(f"warmUp_{self.name}", self.vars["y"])
            ledger.add_state(f"production_{self.name}", self.vars["z"])
            ledger.add_state(f"coldStart_{self.name}", self.vars["gamma"])
        return self.vars
