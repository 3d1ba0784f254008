"""Fuel-cell CHP sub-model: parameter derivation, history replay, state
chains, and the per-unit power/cost expressions, checked against the
sequential simulator in oracles.py."""

import hashlib
import itertools
import re

import numpy as np
import pytest
import scipy.optimize

from besched.assembly import BalanceLedger, TimeGrid
from besched.errors import InconsistentHistory, ModelError
from besched.fcchp import (
    FcchpBuilder,
    FcchpCostParams,
    FcchpInitialState,
    build_min_durations,
    build_onoff_chain,
    derive_unit_params,
    replay_history,
)
from besched.milp import EQ, LinExpr, Model, export_lp
from besched.solver import ModelArrays, SolveOptions, solve_builtin

from helpers import build_plant, make_costs, make_phys, oracle_difference, series, solve_pattern
from oracles import derive_events, profile_average_numeric
from test_acceptance import INITIAL_STATES


# ---------------------------------------------------------------------------
# parameter validation and unit derivation


def test_phys_rejects_bad_efficiencies():
    with pytest.raises(ModelError):
        make_phys(eta_th=0.0)
    with pytest.raises(ModelError):
        make_phys(eta_th=0.6, eta_el=0.5)  # sum >= 1


def test_phys_rejects_bad_power_ordering():
    # requires P_init <= P_min < P_startUp <= P_max
    with pytest.raises(ModelError):
        make_phys(p_th_init=1.2)
    with pytest.raises(ModelError):
        make_phys(p_th_start_up=1.0)
    with pytest.raises(ModelError):
        make_phys(p_th_start_up=2.5)


def test_phys_rejects_nonpositive_durations_and_threshold():
    with pytest.raises(ModelError):
        make_phys(d_on_min=0.0)
    with pytest.raises(ModelError):
        make_phys(d_init=3.0)  # exceeds d_start_up
    with pytest.raises(ModelError):
        make_phys(cold_start_threshold=0)
    with pytest.raises(ModelError):
        make_phys(warmup_table=None)


def test_costs_require_full_price_series_and_finiteness():
    with pytest.raises(ModelError):
        FcchpCostParams(primary_price=(float("nan"),))
    m = Model()
    with pytest.raises(ModelError, match="entries"):
        FcchpBuilder(m, TimeGrid(4, 1.0), make_phys(), make_costs(3), FcchpInitialState())


def test_initial_state_validation():
    with pytest.raises(ModelError):
        FcchpInitialState(x_0=2)
    with pytest.raises(ModelError):
        FcchpInitialState(l_0=1)
    with pytest.raises(InconsistentHistory):
        FcchpInitialState(x_0=0, y_0=1)
    with pytest.raises(InconsistentHistory):
        FcchpInitialState(x_0=1, y_0=1, z_0=1)


def test_durations_convert_to_units_by_ceiling():
    # 1.25 h at 0.25 h per unit is exactly 5 units
    up = derive_unit_params(make_phys(d_on_min=1.25, d_off_min=0.75), TimeGrid(96, 0.25))
    assert up.on_min == 5
    assert up.off_min == 3
    # non-multiples round up
    up = derive_unit_params(make_phys(d_on_min=1.1), TimeGrid(96, 0.25))
    assert up.on_min == 5


def test_init_duration_floor_and_ceiling():
    up = derive_unit_params(make_phys(d_init=0.5, d_start_up=2.0), TimeGrid(96, 0.25))
    assert up.lower_init == 2
    up = derive_unit_params(make_phys(d_init=0.6, d_start_up=2.0), TimeGrid(96, 0.25))
    assert up.lower_init == 2


def test_on_min_longer_than_horizon_rejected():
    with pytest.raises(ModelError, match="horizon"):
        derive_unit_params(make_phys(d_on_min=5.0), TimeGrid(4, 1.0))
    with pytest.raises(ModelError):
        derive_unit_params(make_phys(d_on_max=1.0, d_on_min=2.0), TimeGrid(8, 1.0))


def test_startup_steps_match_numeric_profile_integral():
    phys = make_phys(d_init=0.7, d_start_up=2.0)
    grid = TimeGrid(16, 0.5)
    up = derive_unit_params(phys, grid)
    assert up.start_up == 4
    for k, step in enumerate(up.p_th_up):
        want = profile_average_numeric(
            k * 0.5, (k + 1) * 0.5, phys.p_th_init, phys.p_th_start_up,
            phys.d_init, phys.d_start_up,
        )
        assert step == pytest.approx(want, abs=1e-6)
    # primary steps are a fixed ratio of the thermal steps
    for pth, ppr in zip(up.p_th_up, up.p_pr_up):
        assert ppr == pytest.approx(pth / phys.eta_th)


def test_startup_steps_begin_at_init_level_and_end_at_startup_level():
    phys = make_phys(d_init=1.0, d_start_up=2.0)
    up = derive_unit_params(phys, TimeGrid(8, 0.25))
    assert up.p_th_up[0] == pytest.approx(phys.p_th_init)
    # the ramp midpoint of the last unit sits just below P_startUp
    assert phys.p_th_min < up.p_th_up[-1] <= phys.p_th_start_up
    assert all(b >= a - 1e-12 for a, b in zip(up.p_th_up, up.p_th_up[1:]))


def test_startup_steps_that_end_inside_a_unit_average_the_plateau():
    # a 1.5 h start-up on 1 h units: unit 2 ramps from 0.5 to 1.5 kW over
    # [1, 1.5] (0.5 kWh) and holds 1.5 kW over [1.5, 2] (0.75 kWh)
    up = derive_unit_params(make_phys(d_start_up=1.5), TimeGrid(6, 1.0))
    assert up.start_up == 2
    assert up.p_th_up == (0.5, 1.25)
    assert up.p_pr_up == (1.0, 2.5)


def test_shutdown_peak_spread_over_units():
    # shut-down shorter than one unit dilutes the extra draw
    up = derive_unit_params(make_phys(d_down=0.3), TimeGrid(8, 0.25))
    assert len(up.p_el_down) == 2
    assert up.p_el_down[0] == pytest.approx(0.4)
    assert up.p_el_down[1] == pytest.approx(0.4 * 0.05 / 0.25)
    # exact multiple: full peak in every shut-down unit
    up = derive_unit_params(make_phys(d_down=0.5), TimeGrid(8, 0.25))
    assert up.p_el_down == pytest.approx((0.4, 0.4))


def test_warmup_table_clipped_and_checked():
    # f is taken at every downtime 1 .. n - l_0: 8 units off since unit -2
    _, b = build_plant(8, phys=make_phys(warmup_table=(1, 2, 3)),
                       init=FcchpInitialState(l_0=-2, r_0=-2))
    assert b.f == [1, 2, 3, 3, 3, 3, 3, 3, 3, 3]
    with pytest.raises(ModelError, match="monotone"):
        build_plant(4, phys=make_phys(warmup_table=(2, 1)))
    # the fall at downtime 4 lies past the horizon, within reach of l_0 = -1
    with pytest.raises(ModelError, match="monotone"):
        build_plant(3, phys=make_phys(warmup_table=(1, 2, 3, 2)),
                    init=FcchpInitialState(l_0=-1, r_0=-1))
    with pytest.raises(ModelError, match="positive integer"):
        build_plant(4, phys=make_phys(warmup_table=(1, 2.5)))


# ---------------------------------------------------------------------------
# history replay


def _up(n=8, dt=1.0, **phys_overrides):
    return derive_unit_params(make_phys(**phys_overrides), TimeGrid(n, dt))


def test_replay_running_plant_requires_matching_change_units():
    with pytest.raises(InconsistentHistory, match="l_0 = r_0"):
        replay_history(FcchpInitialState(x_0=1, l_0=-2, r_0=-4), _up())


def test_replay_finished_warmup_emits_historical_event():
    init = FcchpInitialState(x_0=1, y_0=0, z_0=1, l_0=-5, r_0=-5, w_0=2,
                             start_history={-5: 1})
    stop, sw = replay_history(init, _up())
    assert stop == {}
    assert sw == {-3: 1}


def test_replay_checks_z_against_startup_timeline():
    # warm-up ended at -3, start-up takes 2 units: production began at -1
    with pytest.raises(InconsistentHistory, match="z_0"):
        replay_history(
            FcchpInitialState(x_0=1, y_0=0, z_0=0, l_0=-5, r_0=-5, w_0=2,
                              start_history={-5: 1}),
            _up(),
        )


def test_replay_ongoing_warmup_must_extend_past_zero():
    with pytest.raises(InconsistentHistory, match="already ended"):
        replay_history(FcchpInitialState(x_0=1, y_0=1, l_0=-4, r_0=-4, w_0=2), _up())
    stop, sw = replay_history(
        FcchpInitialState(x_0=1, y_0=1, l_0=-1, r_0=-1, w_0=3), _up()
    )
    assert stop == {} and sw == {}


def test_replay_stopped_plant_records_stop_and_cut_short_warmup():
    init = FcchpInitialState(x_0=0, l_0=-2, r_0=-9, w_0=2)
    stop, sw = replay_history(init, _up())
    assert stop == {-2: 1}
    assert sw == {-7: 1}
    # warm-up that would have outlasted the stop ends at the stop itself
    init = FcchpInitialState(x_0=0, l_0=-2, r_0=-4, w_0=10)
    _, sw = replay_history(init, _up())
    assert sw == {-2: 1}


def test_replay_rejects_histories_no_run_produces():
    # a running plant whose last change the start history denies as a start
    with pytest.raises(InconsistentHistory, match="history denies"):
        replay_history(FcchpInitialState(x_0=1, l_0=-4, r_0=-4, start_history={-4: 0}), _up())
    # a warm-up declared over that would still run past unit 0
    with pytest.raises(InconsistentHistory, match="runs past unit 0"):
        replay_history(FcchpInitialState(x_0=1, l_0=-1, r_0=-1, w_0=3), _up())
    # a plant off whose last start is newer than its last change
    with pytest.raises(InconsistentHistory, match="not older"):
        replay_history(FcchpInitialState(x_0=0, l_0=-5, r_0=-3), _up())


def test_replay_rejects_start_after_last_change():
    with pytest.raises(InconsistentHistory, match="later than"):
        replay_history(
            FcchpInitialState(x_0=0, l_0=-3, r_0=-5, start_history={-1: 1}), _up()
        )


# ---------------------------------------------------------------------------
# shared on/off machinery


def _pin_pattern(m, chain, bits):
    for i, xi in enumerate(bits):
        m.add_constraint(chain.x[i] + 0.0, EQ, float(xi), f"fix.i={i + 1}")


@pytest.mark.parametrize("x_0", [0, 1])
def test_chain_events_match_pattern_exhaustively(x_0):
    for bits in itertools.product((0, 1), repeat=3):
        m = Model()
        chain = build_onoff_chain(m, 3, x_0, name="u")
        _pin_pattern(m, chain, bits)
        sol = solve_builtin(m, SolveOptions(lp_backend="dense"))
        assert sol.feasible
        start, stop = derive_events(list(bits), x_0)
        assert [sol.x[v.id] for v in chain.start] == [float(v) for v in start]
        assert [sol.x[v.id] for v in chain.stop] == [float(v) for v in stop]


def test_historical_start_pins_unit_on():
    # On_min = 3 and a start one unit before the horizon keeps units 1-2 on
    for bits in itertools.product((0, 1), repeat=4):
        m = Model()
        chain = build_onoff_chain(m, 4, 1, hist_start={0: 1}, name="u")
        build_min_durations(m, chain, on_min=3, off_min=1, name="u")
        _pin_pattern(m, chain, bits)
        sol = solve_builtin(m, SolveOptions(lp_backend="dense"))
        assert sol.feasible == (bits[0] == 1 and bits[1] == 1)


def test_historical_stop_pins_unit_off():
    for bits in itertools.product((0, 1), repeat=4):
        m = Model()
        chain = build_onoff_chain(m, 4, 0, hist_stop={0: 1}, name="u")
        build_min_durations(m, chain, on_min=1, off_min=3, name="u")
        _pin_pattern(m, chain, bits)
        sol = solve_builtin(m, SolveOptions(lp_backend="dense"))
        assert sol.feasible == (bits[0] == 0 and bits[1] == 0)


# ---------------------------------------------------------------------------
# full state machine vs the sequential simulator


def _check_equivalence(init, n=5, phys=None):
    for bits in itertools.product((0, 1), repeat=n):
        m, b = build_plant(n, phys=phys, init=init)
        sol = solve_pattern(m, b, bits)
        differs = oracle_difference(m, b, bits, sol)
        assert differs == "", (bits, sol.status, differs)


def test_states_match_simulator_from_cold_idle():
    _check_equivalence(FcchpInitialState())


def test_states_match_simulator_from_running_production():
    _check_equivalence(
        FcchpInitialState(x_0=1, y_0=0, z_0=1, l_0=-5, r_0=-5, w_0=2,
                          start_history={-5: 1})
    )


def test_states_match_simulator_from_ongoing_cold_warmup():
    _check_equivalence(
        FcchpInitialState(x_0=1, y_0=1, k_0=1, l_0=-1, r_0=-1, w_0=3,
                          start_history={-1: 1})
    )


def test_states_match_simulator_with_warmup_values_past_the_horizon():
    # off since unit -3: pattern 0111 starts after a 5-unit downtime and
    # warms f(5) = 5 units, a table value that f(1 .. n) never reaches
    _check_equivalence(FcchpInitialState(l_0=-3, r_0=-3), n=4,
                       phys=make_phys(warmup_table=(1, 2, 3, 4, 5)))


def test_states_match_simulator_after_a_warmup_cut_short_by_a_stop():
    # criterion-5 state 4: started at -4, stopped at -2 during a 10-unit warm-up;
    # a minwarm window over the start at -4 capped w[1] at 6 while warmdur.i=1
    # keeps w[1] = w_0 = 10, which refused even pattern 000000 (item 19, defect B)
    _check_equivalence(FcchpInitialState(l_0=-2, r_0=-4, w_0=10, start_history={-4: 1}),
                       n=6, phys=make_phys(warmup_table=(1, 2, 3, 4, 5, 6, 7)))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 19, defect C (the FOUND line on replay_history and prodphase in "
    "CHANGES.md): replay_history ends the cut-short warm-up at the stop at -2, so "
    "production may begin at unit 1 = -2 + start_up 3; patterns 111000 to 111111 solve "
    "with y and z both 1 at units 1-3, which simulate_fcchp refuses"))
def test_states_match_simulator_after_a_cut_short_warmup_with_a_long_start_up():
    # criterion-5 state 4 with a 3-unit start-up
    _check_equivalence(FcchpInitialState(l_0=-2, r_0=-4, w_0=10, start_history={-4: 1}),
                       n=6, phys=make_phys(d_start_up=3.0))


def test_cold_start_flag_follows_downtime_threshold():
    # threshold 2: a start with downtime 4 is cold, with downtime 2 it is not
    init = FcchpInitialState()
    for first_on, cold in ((4, True), (2, False)):
        n = first_on + 2
        bits = [0] * (first_on - 1) + [1] * 3
        m, b = build_plant(n, init=init)
        sol = solve_pattern(m, b, bits)
        assert sol.feasible
        k = series(m, b, "k", sol)
        assert k[first_on - 1] == (1.0 if cold else 0.0)
        if cold:
            # the flag survives through the on-block
            assert k[first_on] == 1.0


def test_warmup_duration_grows_with_downtime():
    # table (1,2,2,3,...): downtime 1 warms 1 unit, downtime 4 warms 3
    init = FcchpInitialState()
    for first_on, expect_w in ((1, 1), (4, 3)):
        n = first_on + 4
        bits = [0] * (first_on - 1) + [1] * 5
        m, b = build_plant(n, init=init)
        sol = solve_pattern(m, b, bits)
        assert sol.feasible
        w = series(m, b, "w", sol)
        y = series(m, b, "y", sol)
        assert w[first_on - 1] == float(expect_w)
        assert sum(y) == float(expect_w)


def test_warmup_and_production_are_exclusive_phases():
    init = FcchpInitialState()
    n = 7
    bits = [1] * 7  # start at 1: warm-up 1 unit, start-up 2, production from 4
    m, b = build_plant(n, init=init)
    sol = solve_pattern(m, b, bits)
    assert sol.feasible
    y = series(m, b, "y", sol)
    z = series(m, b, "z", sol)
    assert all(yi + zi <= 1.0 for yi, zi in zip(y, z))
    assert y == [1, 0, 0, 0, 0, 0, 0]
    assert z == [0, 0, 0, 1, 1, 1, 1]


# ---------------------------------------------------------------------------
# power and cost expressions


def _full_cycle(n=10):
    # off 3 units (cold downtime), on 6 (warm 3, ramp 2, produce 1+), stop
    init = FcchpInitialState()
    bits = [0, 0, 0, 1, 1, 1, 1, 1, 1, 0]
    m, b = build_plant(n, init=init)
    sol = solve_pattern(m, b, bits)
    assert sol.feasible
    return m, b, sol, bits


def test_power_profile_over_one_cycle():
    m, b, sol, bits = _full_cycle()
    phys, up = b.phys, b.up
    th = series(m, b, "thermalOutputPower", sol)
    ein = series(m, b, "electricInputPower", sol)
    # no output while off or warming (units 1-6)
    assert th[:6] == pytest.approx([0.0] * 6)
    # start-up steps at units 7-8, then production within the band
    assert th[6] == pytest.approx(up.p_th_up[0], abs=1e-9)
    assert th[7] == pytest.approx(up.p_th_up[1], abs=1e-9)
    assert phys.p_th_min - 1e-9 <= th[8] <= phys.p_th_max + 1e-9
    # stand-by draw while off, warm-up plus cold extra while warming
    assert ein[0] == pytest.approx(phys.p_el_stand_by)
    assert ein[3] == pytest.approx(phys.p_el_warm_up + phys.p_el_cold_start)
    # shut-down peak rides on the stand-by draw at the stop unit
    assert ein[9] == pytest.approx(phys.p_el_stand_by + phys.p_el_add_shut_down)


def test_electric_output_proportional_to_thermal():
    m, b, sol, _ = _full_cycle()
    th = series(m, b, "thermalOutputPower", sol)
    el = series(m, b, "electricOutputPower", sol)
    ratio = b.phys.eta_el / b.phys.eta_th
    assert el == pytest.approx([t * ratio for t in th], abs=1e-9)


def test_primary_input_covers_output_and_warmup():
    m, b, sol, _ = _full_cycle()
    phys = b.phys
    pin = series(m, b, "primaryInputPower", sol)
    th = series(m, b, "thermalOutputPower", sol)
    y = series(m, b, "y", sol)
    g = series(m, b, "gamma", sol)
    for i in range(len(pin)):
        want = th[i] / phys.eta_th + y[i] * phys.p_pr_warm_up + g[i] * phys.p_pr_cold_start
        assert pin[i] == pytest.approx(want, abs=1e-9)


def test_cost_equation_totals():
    m, b, sol, _ = _full_cycle()
    c, dt = b.costs, b.grid.hours_per_unit
    fin = series(m, b, "financialInput", sol)
    pin = series(m, b, "primaryInputPower", sol)
    y = series(m, b, "y", sol)
    g = series(m, b, "gamma", sol)
    z = series(m, b, "z", sol)
    want = sum(p * pr * dt for p, pr in zip(pin, c.primary_price))
    want += c.k_on + c.k_off  # one start, one stop in the cycle
    want += sum(y) * c.k_warm_up + sum(g) * c.k_cold_start + sum(z) * c.k_prod
    assert sum(fin) == pytest.approx(want, abs=1e-9)


def test_production_ramp_limit_binds():
    # ramp 0.3 kW/h on a 1 h grid: modulation may move at most 0.3 per unit
    init = FcchpInitialState(x_0=1, y_0=0, z_0=1, l_0=-5, r_0=-5, w_0=2,
                             start_history={-5: 1})
    n = 4
    phys = make_phys(delta_p_th_prod=0.3)
    m, b = build_plant(n, phys=phys, init=init)
    chain = b.vars["chain"]
    for i in range(n):
        m.add_constraint(chain.x[i] + 0.0, EQ, 1.0, f"fix.i={i + 1}")
    # pull the modulation up at the end, down at the start
    u = b.vars["u_th"]
    m.add_constraint(u[0] + 0.0, EQ, phys.p_th_min, "pin.low")
    obj = -1.0 * u[n - 1]
    m.set_objective(obj + sum(v + 0.0 for v in b.vars["y"]) + sum(v + 0.0 for v in b.vars["k"]))
    sol = solve_builtin(m, SolveOptions())
    assert sol.feasible
    levels = [sol.x[v.id] for v in u]
    for a, bb in zip(levels, levels[1:]):
        assert abs(bb - a) <= 0.3 + 1e-6
    assert levels[-1] == pytest.approx(phys.p_th_min + 3 * 0.3, abs=1e-6)


# ---------------------------------------------------------------------------
# rows the boxes already imply are not written


def _tags(model):
    return [c.tag for c in model.constraints]


def test_no_maxrun_rows_when_no_run_inside_the_horizon_can_exceed_on_max():
    # span = n - l_0 = 6 <= on_max = 10: no runtime column and no maxrun row
    m, b = build_plant(6, init=INITIAL_STATES[0])
    assert not any(".maxrun." in t for t in _tags(m))
    assert not any("runtime[" in name for name in m.column_names())
    # INITIAL_STATES[9]: span = 6 + 8 = 14 > on_max = 10, one maxrun row per
    # unit, written without a runtime column
    m, b = build_plant(6, init=INITIAL_STATES[9])
    assert (b.n - b.l_lo, b.up.on_max) == (14, 10)
    assert [_tags(m).count(f"fcCHP.maxrun.i={i}") for i in range(1, 7)] == [1] * 6
    assert sum("runtime[" in name for name in m.column_names()) == 0


def test_the_set_point_column_and_its_track_rows_come_only_with_the_ramp_rows():
    for phys, uth, rows in ((make_phys(), 0, ("lo_gate", "hi_gate")),
                            (make_phys(delta_p_th_prod=0.3), 6,
                             ("lo_gate", "hi_gate", "lo_track", "hi_track"))):
        m, b = build_plant(6, phys=phys)
        assert sum("uth[" in name for name in m.column_names()) == uth
        assert ("u_th" in b.vars) == bool(uth)
        assert any(".ramplim." in t for t in _tags(m)) == bool(uth)
        for i in range(1, 7):
            tag = f"fcCHP.prodlevel.i={i}."
            assert [t[len(tag):] for t in _tags(m) if t.startswith(tag)] == list(rows)


def _free_running(init, **phys):
    """A free-running 12-unit plant paid per kWh of heat and electricity it
    makes, at a value that changes over the day, so it starts, stops and
    modulates by itself."""
    value = (3.0, 8.0, 8.0, 4.0, 8.0, 8.0, 8.0, 2.0, 8.0, 8.0, 8.0, 1.0)
    n = len(value)
    m = Model("plant")
    costs = FcchpCostParams(primary_price=(4.0,) * n, k_on=1.0, k_off=0.5, k_warm_up=0.2,
                            k_cold_start=0.3, k_prod=0.1)
    v = FcchpBuilder(m, TimeGrid(n, 1.0), make_phys(**phys), costs, init).build()
    obj = LinExpr()
    for i in range(n):
        obj = obj + v["financialInput"][i] + v["electricInputPower"][i] * 3.0
        obj = obj - (v["thermalOutputPower"][i] + v["electricOutputPower"][i]) * value[i]
    m.set_objective(obj)
    return m


def _milp_optimum_and_lp_bound(model):
    """scipy's HiGHS MIP optimum and the LP-relaxation bound of the model."""
    a = ModelArrays(model)
    found = []
    for integrality in (a.integral.astype(int), np.zeros(len(a.c))):
        res = scipy.optimize.milp(
            a.c, constraints=scipy.optimize.LinearConstraint(
                a.a, np.where(a.ge, a.rhs, -np.inf), np.where(a.le, a.rhs, np.inf)),
            bounds=scipy.optimize.Bounds(a.lo, a.hi), integrality=integrality,
            options={"mip_rel_gap": 0})
        assert res.status == 0
        found.append(res.fun + a.obj_const)
    return found


# (initial state, plant overrides) -> (optimum, LP-relaxation bound) of the
# paper's full model, which writes every product as a column with its four
# rows, the maxrun product and the set-point column on every plant
FREE_RUNNING_OPTIMA = {
    (0, ()): (-45.3, -49.6125),  # span 12 > on_max 10: maxrun binds
    (9, ()): (-59.6, -62.975),  # span 20 > on_max 10
    (0, (("delta_p_th_prod", 0.3),)): (-36.82, -45.1325),  # ramp rows keep u_th
    (0, (("d_on_max", 12.0),)): (-49.8, -49.8),  # span 12 <= on_max 12: no maxrun
    # least table value 2 with w_0 = 2: the minwarm gate row sigma <= spread * y
    (3, (("warmup_table", (2, 3, 3, 4)),)): (-9.1, -49.04953919860627),
    (12, (("warmup_table", (2, 3, 3, 4)),)): (-56.6, -60.58076923076924),  # and y_0 = 1
    (6, ()): (-35.8, -49.626923076923084),  # k_0 = 1: a pending cold start
    (13, ()): (-46.3, -50.280769230769245),  # y_0 = 1: an ongoing warm-up
    (19, (("cold_start_threshold", 3),)): (-35.8, -49.626923076923084),
}


@pytest.mark.parametrize("case", FREE_RUNNING_OPTIMA)
def test_free_running_optimum_and_lp_bound_are_those_of_the_full_model(case):
    state, overrides = case
    got = _milp_optimum_and_lp_bound(_free_running(INITIAL_STATES[state], **dict(overrides)))
    assert got == pytest.approx(FREE_RUNNING_OPTIMA[case], abs=1e-6)


# the rows product_inequality writes: maxrun, the cold-start rows after unit 1,
# minwarm and maxwarm, each with its optional .gate row
PROJECTED_ROW = re.compile(r"\.(maxrun\.i=\d+|coldstart\.i=(?!1\.)\d+\.(onstart|keep)"
                           r"|minwarm\.i=\d+\.j=\d+|maxwarm\.i=\d+)(\.gate)?$")


def test_no_single_use_product_column_and_no_projected_row_the_boxes_imply():
    models = [m for m, _ in _criterion_5_states()]
    models += [_free_running(INITIAL_STATES[state], **dict(overrides))
               for state, overrides in FREE_RUNNING_OPTIMA]
    written = []
    for m in models:
        assert not any(re.search(r"\.(runtime|ksl|kll|sigp|yr)\[", name)
                       for name in m.column_names())
        box = m.column_arrays()
        for row in m.constraints:
            if PROJECTED_ROW.search(row.tag):
                assert row.sense == "<="
                top = sum(c * (box.hi[v] if c > 0 else box.lo[v]) for v, c in row.terms.items())
                assert top > row.rhs, row.tag
                written.append(row.tag.split(".", 1)[1])
    families = {re.sub(r"=\d+", "", t) for t in written}
    # every family is written somewhere, the minwarm gate row only where the
    # least warm-up table value is 2 or more
    assert families == {"maxrun.i", "coldstart.i.onstart", "coldstart.i.keep", "minwarm.i.j",
                        "minwarm.i.j.gate", "maxwarm.i"}


# ---------------------------------------------------------------------------
# pinned models: the switched-state rows must build the very same model


def _model_digest(models) -> str:
    """sha256 over each model's LP text, row tags, big-M records and ledger
    states (term order and float.hex of every coefficient)."""
    h = hashlib.sha256()
    for model, ledger in models:
        h.update(export_lp(model).text.encode())
        h.update("\n".join(c.tag for c in model.constraints).encode())
        h.update(repr(model.bigms).encode())
        for name, exprs in ledger.states if ledger else ():
            h.update(repr((name, [([(v, c.hex()) for v, c in e.terms.items()], e.const.hex())
                                  for e in exprs])).encode())
    return h.hexdigest()


def _fcchp_with_ledger(n, init, phys=None, dt=1.0):
    grid = TimeGrid(n, dt)
    model, ledger = Model("plant"), BalanceLedger(grid)
    FcchpBuilder(model, grid, phys or make_phys(), make_costs(n), init).build(ledger)
    return model, ledger


def _criterion_5_states():
    return [_fcchp_with_ledger(6, init) for init in INITIAL_STATES]


def _criterion_3_ramp_plant():
    phys = make_phys(d_on_min=1.5, d_on_max=10.0, d_off_min=0.5, d_init=0.25,
                     d_start_up=0.5, d_down=0.25, delta_p_th_prod=0.8)
    return [_fcchp_with_ledger(48, FcchpInitialState(), phys=phys, dt=0.25)]


def _chain_histories():
    models = []
    for x_0 in (0, 1):
        for hist_start, hist_stop in (({}, {}), ({-2: 1}, {}), ({}, {-1: 1}),
                                      ({-4: 1, 0: 1}, {-1: 1})):
            m = Model("chain")
            chain = build_onoff_chain(m, 6, x_0, hist_start=hist_start, hist_stop=hist_stop)
            build_min_durations(m, chain, on_min=3, off_min=2)
            models.append((m, None))
    return models


# case -> (its models, their pinned sha256)
PINNED_MODELS = {
    "criterion_5_states": (
        _criterion_5_states,
        "1a4c94b4ad87fdb9c0aef525c2b140b7627b7b6edf4bdae6217038ed4f077279",
    ),
    "criterion_3_ramp_plant": (
        _criterion_3_ramp_plant,
        "4e7ec1fa6121a100ed9386bcc50d377a68bd7711a4e5a7bf6338d80296899c05",
    ),
    "chain_histories": (
        _chain_histories,
        "0f6aa68645929f8f2f1191a9311aed7040b88645e99477c0a90c895c1ff17c17",
    ),
}


@pytest.mark.parametrize("case", PINNED_MODELS)
def test_switched_state_models_match_their_pinned_digest(case):
    build, digest = PINNED_MODELS[case]
    assert _model_digest(build()) == digest
