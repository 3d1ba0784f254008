"""Acceptance suite: one test per criterion, each with its runtime budget.

Run with -v to get one pass/fail line per criterion."""

import itertools
import time

import pytest

from besched.cli import cli_main
from besched.external import glpk_command, solve_external
from besched.fcchp import (
    FcchpInitialState,
    build_min_durations,
    build_onoff_chain,
)
from besched.linearize import abs_diff, bool_and, product_bin_bounded, select_value
from besched.milp import EQ, Model
from besched.pipeline import build_problem
from besched.solver import INFEASIBLE, OPTIMAL, SolveOptions, solve_builtin

from helpers import (
    build_plant,
    column_id,
    day_night_flags,
    make_phys,
    series,
    solve_pattern,
    write_daily_scenario,
)
from oracles import (
    brute_force_solve,
    greedy_heatpump_energy,
    pattern_feasible,
    random_milp,
    simulate_fcchp,
)

DENSE = SolveOptions(lp_backend="dense")


def _elapsed_under(t0, budget, label):
    took = time.monotonic() - t0
    assert took < budget, f"{label} took {took:.1f}s, budget {budget}s"
    return took


# criterion 1 -----------------------------------------------------------------


def test_criterion_1_historical_start_pins_first_units():
    t0 = time.monotonic()
    for start_unit, pinned in ((-3, 1), (-2, 2)):
        # On_min = 5: a start at that unit keeps the plant on for 5 units,
        # reaching `pinned` units into the horizon
        feasible_x1 = set()
        feasible_x2 = set()
        for bits in itertools.product((0, 1), repeat=5):
            m = Model()
            chain = build_onoff_chain(m, 5, 1, hist_start={start_unit: 1}, name="plant")
            build_min_durations(m, chain, on_min=5, off_min=1, name="plant")
            for i, b in enumerate(bits):
                m.add_constraint(chain.x[i] + 0.0, EQ, float(b), f"fix.{i + 1}")
            if solve_builtin(m, DENSE).feasible:
                feasible_x1.add(bits[0])
                feasible_x2.add(bits[1])
        assert feasible_x1 == {1}, "every feasible solution must keep unit 1 on"
        if pinned >= 2:
            assert feasible_x2 == {1}
        else:
            assert feasible_x2 == {0, 1}, "unit 2 must be released"
    _elapsed_under(t0, 1.0, "criterion 1")


# criterion 2 -----------------------------------------------------------------


def test_criterion_2_recent_operation_time_limits_runtime():
    t0 = time.monotonic()
    init = FcchpInitialState(x_0=1, y_0=0, z_0=1, l_0=-3, r_0=-3, w_0=1,
                             start_history={-3: 1})
    bits = [1] * 13 + [0]
    results = {}
    for on_max_hours in (16.0, 17.0):
        phys = make_phys(d_on_max=on_max_hours, d_on_min=1.0, d_off_min=1.0)
        m, b = build_plant(14, phys=phys, init=init)
        sol = solve_pattern(m, b, bits)
        results[on_max_hours] = (m, b, sol)
    assert results[16.0][2].status == INFEASIBLE
    m, b, sol = results[17.0]
    assert sol.status == OPTIMAL
    l = series(m, b, "l", sol)
    assert l[12] == -3.0, "no state change up to unit 13: tracker holds l_13 = -3"
    assert l[13] == 14.0, "the stop at unit 14 moves the tracker to l_14 = 14"
    assert l[13] - l[12] == 17.0, "recent operation time is 17 units"
    _elapsed_under(t0, 5.0, "criterion 2")


# criterion 3 -----------------------------------------------------------------


def test_criterion_3_full_cycle_power_profile():
    t0 = time.monotonic()
    n = 48
    phys = make_phys(d_on_min=1.5, d_on_max=10.0, d_off_min=0.5,
                     d_init=0.25, d_start_up=0.5, d_down=0.25,
                     delta_p_th_prod=0.8)
    init = FcchpInitialState()
    bits = [0] * 8 + [1] * 32 + [0] * 8
    m, b = build_plant(n, phys=phys, init=init, dt=0.25)
    # pull the modulation up mid-production to exercise the ramp limit
    chain = b.vars["chain"]
    for i, xi in enumerate(bits):
        m.add_constraint(chain.x[i] + 0.0, EQ, float(xi), f"fix.{i + 1}")
    pressure = sum(v + 0.0 for v in b.vars["y"]) + sum(v + 0.0 for v in b.vars["k"])
    fin = sum(b.vars["financialInput"], start=pressure)
    m.set_objective(fin - 50.0 * b.vars["thermalOutputPower"][29])
    sol = solve_builtin(m)
    assert sol.status == OPTIMAL

    up = b.up
    th = series(m, b, "thermalOutputPower", sol)
    ein = series(m, b, "electricInputPower", sol)
    z = series(m, b, "z", sol)
    y = series(m, b, "y", sol)
    # (a) start at unit 9, cold warm-up units 9-11: no output before unit 12
    assert y[8:11] == [1.0, 1.0, 1.0]
    assert th[:11] == pytest.approx([0.0] * 11, abs=1e-6)
    # (b) the output jumps straight to the initial level
    assert th[11] == pytest.approx(phys.p_th_init, abs=1e-6)
    # (c) monotone ramp over the StartUp units
    ramp_units = th[11:11 + up.start_up]
    assert all(bb >= aa - 1e-6 for aa, bb in zip(ramp_units, ramp_units[1:]))
    assert ramp_units == pytest.approx(list(up.p_th_up), abs=1e-6)
    # (d) production inside the band, per-unit change within the gradient
    prod_units = [i for i in range(n) if z[i] == 1.0]
    assert prod_units == list(range(13, 40))
    per_unit = phys.delta_p_th_prod * 0.25
    for i in prod_units:
        assert phys.p_th_min - 1e-6 <= th[i] <= phys.p_th_max + 1e-6
    for a, bb in zip(prod_units, prod_units[1:]):
        assert abs(th[bb] - th[a]) <= per_unit + 1e-6
    assert max(th[i] for i in prod_units) == pytest.approx(phys.p_th_max, abs=1e-6)
    # (e) shut-down electric peak on top of the stand-by draw
    assert ein[40] == pytest.approx(phys.p_el_stand_by + phys.p_el_add_shut_down, abs=1e-6)
    _elapsed_under(t0, 60.0, "criterion 3")


# criterion 4 -----------------------------------------------------------------


def test_criterion_4_linearizations_exact_by_enumeration():
    t0 = time.monotonic()

    def pin(m, var, val):
        m.add_constraint(var + 0.0, EQ, float(val), f"pin.{var.name}")

    for a in (0, 1):
        for u in (-6, -2, 0, 3, 6):
            m = Model()
            alpha, uu = m.binary("a"), m.continuous("u", -6, 6)
            v = product_bin_bounded(m, alpha, uu, -6, 6, "v", "p")
            pin(m, alpha, a), pin(m, uu, u)
            sol = solve_builtin(m, DENSE)
            assert abs(sol.x[v.id] - a * u) <= 1e-9

    for x, yv in ((3, 3), (1, 5), (5, 1), (-4, 2)):
        m = Model()
        va, vb = m.continuous("x", -6, 6), m.continuous("y", -6, 6)
        d = abs_diff(m, va, vb, 12, "d", "a")
        pin(m, va, x), pin(m, vb, yv)
        sol = solve_builtin(m, DENSE)
        assert abs(sol.x[d.id] - abs(x - yv)) <= 1e-9

    for a in (0, 1):
        for bv in (0, 1):
            m = Model()
            va, vb = m.binary("a"), m.binary("b")
            g = bool_and(m, va, vb, "g", "and")
            pin(m, va, a), pin(m, vb, bv)
            sol = solve_builtin(m, DENSE)
            assert sol.x[g.id] == float(a and bv)  # exact on binaries

    table = (1, 1, 2, 4, 4, 7)
    for d in range(1, 7):
        m = Model()
        x = m.integer("x", 1, 6)
        value, _ = select_value(m, x, table, "sel", "sel")
        pin(m, x, d)
        sol = solve_builtin(m, DENSE)
        assert m.evaluate(value, sol.x) == float(table[d - 1])
    _elapsed_under(t0, 10.0, "criterion 4")


# criterion 5 -----------------------------------------------------------------


INITIAL_STATES = [
    FcchpInitialState(),
    FcchpInitialState(l_0=-3, r_0=-3),
    FcchpInitialState(l_0=-1, r_0=-5, w_0=2, start_history={-5: 1}),
    FcchpInitialState(l_0=-2, r_0=-9, w_0=2, start_history={-9: 1}),
    FcchpInitialState(l_0=-2, r_0=-4, w_0=10, start_history={-4: 1}),
    FcchpInitialState(l_0=-4, r_0=-6, w_0=1, start_history={-6: 1}),
    FcchpInitialState(k_0=1, l_0=-1, r_0=-5, w_0=2, start_history={-5: 1}),
    FcchpInitialState(k_0=1, l_0=-3, r_0=-8, w_0=3, start_history={-8: 1}),
    FcchpInitialState(x_0=1, z_0=1, l_0=-5, r_0=-5, w_0=2, start_history={-5: 1}),
    FcchpInitialState(x_0=1, z_0=1, l_0=-8, r_0=-8, w_0=1, start_history={-8: 1}),
    FcchpInitialState(x_0=1, l_0=-3, r_0=-3, w_0=2, start_history={-3: 1}),
    FcchpInitialState(x_0=1, l_0=-2, r_0=-2, w_0=2, start_history={-2: 1}),
    FcchpInitialState(x_0=1, y_0=1, l_0=-1, r_0=-1, w_0=2, start_history={-1: 1}),
    FcchpInitialState(x_0=1, y_0=1, l_0=-1, r_0=-1, w_0=3, start_history={-1: 1}),
    FcchpInitialState(x_0=1, y_0=1, l_0=-2, r_0=-2, w_0=3, start_history={-2: 1}),
    FcchpInitialState(x_0=1, y_0=1, k_0=1, l_0=-1, r_0=-1, w_0=3, start_history={-1: 1}),
    FcchpInitialState(x_0=1, y_0=1, k_0=1, l_0=-2, r_0=-2, w_0=4, start_history={-2: 1}),
    FcchpInitialState(x_0=1, z_0=1, k_0=1, l_0=-6, r_0=-6, w_0=2, start_history={-6: 1}),
    FcchpInitialState(x_0=1, z_0=1, l_0=-7, r_0=-7, w_0=3, start_history={-7: 1}),
    FcchpInitialState(l_0=-1, r_0=-10, w_0=3, start_history={-10: 1}),
]

STATE_KEYS = (("l", "l"), ("r", "r"), ("w", "w"), ("k", "k"),
              ("y", "y"), ("z", "z"))


def test_criterion_5_state_machine_matches_simulator():
    t0 = time.monotonic()
    assert len(INITIAL_STATES) == 20
    n = 6
    agreed_feasible = 0
    for init in INITIAL_STATES:
        for bits in itertools.product((0, 1), repeat=n):
            m, b = build_plant(n, init=init)
            sol = solve_pattern(m, b, bits)
            sim = simulate_fcchp(list(bits), init, b.phys.warmup_table,
                                 b.up.start_up, b.up.lower_init,
                                 b.phys.cold_start_threshold)
            durations_ok = pattern_feasible(
                list(bits), init.x_0, init.start_history, b.hist_stop,
                b.up.on_min, b.up.on_max, b.up.off_min, init.l_0,
            )
            expected = durations_ok and sim is not None
            assert sol.feasible == expected, (init, bits, sol.status)
            if not expected:
                continue
            agreed_feasible += 1
            for key, skey in STATE_KEYS:
                got = [round(v) for v in series(m, b, key, sol)]
                assert got == sim[skey], (init, bits, key, got, sim[skey])
    assert agreed_feasible > 100  # the sweep must not be vacuous
    _elapsed_under(t0, 120.0, "criterion 5")


# criterion 6 -----------------------------------------------------------------


def test_criterion_6_solver_cross_checks(tmp_path):
    import numpy as np

    t0 = time.monotonic()
    rng = np.random.default_rng(2016)
    for _ in range(25):
        m = random_milp(rng, max_binaries=12, max_rows=30)
        status, obj, _ = brute_force_solve(m)
        sol = solve_builtin(m)
        if status == "infeasible":
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(obj, abs=1e-6)

    config, situation = write_daily_scenario(tmp_path / "scen")
    from besched.xmlio import parse_configuration, parse_situation

    cfg = parse_configuration(config.read_text())
    sit = parse_situation(situation.read_text(), cfg)
    problem = build_problem(cfg, sit, base_dir=tmp_path / "scen")
    a = solve_builtin(problem.model)
    b = solve_external(problem.model, SolveOptions(backend="external",
                                                   command=glpk_command()))
    assert a.status == OPTIMAL and b.status == OPTIMAL
    assert a.objective == pytest.approx(b.objective, abs=1e-6)
    _elapsed_under(t0, 120.0, "criterion 6")


# criterion 7 -----------------------------------------------------------------


def test_criterion_7_daily_scenario_beats_greedy_baseline(tmp_path):
    t0 = time.monotonic()
    config, situation = write_daily_scenario(tmp_path / "scen")
    from besched.xmlio import parse_configuration, parse_situation

    cfg = parse_configuration(config.read_text())
    sit = parse_situation(situation.read_text(), cfg)
    problem = build_problem(cfg, sit, base_dir=tmp_path / "scen")
    sol = solve_builtin(problem.model)
    assert sol.status == OPTIMAL
    x = sol.x

    # (a) every balance row holds to 1e-6
    checked = 0
    for con in problem.model.constraints:
        if not con.tag.startswith("balance."):
            continue
        act = sum(c * x[vid] for vid, c in con.terms.items())
        assert abs(act - con.rhs) <= 1e-6, con.tag
        checked += 1
    assert checked == 192  # electric and heat, 96 units each

    # (b) optimized electric energy never exceeds the rule-based baseline
    dt, night = 0.25, day_night_flags()
    demand = [1.44] * 96
    cop = [1.6 if nf else 3.2 for nf in night]
    supply = [x[column_id(problem.model, f"GridConnection.supply[{i + 1}]")]
              for i in range(96)]
    optimized = sum(supply) * dt
    baseline = greedy_heatpump_energy(demand, cop, 1.8, dt, level0=10.08,
                                      max_level=20.82, night=night)
    baseline += sum([0.1] * 96) * dt  # fixed electric demand in both plans
    assert optimized <= baseline + 1e-9

    # (c) with the COP doubling by day, savings exceed 20 %
    savings = (baseline - optimized) / baseline
    assert savings > 0.20, f"savings only {savings:.1%}"
    _elapsed_under(t0, 300.0, "criterion 7")


# criterion 8 -----------------------------------------------------------------


def test_criterion_8_byte_identical_reruns(tmp_path):
    config, situation = write_daily_scenario(tmp_path / "scen")
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        lp = tmp_path / f"model_{run}.lp"
        rc = cli_main(["optimize", "--config", str(config),
                       "--situation", str(situation),
                       "--out", str(out), "--emit-lp", str(lp)])
        assert rc == 0
        outputs.append((out, lp))
    (a, lp_a), (b, lp_b) = outputs
    assert lp_a.read_bytes() == lp_b.read_bytes()
    assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()
    # metadata carries wall-clock solver stats and may differ; the schedule
    # and the model must not
