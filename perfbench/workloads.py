"""The benchmark's workloads: seeded instances, the timed call, and the checks.

Each workload turns a seed into a pool of distinct instances; preparing one
writes its input files before any timing.  ``run`` is the timed call and
``observe`` reads what it produced, with a digest that must repeat exactly
when the instance runs again.  After the timed loop, ``reference`` computes
each instance's expected answer and ``judge`` compares the two, so reference
solves add neither to the timed region nor to the peak memory measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

import besched.solver
from besched.assembly import TimeGrid
from besched.cli import cli_main
from besched.fcchp import FcchpBuilder, FcchpInitialState
from besched.milp import EQ, GE, LE, Model
from besched.pipeline import build_problem
from besched.solver import SolveOptions
from besched.xmlio import parse_configuration, parse_situation

from helpers import DAY_CONFIG, DAY_SITUATION, day_night_flags, make_costs, make_phys, series
from oracles import pattern_feasible, simulate_fcchp

# Absolute tolerance between an objective and its reference, in ct.
OBJ_TOL = 1e-6


@dataclass
class Instance:
    key: str
    spec: dict  # whatever the workload needs to run and check the instance


@dataclass
class Observation:
    """What one run produced: a digest that must repeat on every run of the
    instance, and the data the correctness check needs."""

    digest: str
    data: object


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def milp_reference(model: Model) -> float:
    """Optimal objective from scipy's HiGHS MIP on a matrix built here from
    ``Model.constraints`` (not from the solver's own arrays)."""
    n = len(model.vars)
    c = np.zeros(n)
    for vid, coef in model.objective.terms.items():
        c[vid] = coef
    rows, cols, vals, lb, ub = [], [], [], [], []
    for k, con in enumerate(model.constraints):
        for vid, coef in con.terms.items():
            rows.append(k)
            cols.append(vid)
            vals.append(coef)
        lb.append(con.rhs if con.sense in (GE, EQ) else -np.inf)
        ub.append(con.rhs if con.sense in (LE, EQ) else np.inf)
    a = sparse.csr_matrix((vals, (rows, cols)), shape=(len(model.constraints), n))
    res = milp(
        c,
        constraints=LinearConstraint(a, lb, ub),
        bounds=Bounds([v.domain.lo for v in model.vars], [v.domain.hi for v in model.vars]),
        integrality=np.array([v.domain.is_integral for v in model.vars], dtype=int),
        options={"mip_rel_gap": 0},
    )
    if res.status != 0:
        raise RuntimeError(f"reference MILP did not solve: {res.message}")
    return float(res.fun) + model.objective.const


# ---------------------------------------------------------------------------
# workloads driven through the CLI


class CliWorkload:
    """An instance is a scenario directory; the timed call is
    ``cli_main(["optimize", ...])`` in-process."""

    emit_lp = False
    time_limit = None

    def write_inputs(self, rng: np.random.Generator, scen: Path) -> None:
        raise NotImplementedError

    def prepare(self, seed: int, index: int, workdir: Path) -> Instance:
        rng = np.random.default_rng([seed, index])
        scen = workdir / f"i{index}"
        scen.mkdir(parents=True, exist_ok=True)
        self.write_inputs(rng, scen)
        argv = ["optimize", "--config", str(scen / "config.xml"),
                "--situation", str(scen / "situation.xml"), "--out", str(scen / "out")]
        if self.emit_lp:
            argv += ["--emit-lp", str(scen / "model.lp")]
        if self.time_limit:
            argv += ["--time-limit", str(self.time_limit)]
        return Instance(f"{self.name}/{seed}/{index}", {"argv": argv, "dir": scen})

    def prepare_pool(self, seed: int, size: int, workdir: Path) -> list:
        return [self.prepare(seed, i, workdir) for i in range(size)]

    def run(self, inst: Instance):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(inst.spec["argv"])

    def observe(self, inst: Instance, rc) -> Observation:
        scen = inst.spec["dir"]
        if rc != 0:
            return Observation("", {"rc": rc})
        meta = json.loads((scen / "out" / "metadata.json").read_text())
        parts = [(scen / "out" / "schedule.csv").read_bytes()]
        if self.emit_lp:
            parts.append((scen / "model.lp").read_bytes())
        return Observation(_sha(*parts), {"rc": rc, "status": meta["status"],
                                          "objective": meta["objective"]})

    def reference(self, inst: Instance) -> float:
        scen = inst.spec["dir"]
        cfg = parse_configuration((scen / "config.xml").read_text())
        sit = parse_situation((scen / "situation.xml").read_text(), cfg)
        return milp_reference(build_problem(cfg, sit, base_dir=scen).model)

    def judge(self, data: dict, ref: float) -> str:
        """Empty when correct, else the reason."""
        if data["rc"] != 0:
            return f"exit code {data['rc']}"
        if data["status"] != "optimal":
            return f"status {data['status']}"
        if not abs(data["objective"] - ref) <= OBJ_TOL:
            return f"objective {data['objective']!r} != reference {ref!r}"
        return ""


class DayHeatpumpTariff(CliWorkload):
    """B&B-bound: about 55 nodes of HiGHS node LPs per instance.  Only the
    tariff varies: noise on COP or demand, or a random initial buffer level,
    made the built-in solver's time range from 0.7 s to over 20 s, often
    without an incumbent.  An instance the solver cannot close within the
    time limit counts as failed instead of stalling the run."""

    name = "day_heatpump_tariff"
    pool_size = trace_pool_size = 16
    time_limit = 30

    def write_inputs(self, rng, scen):
        base = rng.uniform(15.0, 25.0)
        peak = rng.uniform(0.0, 10.0)
        (scen / "config.xml").write_text(DAY_CONFIG)
        (scen / "situation.xml").write_text(DAY_SITUATION)
        rows = ["ENull,DHWNull,MinHeating,MaxHeating,ECostFix,ERefundFix,COP"]
        for i, night in enumerate(day_night_flags()):
            cop = 1.6 if night else 3.2
            price = base + (peak if 8.0 <= i * 0.25 < 20.0 else 0.0)
            rows.append(f"0.1,1.44,0.0,0.0,{price!r},0.0,{cop}")
        (scen / "scenario.csv").write_text("\n".join(rows) + "\n")


WEEK_CONFIG = """<BuildingConfiguration xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="WeekScenario" powerUnit="kW" energyUnit="kWh" priceUnit="ct" energyPriceUnit="ct/kWh">
  <Usage id="usage" maxElectricPowerUse="32.0" maxHeatingPowerUse="32.0"
      maxCoolingPowerUse="0.0"/>
  <Grid id="grid" maxFeedInPower="10.0" maxSupplyPower="32.0"/>
  <PV id="pv" curtailable="true"/>
  <Battery id="battery" minEnergyLevel="0" maxEnergyLevel="10.0" lossPerHourFactor="0.001"
      maxChargingPower="5.0" maxDischargingPower="5.0" chargeEfficiency="0.95"
      dischargeEfficiency="0.95"/>
  <HeatBuffer id="buffer" minThermalEnergyLevel="0" maxThermalEnergyLevel="20.0"
      thermalLossPerHourFactor="0.005" maxThermalChargingPower="10.0"
      maxThermalDischargingPower="10.0"/>
  <Converter id="boiler" inputCarrier="primary" outputCarrier="heat" efficiency="0.9"
      maxInputPower="25.0"/>
</BuildingConfiguration>
"""

WEEK_SITUATION = """<BuildingSituation xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    id="WeekScenario" nbsOfTimeUnits="672" hoursPerTimeUnit="0.25"
    start="2016-08-15T00:00:00">
  <Usage id="usage" maxInitialHeatingEnergy="0.0" maxInitialCoolingEnergy="0.0">
    <ElectricPowerUsage fileName="week.csv" dataSetPath="/Elec"/>
    <HotWaterPowerUsage fileName="week.csv" dataSetPath="/Water"/>
    <MinHeatingPowerUsage fileName="week.csv" dataSetPath="/HeatMin"/>
    <MaxHeatingPowerUsage fileName="week.csv" dataSetPath="/HeatMax"/>
  </Usage>
  <Grid id="grid">
    <ElectricEnergyPrice fileName="week.csv" dataSetPath="/Price"/>
    <ElectricEnergyRefund fileName="week.csv" dataSetPath="/Refund"/>
  </Grid>
  <PV id="pv">
    <PredictedPowerOutput fileName="week.csv" dataSetPath="/PV"/>
  </PV>
  <Battery id="battery" initialEnergyLevel="5.0"/>
  <HeatBuffer id="buffer" initialThermalEnergyLevel="10.0"/>
  <Converter id="boiler">
    <PrimaryEnergyPrice fileName="week.csv" dataSetPath="/Gas"/>
  </Converter>
</BuildingSituation>
"""


class WeekStorageLp(CliWorkload):
    """One large pure LP (7392 vars, 2688 rows) solved at the root: model
    build, presolve, LP export and extraction weigh here, B&B does not.
    Every instance is feasible by construction: the grid covers the electric
    demand and the boiler alone covers the heat demand."""

    name = "week_storage_lp"
    pool_size = trace_pool_size = 8
    emit_lp = True

    def write_inputs(self, rng, scen):
        (scen / "config.xml").write_text(WEEK_CONFIG)
        (scen / "situation.xml").write_text(WEEK_SITUATION)
        rows = ["Elec,Water,HeatMin,HeatMax,Price,Refund,PV,Gas"]
        for day in range(7):
            cloud = rng.uniform(0.2, 1.0)
            base, peak = rng.uniform(20.0, 30.0), rng.uniform(0.0, 10.0)
            refund, gas = rng.uniform(5.0, 10.0), rng.uniform(5.0, 8.0)
            for q in range(96):
                hour = q * 0.25
                pv = 8.0 * cloud * max(0.0, math.sin(math.pi * (hour - 6.0) / 12.0))
                elec = 0.3 + rng.uniform(0.0, 0.5) + (1.0 if 18.0 <= hour < 22.0 else 0.0)
                heat_min = rng.uniform(1.0, 4.0) * (1.5 if hour < 7.0 else 1.0)
                heat_max = heat_min + rng.uniform(0.0, 3.0)
                price = base + (peak if 8.0 <= hour < 20.0 else 0.0)
                vals = (elec, rng.uniform(0.0, 1.5), heat_min, heat_max, price, refund,
                        pv, gas + 0.5 * math.sin(math.pi * hour / 12.0))
                rows.append(",".join(repr(round(v, 6)) for v in vals))
        (scen / "week.csv").write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# the fcCHP pattern sweep, driven through the API


def _criterion5_states():
    from test_acceptance import INITIAL_STATES  # the criterion-5 grid itself

    return INITIAL_STATES


STATE_KEYS = ("l", "r", "w", "k", "y", "z")
PATTERN_UNITS = 6


class FcchpPatternSweep:
    """fcCHP build, LinExpr building, array compile and presolve bound:
    about 85 % of the pairs are proven infeasible by presolve, the rest need
    one LP.  Built and solved through the API as in criterion 5."""

    name = "fcchp_pattern_sweep"
    pool_size = 1280
    trace_pool_size = 640  # keeps the traced pass near the run length

    def prepare_pool(self, seed: int, size: int, workdir: Path) -> list:
        states = _criterion5_states()
        patterns = list(itertools.product((0, 1), repeat=PATTERN_UNITS))
        # The whole grid in a seeded order that visits every initial state
        # once per round, so any prefix of it (the part a run reaches, or the
        # traced pool) holds every state about equally.  Latencies are
        # bimodal (presolve proves infeasibility early or late) with the
        # median on the edge of the slow mode: a seed-dependent mix of pairs
        # moved it by about 9 % between seeds.
        rng = np.random.default_rng(seed)
        orders = [rng.permutation(len(patterns)) for _ in states]
        pool = []
        for j in range(len(patterns)):
            for s in rng.permutation(len(states)):
                b = int(orders[s][j])
                pool.append(Instance(f"{self.name}/{s}/{b}",
                                     {"init": states[s], "bits": list(patterns[b])}))
        return pool[:size]

    @staticmethod
    def _plant(init: FcchpInitialState):
        model = Model("plant")
        builder = FcchpBuilder(model, TimeGrid(PATTERN_UNITS, 1.0), make_phys(),
                               make_costs(PATTERN_UNITS), init, name="fcCHP")
        return model, builder

    def run(self, inst: Instance):
        model, builder = self._plant(inst.spec["init"])
        builder.build()
        chain = builder.vars["chain"]
        for i, xi in enumerate(inst.spec["bits"]):
            model.add_constraint(chain.x[i] + 0.0, EQ, float(xi), f"fix.x.i={i + 1}")
        pressure = sum(v + 0.0 for v in builder.vars["y"])
        pressure = pressure + sum(v + 0.0 for v in builder.vars["k"])
        model.set_objective(pressure)
        return model, builder, besched.solver.solve_builtin(model, SolveOptions())

    def observe(self, inst: Instance, result) -> Observation:
        """The six state series of a feasible pattern, None otherwise."""
        model, builder, sol = result
        got = None
        if sol.feasible:
            got = {k: [round(v) for v in series(model, builder, k, sol)] for k in STATE_KEYS}
        return Observation(_sha(repr((sol.status, got)).encode()), got)

    def reference(self, inst: Instance):
        """The oracles' answer, in the form ``observe`` gives."""
        init, bits = inst.spec["init"], inst.spec["bits"]
        _, b = self._plant(init)  # only for its derived unit parameters
        sim = simulate_fcchp(bits, init, b.phys.warmup_table, b.up.start_up,
                             b.up.lower_init, b.phys.cold_start_threshold)
        ok = pattern_feasible(bits, init.x_0, init.start_history, b.hist_stop,
                              b.up.on_min, b.up.on_max, b.up.off_min, init.l_0)
        if not ok or sim is None:
            return None
        return {k: sim[k] for k in STATE_KEYS}

    def judge(self, got, expected) -> str:
        if (got is None) != (expected is None):
            return f"solver feasible={got is not None}, oracles feasible={expected is not None}"
        if got != expected:
            return "state series differ from the simulator"
        return ""


WORKLOADS = {w.name: w for w in (DayHeatpumpTariff, FcchpPatternSweep, WeekStorageLp)}
