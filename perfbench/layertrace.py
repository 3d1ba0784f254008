"""In-memory span tracing around besched's layers, from outside the program.

The tracer replaces public functions of besched's modules (module attributes
or class methods) with wrappers that record a span per call: name, start,
end, parent span and instance id.  Nothing under ``src/`` knows about it.
A function imported by name into another module is looked up there, so it
is patched at every binding site the pipeline calls through.

A layer's self time is its span's duration minus the durations of its
direct children.  Calls are nested and single-threaded, so the self times of
all spans of one instance add up to the instance's root span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import besched.cli
import besched.components
import besched.pipeline
import besched.simplex
import besched.solver
from besched.fcchp import FcchpBuilder
from besched.solver import ModelArrays

# The instance root span: the CLI's own code on the CLI workloads, the
# caller's glue (model, pattern rows) on the pattern sweep.
ROOT = "cli"

_COMPONENT_BUILDERS = ("build_usage", "build_grid", "build_storage", "build_heat_pump",
                       "build_profile_source", "build_converter", "build_mech_chp")


def _targets():
    """(span name, owner, attribute) for every wrapped call site."""
    cli, pipeline, solver = besched.cli, besched.pipeline, besched.solver
    out = [
        ("xmlio.parse", cli, "parse_configuration"),
        ("xmlio.parse", cli, "parse_situation"),
        ("pipeline.build_problem", cli, "build_problem"),
        ("timeseries.load", pipeline, "load_timeseries"),
        ("fcchp.build", FcchpBuilder, "build"),
        ("assembly.balance_objective", pipeline, "build_balances"),
        ("assembly.balance_objective", pipeline, "build_objective"),
        ("milp.export_lp", cli, "export_lp"),
        ("solver.bnb", pipeline, "solve_builtin"),
        ("solver.bnb", solver, "solve_builtin"),
        ("solver.compile", ModelArrays, "__init__"),
        ("solver.presolve", ModelArrays, "tighten_bounds"),
        ("solver.lp", ModelArrays, "solve_lp"),
        ("solver.verify", ModelArrays, "max_violation"),
        ("simplex.lp", besched.simplex, "solve_lp"),
        ("schedule.extract", cli, "extract_schedule"),
        ("timeseries.write", cli, "write_schedule"),
    ]
    out += [("components.build", besched.components, f) for f in _COMPONENT_BUILDERS]
    return out


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    instance: str


class Tracer:
    """Records spans and counts while installed; keeps everything in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._instance = ""

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._instance))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, args, result) -> None:
        if name == "solver.lp":
            self.counts["solver.lp_calls"] += 1
        elif name == "simplex.lp":
            self.counts["simplex.lp_calls"] += 1
        elif name == "solver.presolve" and not result[0]:
            self.counts["solver.presolve_infeasible"] += 1
        elif name == "solver.bnb":
            model = args[0]
            self.counts["solver.nodes"] += result.stats.get("nodes", 0)
            self.counts["milp.vars"] += len(model.vars)
            self.counts["milp.int_vars"] += sum(v.domain.is_integral for v in model.vars)
            self.counts["milp.rows"] += len(model.constraints)
            self.counts["milp.nnz"] += sum(len(c.terms) for c in model.constraints)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, owner, attr in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def recording(self, key: str):
        """Trace one instance: patch every target, open the root span that
        the layer spans nest under, and restore the originals afterwards."""
        with self.installed():
            self._instance = key
            idx = self._open(ROOT)
            try:
                yield
            finally:
                self._close(idx)
                self._instance = ""

    # -- reporting -------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        totals: dict = defaultdict(float)
        for s, kids in zip(self.spans, child_time):
            totals[s.name] += (s.end - s.start) - kids
        return dict(totals)

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)
