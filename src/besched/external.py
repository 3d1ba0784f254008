"""Bridge to external MILP solvers via LP files and a subprocess.

The solver is described by a command template containing ``{in}`` and
``{out}`` placeholders, e.g.::

    /usr/bin/glpsol --lp {in} --write {out}

The default template runs the GLPK adapter shipped with this package
(:mod:`besched.glpk_runner`).  Returned solutions are validated
independently (integrality and every constraint row) before being trusted.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .errors import (
    SolutionParseError,
    SolverError,
    SolverInconsistency,
    SolverProcessError,
    SpawnError,
)
from .milp import Model, export_lp
from .solver import (FEASIBLE, INFEASIBLE, OPTIMAL, UNBOUNDED, VERIFY_TOL, ModelArrays,
                     Solution, SolveOptions)


def glpk_command() -> str:
    """Command template for the bundled GLPK adapter."""
    return f"{shlex.quote(sys.executable)} -m besched.glpk_runner {{in}} {{out}}"


def parse_glpk_solution(text: str):
    """Parse GLPK's machine-readable MIP solution format.

    Returns (status letter, objective, {column name: value}).  Column names
    are taken from ``c column <j> <name>`` comment lines written by the
    adapter.
    """
    names = {}
    values = {}
    status = None
    objective = math.nan
    unbounded_hint = False
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "c":
            if len(parts) == 4 and parts[1] == "column":
                names[int(parts[2])] = parts[3]
            elif "unbounded" in line:
                unbounded_hint = True
        elif parts[0] == "s":
            if len(parts) < 6 or parts[1] != "mip":
                raise SolutionParseError(f"malformed status line: {line!r}")
            status = parts[4]
            objective = float(parts[5])
        elif parts[0] == "j":
            values[int(parts[1])] = float(parts[2])
    if status is None:
        raise SolutionParseError("no 's mip' status line in solution file")
    if status == "u" and unbounded_hint:
        status = "unbounded"
    missing = sorted(set(values) - set(names))
    if missing:
        raise SolutionParseError(f"solution columns without names: {missing}")
    return status, objective, {names[j]: v for j, v in values.items()}


_STATUS_MAP = {"o": OPTIMAL, "f": FEASIBLE, "n": INFEASIBLE, "unbounded": UNBOUNDED}


def solve_external(model: Model, options: SolveOptions | None = None) -> Solution:
    """Solve the model with an external LP-file solver: the model is
    exported here, written to the command's ``{in}`` file, and the solution
    read from its ``{out}`` file is checked row by row."""
    options = options or SolveOptions(backend="external")
    template = options.command or glpk_command()
    if "{in}" not in template or "{out}" not in template:
        raise SolverError("external command template must contain {in} and {out}")

    t0 = time.monotonic()
    lp = export_lp(model)
    with tempfile.TemporaryDirectory(prefix="besched_") as tmp:
        in_path = Path(tmp) / "model.lp"
        out_path = Path(tmp) / "solution.sol"
        in_path.write_text(lp.text)
        argv = [
            a.replace("{in}", str(in_path)).replace("{out}", str(out_path))
            for a in shlex.split(template)
        ]
        try:
            proc = subprocess.run(
                argv,
                capture_output=True,
                text=True,
                timeout=options.time_limit,
            )
        except FileNotFoundError as exc:
            raise SpawnError(f"solver binary not found: {argv[0]!r}") from exc
        except subprocess.TimeoutExpired as exc:
            raise SolverProcessError(f"external solver exceeded the time limit: {argv}") from exc
        if proc.returncode != 0:
            raise SolverProcessError(
                f"external solver failed with code {proc.returncode}: "
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )
        if not out_path.exists():
            raise SolverProcessError(f"external solver produced no solution file: {argv}")
        status_letter, _reported_obj, by_lp_name = parse_glpk_solution(out_path.read_text())

    status = _STATUS_MAP.get(status_letter)
    if status is None:
        raise SolverError(f"external solver ended with status {status_letter!r}")
    stats = {"backend": "external", "time": time.monotonic() - t0}  # the same on every ending
    if status in (INFEASIBLE, UNBOUNDED):
        return Solution(status, stats=stats)

    # map sanitized LP names back to model names, and those to column ids
    names = model.column_names()
    column = {name: j for j, name in enumerate(names)}
    x = np.zeros(len(names))
    given = np.zeros(len(names), dtype=bool)
    unknown = []
    for lp_name, val in by_lp_name.items():
        j = column.get(lp.name_map.get(lp_name, lp_name))
        if j is None:
            unknown.append(lp_name)
        else:
            x[j], given[j] = val, True
    if unknown:
        raise SolutionParseError(f"solution contains unknown variables: {sorted(unknown)}")
    absent = [names[j] for j in np.flatnonzero(~given)]
    if absent:
        raise SolutionParseError(f"solution is missing variables: {absent[:5]}")

    arrays = ModelArrays(model)
    drift = np.abs(x - np.round(x))
    drift[~arrays.integral] = 0.0
    if np.any(drift > VERIFY_TOL):
        bad = names[int(np.argmax(drift))]
        raise SolverInconsistency(f"integer variable {bad!r} is fractional in external solution")
    x[arrays.integral] = np.round(x[arrays.integral])
    violation = arrays.max_violation(x)
    if violation > VERIFY_TOL:
        raise SolverInconsistency(
            f"external solution violates a constraint by {violation:.3e}"
        )
    return Solution(status, arrays.objective_value(x), stats, x)
