"""Command-line entry point.

Subcommands:
  optimize   build the model, solve it, write the schedule
  validate   parse inputs and check the generated model without solving
  explain    dump generated constraint rows, filtered by tag prefix

Exit codes of ``optimize``:
  0  solved (optimal or feasible): schedule.csv and metadata.json written
  3  time limit hit with an incumbent: its schedule.csv and metadata.json are
     written with status ``timeLimit``
  2  proven infeasible: metadata.json only
  1  any error, or a time limit hit before any incumbent (metadata.json only)

With ``--emit-lp``, the LP file is opened for appending on the calling
thread before the solve starts, so a path that cannot be written fails at
once and an existing file is not emptied yet.  The model is then exported
and written on a worker thread while the solver runs on the calling thread,
for either backend: the export only reads the built model, and HiGHS, like
the wait for an external solver, releases the interpreter lock.  The worker
is joined before anything under ``--out`` is written.  The LP file is
written whatever the solve ends in, an error included.  An error of the
export (a ``ModelError``, or an ``OSError`` of the write) wins over an error
of the solve; an LP file that this run created is then removed, and nothing
under ``--out`` is written.  The external backend exports the model once
more, for its own input file.

The argument parser is built once per process; each call parses its own
arguments into a new namespace.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .errors import BeschedError
from .milp import export_lp
from .pipeline import build_problem, solve_problem
from .schedule import Schedule, extract_schedule
from .solver import INFEASIBLE, TIME_LIMIT, SolveOptions
from .timeseries import write_schedule
from .xmlio import parse_configuration, parse_situation


def _positive_seconds(text: str) -> float:
    try:
        seconds = float(text)
    except ValueError:  # argparse would name this function in its message
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text!r}")
    return seconds


def _add_input_args(p):
    p.add_argument("--config", required=True, help="building configuration XML")
    p.add_argument("--situation", required=True, help="building situation XML")


@functools.cache
def _build_parser():
    # building it took 0.83 ms per call, parsing with it takes a fraction
    parser = argparse.ArgumentParser(
        prog="besched", description="Cost-minimal schedules for building energy systems"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="solve and write the schedule")
    _add_input_args(opt)
    opt.add_argument("--out", required=True, help="output directory")
    opt.add_argument("--solver", choices=["builtin", "external"], default="builtin")
    opt.add_argument("--solver-cmd", default=None,
                     help="external command template with {in} and {out}")
    opt.add_argument("--emit-lp", default=None, metavar="FILE",
                     help="also write the generated LP file")
    opt.add_argument("--time-limit", type=_positive_seconds, default=None, metavar="SECONDS")

    val = sub.add_parser("validate", help="parse and check inputs without solving")
    _add_input_args(val)

    exp = sub.add_parser("explain", help="print generated rows by tag prefix")
    _add_input_args(exp)
    exp.add_argument("--tag", default="", help="only rows whose tag starts with this prefix")
    return parser


def _load_problem(args):
    config = parse_configuration(Path(args.config).read_text())
    situation = parse_situation(Path(args.situation).read_text(), config)
    return build_problem(config, situation, base_dir=Path(args.situation).parent)


def _write_lp(model, path: str, created: bool) -> None:
    """Export the model and write it to ``path``.  On an error the file is
    removed if ``created`` says that this run made it; a file that was there
    before is left in place."""
    try:
        Path(path).write_text(export_lp(model).text)
    except BaseException:
        if created:
            Path(path).unlink(missing_ok=True)  # the export's error is the one raised
        raise


def _cmd_optimize(args) -> int:
    problem = _load_problem(args)
    options = SolveOptions(
        backend=args.solver, command=args.solver_cmd, time_limit=args.time_limit
    )
    if args.emit_lp:
        # an unwritable path fails before the solve; opened for appending, an
        # existing file keeps its content until the export has succeeded
        created = not os.path.lexists(args.emit_lp)
        open(args.emit_lp, "a").close()
        # the solve stays on this thread: its Python prelude then reaches
        # HiGHS, which releases the lock, before the export takes it over
        with ThreadPoolExecutor(max_workers=1) as pool:
            exported = pool.submit(_write_lp, problem.model, args.emit_lp, created)
            try:
                solution = solve_problem(problem, options)
            finally:
                exported.result()  # its error wins over the solve's
    else:
        solution = solve_problem(problem, options)
    if solution.x is None:
        empty = Schedule(problem.grid, solution.status, None, {}, dict(solution.stats))
        write_schedule(empty, args.out)
        print(f"no schedule: {solution.status}")
        return 2 if solution.status == INFEASIBLE else 1
    schedule = extract_schedule(problem.ledger, solution)
    written = write_schedule(schedule, args.out)
    print(f"{solution.status}: objective {solution.objective:.6f} ct")
    for label, path in sorted(written.items()):
        print(f"{label}: {path}")
    return 3 if solution.status == TIME_LIMIT else 0


def _cmd_validate(args) -> int:
    problem = _load_problem(args)
    model = problem.model
    report = model.validate()
    n_int = int(model.column_arrays().integral.sum())
    print(f"model ok: {model.n_columns} variables ({n_int} integer), "
          f"{len(model.constraints)} constraints")
    if report.infeasible_rows:
        for cid, tag in report.infeasible_rows:
            print(f"trivially infeasible row {cid}: {tag}")
        return 1
    return 0


def _cmd_explain(args) -> int:
    problem = _load_problem(args)
    names = problem.model.column_names()
    for con in problem.model.constraints:
        if not con.tag.startswith(args.tag):
            continue
        terms = " ".join(
            f"{'+' if c >= 0 else '-'} {abs(c):g} {names[vid]}"
            for vid, c in sorted(con.terms.items())
        )
        print(f"[{con.tag}] {terms} {con.sense} {con.rhs:g}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handler = {"optimize": _cmd_optimize, "validate": _cmd_validate,
               "explain": _cmd_explain}[args.command]
    try:
        return handler(args)
    except (BeschedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console-script entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
