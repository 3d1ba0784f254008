"""Write a BENCH_<n>.json: every BENCHMARK.json workload, run k times.

Usage, from the root of the repository:

    python3 tools/bench.py --out BENCH_6.json --runs 10 --seed 601
    python3 tools/bench.py --out BENCH_6.json --runs 10 --seed 601 --baseline ../parent

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a fresh interpreter, with T the ``run_seconds`` of
BENCHMARK.json and seed S = --seed + i for run i.  With
``--baseline`` (another checkout, e.g. a ``git clone`` of the parent commit)
every seed runs in both checkouts, as an alternating pair: the baseline goes
first on even runs and second on odd ones, so slow drift of the host hits both
sides alike.  Three alternating pairs of traced runs (``--trace 1``, all at
seed --seed) per workload give each side's per-layer self times, as the median
of its three runs, and the model census.

The file records, per workload and side, every end-to-end value with its
median and quartiles, the pairs the change won with the exact one-sided
sign-test p-value of those wins (``change_better_p``), the traced layer times and
the census; per workload and end-to-end metric, two verdicts (see
``compare``): whether the change meets the claim rule for a gain, and
whether it is worse than the baseline by more than the metric's bound; per
workload and side, the three values of each traced layer metric
(``per_layer_runs``) beside their median (``per_layer``); per workload, the
change minus the baseline of each traced layer median (``per_layer_change``,
printed as baseline -> change), whether the two sides' runs of it separate
(``per_layer_separated``, see ``separated``; where they do not and not all
six runs read the same value, the change is printed ``unresolved``) and the
change minus the baseline of
each census count (``census_change``, printed by ``census_line``); the git
revision of each checkout with the files under ``MEASURED_PATHS`` that
differ from it or are untracked, two line counts of each
``src/besched/*.py`` module in each checkout and their totals: physical
lines (``line_counts``, ``line_totals``) and code lines, the lines that hold
a token other than a comment or a docstring (``code_line_counts``,
``code_line_totals``; both totals and every module whose counts differ are
printed as baseline -> change), and the machine.  The deltas of the medians against the highest-numbered
``BENCH_<m>.json`` with m lower than the number in --out are printed and
stored.
"""

from __future__ import annotations

import argparse
import ast
import datetime
import io
import json
import math
import re
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# the paths whose contents change what a run measures; documents are not among them
MEASURED_PATHS = ("src", "tests", "tools", "perfbench", "BENCHMARK.json", "pyproject.toml")
# alternating pairs of traced runs per workload, all at seed --seed
TRACED_PAIRS = 3
# the model census of a traced run, per instance
CENSUS = ("milp.vars", "milp.int_vars", "milp.rows", "milp.nnz")
# the tokens that make no line a code line
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; returns its summary and detail records."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"summary": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"]}


def alternating(sides: dict, i: int) -> list:
    """The order of pair i: the baseline first on even pairs, second on odd."""
    return list(sides) if i % 2 else list(reversed(sides))


def revision(checkout: Path) -> dict:
    def git(*args):
        out = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    def measured(*args):
        return (git(*args, "--", *MEASURED_PATHS) or "").splitlines()

    changed = sorted({*measured("diff", "--name-only", "HEAD"),
                      *measured("ls-files", "--others", "--exclude-standard")})
    return {"revision": git("rev-parse", "HEAD"), "uncommitted_changes": bool(changed),
            "changed_paths": changed}


def physical_lines(source: str) -> int:
    return len(source.splitlines())


def code_lines(source: str) -> int:
    """The lines that hold a token other than a comment or a docstring."""
    docstrings = [(doc.lineno, doc.end_lineno) for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(doc := node.body[0], ast.Expr)
                  and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str)]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or tok.type == tokenize.STRING and any(
                a <= tok.start[0] and tok.end[0] <= b for a, b in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def line_counts(checkout: Path, count=physical_lines) -> dict:
    return {path.name: count(path.read_text())
            for path in sorted((checkout / "src" / "besched").glob("*.py"))}


def module_line_changes(report: dict) -> list:
    """baseline -> change of both counts, for each module whose counts differ."""
    physical, code = report["line_counts"], report["code_line_counts"]
    changes = []
    for name in sorted(physical["baseline"].keys() | physical["change"].keys()):
        (a, b), (c, d) = ((counts["baseline"].get(name, 0), counts["change"].get(name, 0))
                          for counts in (physical, code))
        if (a, c) != (b, d):
            changes.append(f"src/besched/{name}: lines {a} -> {b}, code lines {c} -> {d}")
    return changes


def spread(values: list) -> dict:
    q1, q3 = values[0], values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def sign_test_p(wins: int, untied: int) -> float:
    """The exact one-sided sign-test p-value of ``wins`` won pairs out of
    ``untied`` pairs without a tie: the chance of at least that many wins
    when each side wins a pair with probability one half."""
    return sum(math.comb(untied, k) for k in range(wins, untied + 1)) / 2 ** untied


def compare(change: list, baseline: list, better: str, bound: float) -> dict:
    """One end-to-end metric of one workload, from runs paired by index.

    Beside each side's spread it records the pairs the change won (a tie
    counts for neither side), the exact one-sided sign-test p-value of those
    wins over the untied pairs (``change_better_p``, see ``sign_test_p``),
    the change of the medians and two verdicts:
    ``gain``, the claim rule of the choosing-metrics guide (the change won at
    least nine tenths of the pairs, and its median is better than the
    baseline's by more than the baseline's interquartile range), and
    ``beyond_bound``, the change's median worse than the baseline's by more
    than ``bound`` (the metric's BENCHMARK.json bound) times the baseline
    median.
    """
    rec = {"change": spread(change), "baseline": spread(baseline)}
    sign = 1.0 if better == "lower" else -1.0
    gaps = [sign * (c - b) for c, b in zip(change, baseline)]
    wins = sum(gap < 0 for gap in gaps)
    base = rec["baseline"]["median"]
    rec["change_better_pairs"] = wins
    rec["change_better_p"] = sign_test_p(wins, sum(gap != 0 for gap in gaps))
    rec["median_change"] = rec["change"]["median"] - base
    improvement = -sign * rec["median_change"]  # positive when the change is better
    rec["gain"] = wins >= 0.9 * min(len(change), len(baseline)) and (
        improvement > rec["baseline"]["iqr"])
    rec["beyond_bound"] = -improvement > bound * abs(base)
    return rec


def separated(change: list, baseline: list) -> bool:
    """Whether every change run lies on the same side of every baseline run:
    only then can a few traced runs tell which side is higher."""
    return max(change) < min(baseline) or min(change) > max(baseline)


def verdict_line(workload: str, metric: str, rec: dict, bound: float) -> str:
    base, change = rec["baseline"], rec["change"]
    return (f"{workload} {metric}: {base['median']:.4g} -> {change['median']:.4g}, "
            f"change better in {rec['change_better_pairs']}/{len(change['values'])} pairs "
            f"(sign test p {rec['change_better_p']:.3g}), "
            f"baseline IQR {base['iqr']:.4g}: gain {'met' if rec['gain'] else 'not met'}; "
            f"{'WORSE than' if rec['beyond_bound'] else 'within'} the {bound:g} bound")


def census_line(workload: str, census: dict) -> str:
    before, after = ("/".join(f"{census[side].get(k, 0):g}" for k in CENSUS)
                     for side in ("baseline", "change"))
    return f"{workload} census: vars/int_vars/rows/nnz {before} -> {after}"


def bench_number(path: Path):
    m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(m.group(1)) if m else None


def newest_earlier_bench(out: Path):
    number = bench_number(out)
    if number is None:
        return None
    found = [(bench_number(path), path) for path in REPO.glob("BENCH_*.json")]
    found = [(n, path) for n, path in found if n is not None and n < number]
    return max(found)[1] if found else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="another checkout to run in alternating pairs")
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"change": REPO}
    if args.baseline:
        sides["baseline"] = args.baseline.resolve()

    report = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "runs": args.runs, "seeds": [args.seed + i for i in range(args.runs)],
        "seconds": seconds,
        "sides": {side: revision(path) for side, path in sides.items()},
        "workloads": {},
    }
    for kind, count in (("line", physical_lines), ("code_line", code_lines)):
        counts = {side: line_counts(path, count) for side, path in sides.items()}
        report[f"{kind}_counts"] = counts
        report[f"{kind}_totals"] = {side: sum(c.values()) for side, c in counts.items()}
    if "baseline" in sides:
        for kind in ("line", "code_line"):
            totals = report[f"{kind}_totals"]
            print(f"src/besched {kind.replace('_', ' ')}s: {totals['baseline']} -> "
                  f"{totals['change']} ({totals['change'] - totals['baseline']:+d})",
                  file=sys.stderr, flush=True)
        for line in module_line_changes(report):
            print(line, file=sys.stderr, flush=True)
    for name in (w["name"] for w in spec["workloads"]):
        values = {side: {} for side in sides}
        failed = {side: 0 for side in sides}
        for i, seed in enumerate(report["seeds"]):
            for side in alternating(sides, i):
                res = run_perfbench(sides[side], name, seed, seconds, 0)
                report["machine"] = res["detail"]["machine"]
                failed[side] += res["summary"]["failed"]
                for metric, rec in res["summary"]["metrics"].items():
                    values[side].setdefault(metric, []).append(rec["value"])
                print(f"{name} seed {seed} {side}: " + ", ".join(
                    f"{m}={rec['value']:.4g}" for m, rec in res["summary"]["metrics"].items()),
                    file=sys.stderr, flush=True)
        entry = {"failed": failed, "end_to_end": {}, "census": {}}
        for metric in values["change"]:
            if "baseline" in sides:
                rec = compare(values["change"][metric], values["baseline"][metric],
                              better[metric], bounds[metric])
                print(verdict_line(name, metric, rec, bounds[metric]), file=sys.stderr,
                      flush=True)
            else:
                rec = {"change": spread(values["change"][metric])}
            entry["end_to_end"][metric] = rec
        traced = {side: {} for side in sides}
        for i in range(TRACED_PAIRS):
            for side in alternating(sides, i):
                res = run_perfbench(sides[side], name, args.seed, seconds, 1)
                for metric, rec in res["summary"]["metrics"].items():
                    traced[side].setdefault(metric, []).append(rec["value"])
                entry["census"][side] = res["detail"]["census_per_instance"]
        entry["per_layer_runs"] = traced
        entry["per_layer"] = {side: {m: statistics.median(v) for m, v in runs.items()}
                              for side, runs in traced.items()}
        if "baseline" in sides:
            census = entry["census"]
            entry["census_change"] = {k: census["change"].get(k, 0) - census["baseline"].get(k, 0)
                                      for k in CENSUS}
            print(census_line(name, census), file=sys.stderr, flush=True)
            layers = entry["per_layer"]
            entry["per_layer_change"], entry["per_layer_separated"] = {}, {}
            for metric, after in layers["change"].items():
                before = layers["baseline"].get(metric)
                if before is None:
                    continue
                entry["per_layer_change"][metric] = after - before
                runs = traced["change"][metric] + traced["baseline"][metric]
                apart = separated(traced["change"][metric], traced["baseline"][metric])
                entry["per_layer_separated"][metric] = apart
                # runs that all read one value (a count, an unused layer) differ in nothing
                unresolved = not apart and min(runs) != max(runs)
                print(f"{name} traced median {metric}: {before:.4g} -> {after:.4g} "
                      f"({after - before:+.4g}){' unresolved' if unresolved else ''}",
                      file=sys.stderr, flush=True)
        report["workloads"][name] = entry

    earlier = newest_earlier_bench(args.out)
    if earlier:
        old = json.loads(earlier.read_text())["workloads"]
        report["deltas_vs"] = {"file": earlier.name, "median_change": {
            name: {m: rec["change"]["median"] - old[name]["end_to_end"][m]["change"]["median"]
                   for m, rec in entry["end_to_end"].items() if m in old[name]["end_to_end"]}
            for name, entry in report["workloads"].items() if name in old}}
        print(json.dumps(report["deltas_vs"], indent=1))
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
