"""tools/bench.py: the gain and bound verdicts, checked on faked runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # IQR 0.015


@pytest.mark.parametrize("change, better, gain, beyond", [
    ([b - 0.05 for b in BASE], "lower", True, False),  # 10/10 pairs, -0.05 beyond the IQR
    ([b - 0.05 for b in BASE[:9]] + [1.2], "lower", True, False),  # 9/10 pairs are enough
    ([b - 0.05 for b in BASE[:8]] + [1.2, 1.2], "lower", False, False),  # 8/10 are not
    ([b - 0.001 for b in BASE], "lower", False, False),  # every pair, inside the IQR
    ([b + 0.001 for b in BASE], "higher", False, False),
    ([b + 0.05 for b in BASE], "higher", True, False),
    ([b + 0.3 for b in BASE], "lower", False, True),  # +30 % against a 25 % bound
    ([b + 0.2 for b in BASE], "lower", False, False),  # +20 %: worse, but within
    ([b * 0.7 for b in BASE], "higher", False, True),
    (list(BASE), "lower", False, False),  # ties count for neither side
])
def test_the_verdicts_on_faked_runs(change, better, gain, beyond):
    rec = bench.compare(change, BASE, better, 0.25)
    assert rec["gain"] is gain and rec["beyond_bound"] is beyond
    assert rec["baseline"]["iqr"] == pytest.approx(0.015)
    line = bench.verdict_line("w", "m", rec, 0.25)
    assert ("gain met" in line) is gain and ("WORSE than the 0.25 bound" in line) is beyond


def test_ties_and_the_pair_count():
    rec = bench.compare([1.0, 0.9, 1.0, 0.8], [1.0, 1.0, 1.0, 1.0], "lower", 0.25)
    assert rec["change_better_pairs"] == 2 and rec["median_change"] == pytest.approx(-0.05)


def test_a_faked_benchmark_stores_and_prints_both_verdicts(tmp_path, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, seed, trace))
        faster = checkout == ROOT and workload == "week_storage_lp"
        values = {m: 1.0 + 0.001 * seed for m in metrics}
        if faster:
            values["latency_p50_s"] *= 0.8
        return {"summary": {"failed": 0, "metrics": {m: {"value": v}
                                                     for m, v in values.items()}},
                "detail": {"machine": {"cpus": 2}, "census_per_instance": {"milp.vars": 1}}}

    monkeypatch.setattr(bench, "run_perfbench", fake_run)
    baseline = tmp_path / "parent"
    baseline.mkdir()
    out = tmp_path / "BENCH_9999.json"
    assert bench.main(["--out", str(out), "--runs", "10", "--seed", "1",
                       "--baseline", str(baseline)]) == 0
    report = json.loads(out.read_text())
    week = report["workloads"]["week_storage_lp"]["end_to_end"]
    assert week["latency_p50_s"]["gain"] is True and week["latency_p50_s"]["beyond_bound"] is False
    assert week["setup_s"]["gain"] is False
    day = report["workloads"]["day_heatpump_tariff"]["end_to_end"]
    assert not any(rec["gain"] or rec["beyond_bound"] for rec in day.values())
    err = capsys.readouterr().err
    assert "week_storage_lp latency_p50_s: " in err and "gain met" in err
    assert err.count("gain not met") == 3 * len(metrics) - 1
    # ten pairs and three traced pairs per workload
    assert len(calls) == 3 * (2 * 10 + 2 * 3)
    assert "week_storage_lp census: vars/int_vars/rows/nnz 1/0/0/0 -> 1/0/0/0" in err
    assert report["workloads"]["week_storage_lp"]["census_change"] == {
        "milp.vars": 0, "milp.int_vars": 0, "milp.rows": 0, "milp.nnz": 0}


def test_the_census_line_reads_before_and_after():
    census = {
        "baseline": {"milp.vars": 864.0, "milp.int_vars": 288.0, "milp.rows": 1056.0,
                     "milp.nnz": 2587.0},
        "change": {"milp.vars": 864.0, "milp.int_vars": 288.0, "milp.rows": 864.0,
                   "milp.nnz": 2395.0},
    }
    assert bench.census_line("day", census) == (
        "day census: vars/int_vars/rows/nnz 864/288/1056/2587 -> 864/288/864/2395")


def _checkout(root, modules):
    package = root / "src" / "besched"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / name).write_text(source)
    return root


MODULE = '''"""A module docstring
over two lines."""

# a comment line
X = 1  # a comment after code


def f(a,
      b):
    """One line."""
    return """not a
docstring"""


class C:
    """A class docstring."""

    y = 2
'''


def test_code_lines_leave_out_comments_docstrings_and_blank_lines():
    assert bench.physical_lines(MODULE) == 18
    # X = 1, def f(a, / b):, return """not a / docstring""", class C:, y = 2
    assert bench.code_lines(MODULE) == 7


def test_both_line_counts_of_two_checkouts_and_the_modules_that_differ(tmp_path):
    base = _checkout(tmp_path / "base", {"a.py": MODULE, "same.py": "Z = 3\n"})
    change = _checkout(tmp_path / "change", {
        "a.py": MODULE.replace("# a comment line\n", ""),  # a physical line less only
        "b.py": '"""New."""\nW = 4\n', "same.py": "Z = 3\n"})
    sides = {"baseline": base, "change": change}
    report = {"line_counts": {s: bench.line_counts(p) for s, p in sides.items()},
              "code_line_counts": {s: bench.line_counts(p, bench.code_lines)
                                   for s, p in sides.items()}}
    assert report["line_counts"] == {"baseline": {"a.py": 18, "same.py": 1},
                                     "change": {"a.py": 17, "b.py": 2, "same.py": 1}}
    assert report["code_line_counts"] == {"baseline": {"a.py": 7, "same.py": 1},
                                          "change": {"a.py": 7, "b.py": 1, "same.py": 1}}
    assert bench.module_line_changes(report) == [
        "src/besched/a.py: lines 18 -> 17, code lines 7 -> 7",
        "src/besched/b.py: lines 0 -> 2, code lines 0 -> 1"]


def test_the_traced_layers_are_the_median_of_three_alternating_pairs(tmp_path, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = "change" if checkout == ROOT else "baseline"
        metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}
        if trace:
            traced.append((workload, side, seed))
            # the k-th traced run of a side reads 1, 3, 8 (+ 10 on the change):
            # the median is neither the first, the last nor the mean
            k = sum(t[:2] == (workload, side) for t in traced)
            metrics = {"fcchp.build_s": (1.0, 3.0, 8.0)[k - 1] + 10.0 * (side == "change")}
        return {"summary": {"failed": 0, "metrics": {m: {"value": v} for m, v in metrics.items()}},
                "detail": {"machine": {}, "census_per_instance": {"milp.vars": 1}}}

    monkeypatch.setattr(bench, "run_perfbench", fake_run)
    baseline = tmp_path / "parent"
    baseline.mkdir()
    out = tmp_path / "BENCH_9999.json"
    assert bench.main(["--out", str(out), "--runs", "2", "--seed", "7",
                       "--baseline", str(baseline)]) == 0
    week = json.loads(out.read_text())["workloads"]["week_storage_lp"]
    assert week["per_layer_runs"] == {"baseline": {"fcchp.build_s": [1.0, 3.0, 8.0]},
                                      "change": {"fcchp.build_s": [11.0, 13.0, 18.0]}}
    assert week["per_layer"] == {"baseline": {"fcchp.build_s": 3.0},
                                 "change": {"fcchp.build_s": 13.0}}
    assert week["per_layer_change"] == {"fcchp.build_s": 10.0}
    # all at seed --seed, the baseline first in the first and third pair
    assert [t[1:] for t in traced if t[0] == "week_storage_lp"] == [
        ("baseline", 7), ("change", 7), ("change", 7), ("baseline", 7), ("baseline", 7),
        ("change", 7)]


@pytest.mark.parametrize("change, baseline, apart", [
    ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], True),  # every change run below every baseline run
    ([7.0, 9.0, 8.0], [4.0, 6.0, 5.0], True),  # and above
    ([1.0, 2.0, 5.0], [4.0, 5.5, 6.0], False),  # one change run among the baseline's
    ([1.0, 2.0, 4.0], [4.0, 5.0, 6.0], False),  # a tie does not separate
    ([5.0, 5.0, 5.0], [5.0, 5.0, 5.0], False),
])
def test_two_sides_separate_only_when_no_run_lies_among_the_other_sides(change, baseline,
                                                                       apart):
    assert bench.separated(change, baseline) is apart


def test_a_traced_change_whose_runs_overlap_prints_unresolved(tmp_path, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = "change" if checkout == ROOT else "baseline"
        metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}
        if trace:
            traced.append((workload, side))
            k = traced.count((workload, side))
            # fcchp.build_s: 1, 3, 8 against 2, 4, 9 overlap; solver.lp_s: 1, 3, 8
            # against 11, 13, 18 do not; solver.nodes reads 16 in every run
            metrics = {"fcchp.build_s": (1.0, 3.0, 8.0)[k - 1] + (side == "change"),
                       "solver.lp_s": (1.0, 3.0, 8.0)[k - 1] + 10.0 * (side == "change"),
                       "solver.nodes": 16.0}
        return {"summary": {"failed": 0, "metrics": {m: {"value": v} for m, v in metrics.items()}},
                "detail": {"machine": {}, "census_per_instance": {"milp.vars": 1}}}

    monkeypatch.setattr(bench, "run_perfbench", fake_run)
    baseline = tmp_path / "parent"
    baseline.mkdir()
    out = tmp_path / "BENCH_9999.json"
    assert bench.main(["--out", str(out), "--runs", "2", "--seed", "7",
                       "--baseline", str(baseline)]) == 0
    day = json.loads(out.read_text())["workloads"]["day_heatpump_tariff"]
    assert day["per_layer_separated"] == {"fcchp.build_s": False, "solver.lp_s": True,
                                          "solver.nodes": False}
    err = capsys.readouterr().err
    assert "day_heatpump_tariff traced median fcchp.build_s: 3 -> 4 (+1) unresolved\n" in err
    assert "day_heatpump_tariff traced median solver.lp_s: 3 -> 13 (+10)\n" in err
    # the same value in all six runs: not separated, but nothing to resolve
    assert "day_heatpump_tariff traced median solver.nodes: 16 -> 16 (+0)\n" in err
