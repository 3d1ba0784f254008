"""Smoke test of the benchmark itself, at minimal size.

    python3 -m pytest perfbench/test_smoke.py

It is not part of the package's test suite (``testpaths`` names ``tests``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _tiny(workload, trace=False):
    return run.run_benchmark(workload, seed=3, seconds=0.2, trace=trace, pool_size=2,
                             setup_runs=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _tiny(workload, trace)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["summary"]["metrics"].items()}
    assert got == expected
    assert result["summary"]["failed"] == 0
    assert result["summary"]["correct"]


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_wrong_reference_objective_counts_as_failed(monkeypatch):
    real = workloads.DayHeatpumpTariff.reference
    monkeypatch.setattr(workloads.DayHeatpumpTariff, "reference",
                        lambda self, inst: real(self, inst) + 1.0)
    result = _tiny("day_heatpump_tariff")
    summary = result["summary"]
    assert summary["attempted"] >= 1
    assert summary["failed"] == summary["attempted"]
    assert not summary["correct"]
    assert result["detail"]["failed_share"] == 1.0
    assert result["summary"]["metrics"]["correct_share"]["value"] == 0.0


def test_traced_layers_account_for_the_instance_time():
    result = _tiny("week_storage_lp", trace=True)
    instance_s = result["summary"]["metrics"]["trace.instance_s"]["value"]
    assert result["detail"]["layer_self_sum_s"] == pytest.approx(instance_s)


def test_command_prints_the_result_as_its_last_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fcchp_pattern_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "week_storage_lp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
