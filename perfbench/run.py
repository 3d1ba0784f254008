"""besched benchmark: wall time of ``besched optimize`` end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload day_heatpump_tariff --seed 1 --seconds 25 --trace 0

Each workload is a closed loop: one process, one client, one instance at a
time, cycling through a pool of distinct instances drawn from ``--seed``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  The line before it is a JSON ``detail`` record: the
machine, the limits of the measurement, the tail percentile and sample count,
the model census and, when traced, the tracing overhead.

The program under test is the package in ``src/`` next to this directory;
the benchmark stops with exit code 2 when it is missing.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads; setup probes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

if not (REPO / "src" / "besched").is_dir() or not (REPO / "tests" / "oracles.py").is_file():
    print(f"error: no besched sources under {REPO}", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
SPEC_WHY = {w["name"]: w["why"]
            for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]}

LIMITS = [
    "shared sandbox without CPU pinning: other tenants add noise to wall times",
    "external and glpk_runner are unmeasured: libglpk cannot be loaded here",
    "simplex (dense LP) is idle: every model here is above its 500 rows+columns threshold",
    "per-layer times come from a separate traced run; end-to-end times are untraced",
    "end-to-end times are scaled to nominal host speed by an interleaved calibration "
    "kernel (hostspeed.py); the raw times are reported beside them; setup_s is raw",
    "the untraced sweep seldom reaches a pair twice; the traced run repeats every other pair",
]

PER_LAYER_TIMES = {
    # metric: span name whose self time it reports, as a mean per instance
    "solver.lp_s": "solver.lp",
    "solver.presolve_s": "solver.presolve",
    "solver.compile_s": "solver.compile",
    "solver.verify_s": "solver.verify",
    "solver.bnb_self_s": "solver.bnb",
    "fcchp.build_s": "fcchp.build",
    "components.build_s": "components.build",
    "assembly.balance_objective_s": "assembly.balance_objective",
    "timeseries.load_s": "timeseries.load",
    "timeseries.write_s": "timeseries.write",
    "pipeline.build_problem_s": "pipeline.build_problem",
    "milp.export_lp_s": "milp.export_lp",
    "schedule.extract_s": "schedule.extract",
    "xmlio.parse_s": "xmlio.parse",
    "cli.self_s": "cli",
    "simplex.lp_s": "simplex.lp",
}
PER_LAYER_COUNTS = ("solver.nodes", "solver.lp_calls", "solver.presolve_infeasible",
                    "milp.vars", "milp.int_vars", "milp.rows", "milp.nnz",
                    "simplex.lp_calls")


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


def tail(latencies: list) -> tuple:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Loop:
    """Closed-loop runner over a pool, with the correctness and determinism
    gate.  An attempt fails when the call raises, when its output digest
    differs from the one the instance's first run produced, or, judged after
    the loop, when its output disagrees with the instance's reference."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.digests: dict = {}
        self.observed: list = []  # (instance, observation) awaiting judgement
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def once(self, inst, tracer=None) -> float:
        """Run one instance, traced when a tracer is given; returns its wall
        time in seconds.  Reading the output happens after timing and
        outside the trace."""
        self.attempted += 1
        with (tracer.recording(inst.key) if tracer else contextlib.nullcontext()):
            t0 = time.perf_counter()
            try:
                result = self.workload.run(inst)
            except Exception as exc:  # a failed instance is counted, the run goes on
                result = exc
            elapsed = time.perf_counter() - t0
        if isinstance(result, Exception):
            self._fail(inst, f"{type(result).__name__}: {result}")
            return elapsed
        obs = self.workload.observe(inst, result)
        if obs.digest != self.digests.setdefault(inst.key, obs.digest):
            self._fail(inst, "output differs from the instance's first run")
        else:
            self.observed.append((inst, obs))
        return elapsed

    def judge(self) -> None:
        """Compare every observed output with its instance's reference."""
        refs = {}
        for inst, obs in self.observed:
            if inst.key not in refs:
                refs[inst.key] = self.workload.reference(inst)
            reason = self.workload.judge(obs.data, refs[inst.key])
            if reason:
                self._fail(inst, reason)

    def _fail(self, inst, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{inst.key}: {reason}")


def measure(loop: Loop, seconds: float) -> dict:
    speed = hostspeed.HostSpeed()
    runs = []  # (start, wall seconds)
    speed.sample()
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        speed.sample_if_due()
        t0 = time.perf_counter()
        runs.append((t0, loop.once(loop.pool[len(runs) % len(loop.pool)])))
    speed.sample()
    raw = [w for _, w in runs]
    scaled = [w * speed.scale(t + w / 2.0) for t, w in runs]
    out = {"latency_samples": len(runs), "passes": len(runs) / len(loop.pool)}
    for suffix, xs in (("", scaled), ("_raw", raw)):
        out[f"latency_p50{suffix}_s"] = statistics.median(xs)
        out[f"latency_tail{suffix}_s"], out["tail_percentile"] = tail(xs)
        out[f"busy{suffix}_s"] = sum(xs)
    out["host_speed"] = {"nominal_kernel_s": hostspeed.NOMINAL_S,
                         "median_kernel_s": speed.median_s(), "samples": len(speed.samples)}
    return out


def measure_traced(loop: Loop, seconds: float) -> dict:
    """Every instance runs traced; every other one also runs untraced,
    before or after the traced run in turn, for the overhead estimate.  The
    first pass over the pool always completes, later ones stop at the
    deadline.  Counts are totals over the first pass, so they repeat exactly
    for a seed; times are means per traced instance."""
    tracer = Tracer()
    traced, untraced = [], []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for i, inst in enumerate(loop.pool):
            if passes and time.perf_counter() >= deadline:
                break
            if i % 4 == 2:
                untraced.append(loop.once(inst))
            traced.append(loop.once(inst, tracer))
            if i % 4 == 0:
                untraced.append(loop.once(inst))
        if passes == 0:
            first_counts = dict(tracer.counts)
        passes += 1
    n = len(traced)
    self_times = tracer.self_times()
    metrics = {name: self_times.get(span, 0.0) / n for name, span in PER_LAYER_TIMES.items()}
    for name in PER_LAYER_COUNTS:
        metrics[name] = first_counts.get(name, 0)
    lp_calls_all = sum(1 for s in tracer.spans if s.name == "solver.lp")
    metrics["solver.lp_ms_per_call"] = (
        1e3 * self_times.get("solver.lp", 0.0) / lp_calls_all if lp_calls_all else 0.0
    )
    p50_traced, p50_untraced = statistics.median(traced), statistics.median(untraced)
    metrics["trace.instance_s"] = tracer.root_time() / n
    metrics["trace.overhead_share"] = p50_traced / p50_untraced - 1.0
    return {
        "metrics": metrics,
        "traced_p50_s": p50_traced,
        "untraced_p50_s": p50_untraced,
        "traced_instances": n,
        "layer_self_sum_s": sum(self_times.values()) / n,
        "census_per_instance": {k: first_counts.get(k, 0) / len(loop.pool)
                                for k in PER_LAYER_COUNTS if k.startswith("milp.")},
        "passes": passes,
    }


def setup_times(workload: str, seed: int, runs: int) -> list:
    """Wall times of fresh interpreters that import everything and run one
    untimed warm-up instance each.  They are not scaled by host speed:
    start-up is mostly imports, which did not track the calibration kernel."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=170,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return times


def workdir_for(workload: str) -> Path:
    return REPO / ".bench_work" / f"{workload}-{os.getpid()}"


def setup_probe(workload_name: str, seed: int) -> int:
    workload = WORKLOADS[workload_name]()
    workdir = workdir_for(workload_name)
    try:
        workload.run(workload.prepare_pool(seed, 1, workdir)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  pool_size: int | None = None, setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload; returns {"summary": ..., "detail": ...}."""
    workload = WORKLOADS[workload_name]()
    setups = setup_times(workload_name, seed, setup_runs)
    workdir = workdir_for(workload_name)
    try:
        size = pool_size or (workload.trace_pool_size if trace else workload.pool_size)
        pool = workload.prepare_pool(seed, size, workdir)
        workload.run(pool[0])  # warm-up: lazy imports and first-call costs
        loop = Loop(workload, pool)
        stats = measure_traced(loop, seconds) if trace else measure(loop, seconds)
        # read before the reference solves, which would dominate it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop.judge()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = loop.attempted - loop.failed

    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in stats.pop("metrics").items()}
    else:
        stats["instances_per_raw_s"] = correct / stats["busy_raw_s"]
        metrics = {
            "latency_p50_s": {"value": stats["latency_p50_s"], "unit": "s"},
            "latency_tail_s": {"value": stats["latency_tail_s"], "unit": "s"},
            "instances_per_s": {"value": correct / stats["busy_s"], "unit": "1/s"},
            "correct_share": {"value": correct / loop.attempted, "unit": "share"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail = {
        "workload": workload_name,
        "why": SPEC_WHY[workload_name],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, 1 process, 1 client, 1 instance at a time",
        "pool_size": len(pool),
        "failed_share": loop.failed / loop.attempted,
        "errors": loop.errors,
        "setup_samples_s": setups,
        "machine": machine(),
        "limits": LIMITS,
        **stats,
    }
    summary = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return {"summary": summary, "detail": detail}


def _unit(metric: str) -> str:
    if metric.endswith("_ms_per_call"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "share"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": result["detail"]}, sort_keys=True))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
