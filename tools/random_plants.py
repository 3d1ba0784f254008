"""Criterion 5 over random fcCHP plants: the paper's model against the oracles.

Usage, from the root of the repository:

    python3 tools/random_plants.py --seed 2 --cases 4000

Each case draws a plant and a pattern from ``numpy.random.default_rng(seed)``:

- a warm-up table from ``TABLES``, up to (1, ..., 7);
- a cold-start threshold of 1-4 units;
- minimum on time 1-3 h, maximum on time 3-10 h, minimum off time 1-3 h;
- start-up 1-3 h, init and shut-down durations 1-2 h;
- one of the 20 initial states of criterion 5 (``INITIAL_STATES``);
- 4-8 units of 1 h and an on/off pattern over them.

A draw that the plant or the builder refuses (a ``ModelError`` such as an
init duration longer than the start-up, or an ``InconsistentHistory``) is
counted as refused and skipped.  Otherwise the pattern is fixed and solved
as criterion 5 does (``tests/helpers.solve_pattern``), and the answer is
compared with ``simulate_fcchp`` and ``pattern_feasible`` as criterion 5
compares it (``tests/helpers.oracle_difference``): feasibility, and on a
feasible pattern every series of ``tests/helpers.STATE_KEYS``.

Each disagreement is printed as one line (case, state, table, pattern, the
builder's status and what differs), then one summary line.  The exit code
is 1 if any case disagreed, else 0.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from besched.errors import ModelError  # noqa: E402

from helpers import (build_plant, make_costs, make_phys, oracle_difference,  # noqa: E402
                     solve_pattern)
from test_acceptance import INITIAL_STATES  # noqa: E402

TABLES = ((1,), (1, 2), (2, 2, 3), (1, 2, 2, 3, 3, 3), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6, 7))


def draw(rng: np.random.Generator) -> dict:
    """One case's plant parameters, initial state and pattern."""
    n = int(rng.integers(4, 9))
    return {
        "phys": dict(
            warmup_table=TABLES[int(rng.integers(len(TABLES)))],
            cold_start_threshold=int(rng.integers(1, 5)),
            d_on_min=float(rng.integers(1, 4)), d_on_max=float(rng.integers(3, 11)),
            d_off_min=float(rng.integers(1, 4)), d_start_up=float(rng.integers(1, 4)),
            d_init=float(rng.integers(1, 3)), d_down=float(rng.integers(1, 3)),
        ),
        "state": int(rng.integers(len(INITIAL_STATES))),
        "bits": [int(b) for b in rng.integers(0, 2, n)],
    }


def check(case: dict):
    """None if the draw is refused, else (the builder's status, feasible and
    agreeing with the oracles, what differs from them or "")."""
    init, bits = INITIAL_STATES[case["state"]], case["bits"]
    n = len(bits)
    try:
        m, b = build_plant(n, phys=make_phys(**case["phys"]), costs=make_costs(n), init=init)
    except ModelError:  # InconsistentHistory included
        return None
    sol = solve_pattern(m, b, bits)
    differs = oracle_difference(m, b, bits, sol)
    return sol.status, sol.feasible and not differs, differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cases", type=int, required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    t0 = time.monotonic()
    refused = feasible = disagreed = 0
    for k in range(args.cases):
        case = draw(rng)
        result = check(case)
        if result is None:
            refused += 1
            continue
        status, agreed_feasible, differs = result
        feasible += agreed_feasible
        if differs:
            disagreed += 1
            phys = case["phys"]
            others = ", ".join(f"{p}={v}" for p, v in phys.items() if p != "warmup_table")
            print(f"case {k}: state {case['state']} table {phys['warmup_table']} "
                  f"pattern {''.join(map(str, case['bits']))} {status}: {differs} ({others})")
    print(f"seed {args.seed}: {args.cases} cases, {args.cases - refused} built, "
          f"{refused} refused, {feasible} feasible and agreeing, {disagreed} disagreements, "
          f"{time.monotonic() - t0:.1f} s")
    return 1 if disagreed else 0


if __name__ == "__main__":
    sys.exit(main())
