"""The day and week scenarios pinned by sha256: LP text, row tags, census,
ledger states, the solver's arrays and schedule.csv.

A change to how models are built must leave every digest as it is: the
solver sees the same arrays and the user gets the same files.
"""

import hashlib

import numpy as np
import pytest

from besched.cli import cli_main
from besched.milp import export_lp
from besched.pipeline import build_problem
from besched.solver import ModelArrays
from besched.xmlio import parse_configuration, parse_situation

from helpers import write_daily_scenario, write_week_scenario


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def _digests(write, tmp_path) -> dict:
    config_path, situation_path = write(tmp_path / "scen")
    config = parse_configuration(config_path.read_text())
    situation = parse_situation(situation_path.read_text(), config)
    problem = build_problem(config, situation, base_dir=config_path.parent)
    model, ledger = problem.model, problem.ledger
    rows = list(model.constraints)
    arrays = ModelArrays(model)
    out = tmp_path / "out"
    assert cli_main(["optimize", "--config", str(config_path), "--situation",
                     str(situation_path), "--out", str(out)]) == 0
    return {
        "census": (len(model.vars), sum(v.domain.is_integral for v in model.vars), len(rows),
                   sum(len(c.terms) for c in rows)),
        "lp": _sha(export_lp(model).text),
        "tags": _sha("\n".join(c.tag for c in rows)),
        # term order and float.hex of every coefficient and constant
        "states": _sha(repr([(name, [([(v, c.hex()) for v, c in e.terms.items()], e.const.hex())
                                     for e in exprs]) for name, exprs in ledger.states])),
        "arrays": _sha(*(np.ascontiguousarray(x).tobytes() for x in (
            arrays.a.indptr, arrays.a.indices, arrays.a.data, arrays.rhs, arrays.le, arrays.ge,
            arrays.c, arrays.lo, arrays.hi, arrays.integral)), arrays.obj_const.hex()),
        "schedule": _sha((out / "schedule.csv").read_bytes()),
    }


PINNED = {
    "day": (write_daily_scenario, {
        "census": (864, 288, 1056, 2587),
        "lp": "71edb8f99d2accdc114ab1d583d6c9a8e0efefe98e5c12590a35d227365e9559",
        "tags": "3ca7ffe857ad9fb88f62ce5eea265e26ea7e6875e65defc8a6a1d2be842db83a",
        "states": "ea6b7f46967cacceeed7fee3b8570f560cdba66d99c63e53a62daf88e6149837",
        "arrays": "06ffc129032e447a3f03cd370c1add0d0cd2dc16175e48fc88b4dd45e31392d2",
        "schedule": "e405aa24a80745019493be394f0435b5ef6cbe177c56d4d5f6bdc39fc34f4100",
    }),
    # 16 units at a negative price, 287 without refund, 140 without hot water
    "week": (lambda path: write_week_scenario(path, seed=12), {
        "census": (7392, 0, 2688, 11422),
        "lp": "d09ffc0359096cdfdc93f5508bfcb3b89dabf149a865a28efc5802827131b882",
        "tags": "76764f02611d964a86c523d9ac504ef482c31c52e6e78e5aea4a953a83e5dfc8",
        "states": "ed74c2b44c78c4d40b62652fc56f953dac5b96bf648add3ebeb06a7b48b51951",
        "arrays": "9be903ab778cd7443f588ab0dd4dacbddecf2b209db48ebacbe099876337100f",
        "schedule": "fd702c65b9bcc1e8033c5664db73005a534984c67ab0ab03282b212b777e8f16",
    }),
}


@pytest.mark.parametrize("scenario", PINNED)
def test_scenario_matches_its_pinned_digests(scenario, tmp_path):
    write, pinned = PINNED[scenario]
    assert _digests(write, tmp_path) == pinned
