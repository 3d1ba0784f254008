"""The day and week scenarios pinned by sha256: LP text (of ``export_lp`` and
of the CLI's ``--emit-lp`` file), row tags, census, ledger states, the
solver's arrays and schedule.csv.

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
    out, lp_path = tmp_path / "out", tmp_path / "model.lp"
    assert cli_main(["optimize", "--config", str(config_path), "--situation",
                     str(situation_path), "--out", str(out), "--emit-lp", str(lp_path)]) == 0
    lp = _sha(export_lp(model).text)
    assert _sha(lp_path.read_bytes()) == lp  # the CLI's LP file holds the same bytes
    return {
        "census": (len(model.vars), sum(v.domain.is_integral for v in model.vars), len(rows),
                   sum(len(c.terms) for c in rows)),
        "lp": lp,
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
        "census": (864, 288, 864, 2395),
        "lp": "e8b274f235ca9dda41821268bc29b84d5b2365080193bf69bea355ef43b52b45",
        "tags": "75158e6344d9d80ba3bcf5171a3cf17b5086ad54146997dc90d831369ec7dabd",
        "states": "ea6b7f46967cacceeed7fee3b8570f560cdba66d99c63e53a62daf88e6149837",
        "arrays": "0813144e0f80f83cd8ffba334fbf4c6e85e44344b5a73310248ffe78169368d0",
        "schedule": "e376756f65b6744577779575e463c7ab2d38046b78ec3c1ff29cc2efc75b4324",
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
