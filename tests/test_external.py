"""External-solver bridge: GLPK adapter, parsing, and cross-checks."""

import sys

import numpy as np
import pytest

from besched.errors import SolutionParseError, SolverInconsistency, SpawnError
from besched.external import glpk_command, parse_glpk_solution, solve_external
from besched.milp import GE, LE, Model, export_lp
from besched.solver import INFEASIBLE, OPTIMAL, SolveOptions, solve_builtin

from oracles import brute_force_solve, random_milp


def _external_opts(**kw):
    return SolveOptions(backend="external", command=glpk_command(), **kw)


def test_tiny_model_builtin_vs_external():
    m = Model()
    x = m.binary("x")
    u = m.continuous("u", 0, 4)
    m.add_constraint(2 * x + u, GE, 3.0, "cover")
    m.set_objective(x + u)
    a = solve_builtin(m)
    b = solve_external(m, _external_opts())
    assert a.status == OPTIMAL and b.status == OPTIMAL
    assert a.objective == pytest.approx(b.objective, abs=1e-6)


def test_external_infeasible():
    m = Model()
    x = m.continuous("x", 0, 1)
    m.add_constraint(x + 0.0, GE, 2.0, "impossible")
    assert solve_external(m, _external_opts()).status == INFEASIBLE


def test_external_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = random_milp(rng, max_binaries=6, max_rows=8)
        status, obj, _ = brute_force_solve(m)
        sol = solve_external(m, _external_opts())
        if status == "infeasible":
            assert sol.status == INFEASIBLE
        else:
            assert sol.objective == pytest.approx(obj, abs=1e-6)


def test_missing_binary_raises_spawn_error():
    m = Model()
    x = m.binary("x")
    m.set_objective(x + 0.0)
    with pytest.raises(SpawnError, match="no_such_solver"):
        solve_external(m, SolveOptions(backend="external",
                                       command="/no_such_solver {in} {out}"))


def test_command_template_placeholders_required():
    m = Model()
    m.binary("x")
    from besched.errors import SolverError

    with pytest.raises(SolverError):
        solve_external(m, SolveOptions(backend="external", command="solver only_in {in}"))


def test_parse_glpk_solution_roundtrip():
    text = (
        "c solved\n"
        "c column 1 x\n"
        "c column 2 u\n"
        "s mip 2 3 o 7.5\n"
        "j 1 1\n"
        "j 2 3.25\n"
    )
    status, obj, values = parse_glpk_solution(text)
    assert status == "o"
    assert obj == 7.5
    assert values == {"x": 1.0, "u": 3.25}


def test_parse_rejects_unnamed_columns():
    text = "s mip 1 1 o 0\nj 1 1\n"
    with pytest.raises(SolutionParseError, match="without names"):
        parse_glpk_solution(text)


def test_parse_rejects_missing_status():
    with pytest.raises(SolutionParseError):
        parse_glpk_solution("c nothing here\n")


def test_inconsistent_external_solution_rejected(tmp_path):
    # a fake solver that claims optimality with a value violating the row
    fake = tmp_path / "fake.py"
    fake.write_text(
        "import sys\n"
        "open(sys.argv[2], 'w').write("
        "'c column 1 x\\ns mip 1 1 o 0\\nj 1 0\\n')\n"
    )
    m = Model()
    x = m.binary("x")
    m.add_constraint(x + 0.0, GE, 1.0, "force")
    m.set_objective(x + 0.0)
    import sys

    cmd = f"{sys.executable} {fake} {{in}} {{out}}"
    with pytest.raises(SolverInconsistency):
        solve_external(m, SolveOptions(backend="external", command=cmd))


def test_every_external_ending_carries_the_same_stats(tmp_path):
    # a fake solver that prints the solution it is given, here "x = 1" or
    # "infeasible"
    fake = tmp_path / "fake.py"
    fake.write_text("import sys\nopen(sys.argv[3], 'w').write(open(sys.argv[1]).read())\n")
    m = Model()
    x = m.binary("x")
    m.add_constraint(x + 0.0, GE, 1.0, "force")
    m.set_objective(x + 0.0)
    import sys

    stats = {}
    for status, text in ((OPTIMAL, "c column 1 x\ns mip 1 1 o 1\nj 1 1\n"),
                         (INFEASIBLE, "s mip 0 0 n 0\n")):
        (tmp_path / status).write_text(text)
        cmd = f"{sys.executable} {fake} {tmp_path / status} {{in}} {{out}}"
        sol = solve_external(m, SolveOptions(backend="external", command=cmd))
        assert sol.status == status and sol.stats["backend"] == "external"
        stats[status] = sol.stats.keys()
    assert stats[OPTIMAL] == stats[INFEASIBLE] == {"backend", "time"}


def test_sanitized_names_map_back():
    m = Model()
    x = m.binary("plant.x[1]")
    m.add_constraint(x + 0.0, LE, 1.0, "cap")
    m.set_objective(-1 * x)
    sol = solve_external(m, _external_opts())
    assert sol.status == OPTIMAL
    assert sol.x[x.id] == 1.0


def test_an_external_solution_holds_its_values_by_column_id(tmp_path):
    # a fake solver that prints the solution it is given, in LP names
    fake = tmp_path / "fake.py"
    fake.write_text("import sys\nopen(sys.argv[3], 'w').write(open(sys.argv[1]).read())\n")
    m = Model()
    x = m.binary("plant.x[1]")
    ids = m.continuous_series("p", 2, 0.0, 2.0)
    m.add_constraint(x + m.vars[int(ids[0])] + m.vars[int(ids[1])], LE, 3.0, "cap")
    m.set_objective(-1 * x)
    names = export_lp(m).name_map
    assert set(names) == {"plant_x_1_", "p_1_", "p_2_"}
    text = ("c column 1 plant_x_1_\nc column 2 p_2_\nc column 3 p_1_\ns mip 1 3 o -1\n"
            "j 1 0.9999999\nj 2 1.5\nj 3 0.5\n")
    (tmp_path / "given.sol").write_text(text)
    cmd = f"{sys.executable} {fake} {tmp_path / 'given.sol'} {{in}} {{out}}"
    sol = solve_external(m, SolveOptions(backend="external", command=cmd))
    assert sol.status == OPTIMAL and sol.objective == -1.0
    assert sol.x.tolist() == [1.0, 0.5, 1.5]
    (tmp_path / "given.sol").write_text("c column 1 plant_x_1_\ns mip 1 3 o -1\nj 1 1\n")
    with pytest.raises(SolutionParseError, match=r"missing variables: \['p\[1\]', 'p\[2\]'\]"):
        solve_external(m, SolveOptions(backend="external", command=cmd))
    (tmp_path / "given.sol").write_text(text + "c column 4 q_1_\nj 4 2\n")
    with pytest.raises(SolutionParseError, match=r"unknown variables: \['q_1_'\]"):
        solve_external(m, SolveOptions(backend="external", command=cmd))
