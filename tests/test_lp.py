import numpy as np
import pytest

from ecoprod import lp
from ecoprod.errors import LpConstructionError

from oracles import vertex_minimize


def make_lp(c, a, rel, b):
    return lp.LinearProgram(
        objective=np.asarray(c, dtype=float),
        constraints=np.asarray(a, dtype=float),
        relations=tuple(rel),
        rhs=np.asarray(b, dtype=float),
    )


def test_minimize_x_with_floor():
    solution = lp.solve(make_lp([1.0], [[1.0]], [">="], [1.0]))
    assert solution.status is lp.LpStatus.OPTIMAL
    assert solution.x[0] == pytest.approx(1.0, abs=1e-9)
    assert solution.objective_value == pytest.approx(1.0, abs=1e-9)


def test_segment_optimum_matches_vertex_oracle():
    program = make_lp([-1.0, -1.0], [[1.0, 1.0]], ["<="], [1.0])
    solution = lp.solve(program)
    oracle = vertex_minimize(program.objective, program.constraints, program.relations, program.rhs)
    assert solution.status is lp.LpStatus.OPTIMAL
    assert oracle is not None
    assert solution.objective_value == pytest.approx(-1.0, abs=1e-9)
    assert solution.objective_value == pytest.approx(oracle[0], abs=1e-9)
    # optimum sits on the segment x + y = 1
    assert solution.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_infeasible():
    solution = lp.solve(make_lp([1.0], [[1.0]], ["<="], [-1.0]))
    assert solution.status is lp.LpStatus.INFEASIBLE
    assert solution.x is None


def test_unbounded():
    solution = lp.solve(make_lp([-1.0], [[1.0]], [">="], [0.0]))
    assert solution.status is lp.LpStatus.UNBOUNDED


def test_equality_rows_handled_directly():
    # x + y = 1, minimize x -> (0, 1)
    solution = lp.solve(make_lp([1.0, 0.0], [[1.0, 1.0]], ["="], [1.0]))
    assert solution.status is lp.LpStatus.OPTIMAL
    assert solution.x[0] == pytest.approx(0.0, abs=1e-9)
    assert solution.x[1] == pytest.approx(1.0, abs=1e-9)


def test_dimension_mismatch_is_construction_error():
    with pytest.raises(LpConstructionError):
        make_lp([1.0, 2.0], [[1.0]], ["<="], [1.0])
    with pytest.raises(LpConstructionError):
        make_lp([1.0], [[1.0]], ["<=", ">="], [1.0])
    with pytest.raises(LpConstructionError):
        make_lp([np.nan], [[1.0]], ["<="], [1.0])
    with pytest.raises(LpConstructionError):
        make_lp([1.0], [[1.0]], ["<>"], [1.0])


def _random_bounded_lp(rng):
    """Random LP that is feasible (0 is inside) and bounded (box rows x <= upper)."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 7))
    a = rng.uniform(-2.0, 2.0, (m, n))
    rel = rng.choice(["<=", ">="], m)
    # Make x = 0 feasible: b >= 0 for <=, b <= 0 for >=.
    b = np.where(rel == "<=", rng.uniform(0.0, 3.0, m), -rng.uniform(0.0, 3.0, m))
    c = rng.uniform(-1.0, 1.0, n)
    upper = rng.uniform(1.0, 5.0, n)
    return make_lp(c, np.vstack([a, np.eye(n)]), [*rel.tolist(), *["<="] * n], np.concatenate([b, upper]))


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        program = _random_bounded_lp(rng)
        solution = lp.solve(program)
        assert solution.status is lp.LpStatus.OPTIMAL
        oracle = vertex_minimize(program.objective, program.constraints, program.relations, program.rhs)
        assert oracle is not None
        assert solution.objective_value == pytest.approx(oracle[0], abs=1e-7)


def test_optimal_solution_respects_constraints_and_bounds():
    rng = np.random.default_rng(99)
    for _ in range(40):
        program = _random_bounded_lp(rng)
        solution = lp.solve(program)
        assert solution.status is lp.LpStatus.OPTIMAL
        x = solution.x
        lhs = program.constraints @ x
        for i, rel in enumerate(program.relations):
            if rel == "<=":
                assert lhs[i] <= program.rhs[i] + 1e-8
            elif rel == ">=":
                assert lhs[i] >= program.rhs[i] - 1e-8
            else:
                assert lhs[i] == pytest.approx(program.rhs[i], abs=1e-8)
        assert np.all(x >= -1e-8)
        assert solution.objective_value == pytest.approx(float(program.objective @ x), abs=1e-9)


def test_bland_terminates_within_iteration_budget():
    rng = np.random.default_rng(7)
    for _ in range(40):
        program = _random_bounded_lp(rng)
        solution = lp.solve(program)
        m = program.n_constraints  # box rows included
        assert solution.iterations <= 100 * (m + program.n_variables)


def test_degenerate_klee_minty_like_instance_terminates():
    # Highly degenerate: many redundant rows through the optimum.
    c = np.array([-1.0, -1.0, -1.0])
    a = np.vstack([np.eye(3), np.ones((3, 3)), 2 * np.eye(3)])
    rel = ["<="] * 9
    b = np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 2.0, 2.0, 2.0])
    solution = lp.solve(make_lp(c, a, rel, b))
    assert solution.status is lp.LpStatus.OPTIMAL
    assert solution.objective_value == pytest.approx(-3.0, abs=1e-9)
