from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from mbsdej import (CEBackend, MarkSpace, PenalizationSchedule, Problem,
                    TimeGrid, build_tree, default_levels, simulate_paths,
                    solve_bsde, solve_mbsde)
from mbsdej.registry import make_driver, make_family, make_terminal
from mbsdej.verification import block_y0_se, check_uniqueness

# one profile for every property test: no per-example deadline (solves vary
# in time with the machine), and a failing example is printed as a blob that
# @reproduce_failure replays
settings.register_profile("mbsdej", deadline=None, print_blob=True)
settings.load_profile("mbsdej")


@pytest.fixture(scope="session")
def grid6():
    return TimeGrid.uniform(1.0, 6)


@pytest.fixture(scope="session")
def marks1():
    return MarkSpace([1.0], [1.0])


@pytest.fixture(scope="session")
def no_marks():
    return MarkSpace.empty()


@pytest.fixture(scope="session")
def tree6(grid6, no_marks):
    return build_tree(grid6, no_marks)


@pytest.fixture(scope="session")
def tree6_jumps(grid6, marks1):
    return build_tree(grid6, marks1)


@pytest.fixture(scope="session")
def tree_backend():
    return CEBackend(kind="tree")


@pytest.fixture(scope="session")
def reg_backend():
    return CEBackend(kind="regression", degree=2)


@pytest.fixture(scope="session")
def reflected_problem(grid6, no_marks):
    """Reflection at 0, f == 0, xi = W_T: the workhorse benchmark."""
    return Problem(grid6, no_marks,
                   make_driver("zero", {}, no_marks),
                   make_terminal("brownian", {}, no_marks, grid6),
                   family=make_family("reflect_at", {"a": 0.0}, grid6))


@pytest.fixture(scope="session")
def slack_problem(grid6, no_marks):
    """xi = (W_T)+ + 1 over the barrier 0: the penalty never activates."""
    return Problem(grid6, no_marks,
                   make_driver("zero", {}, no_marks),
                   make_terminal("brownian_positive", {"shift": 1.0},
                                 no_marks, grid6),
                   family=make_family("reflect_at", {"a": 0.0}, grid6))


@pytest.fixture(scope="session")
def full_schedule():
    return PenalizationSchedule(levels=default_levels(), stop_tolerance=1e-9)


@pytest.fixture(scope="session")
def ensemble_small(grid6, marks1):
    return simulate_paths(grid6, marks1, 4000, seed=11)


def projection_value(tree, terminal_values, barrier=0.0):
    """Snell-style oracle: V_i = max(barrier, E_i[V_{i+1}])."""
    v = np.asarray(terminal_values, dtype=float).copy()
    for i in reversed(range(tree.grid.n_steps)):
        v = np.maximum(barrier, v.reshape(-1, tree.branching) @ tree.probs[i])
    return float(v[0])


def full_solution(problem, scenario, backend,
                  schedule=PenalizationSchedule()):
    """Solution at every level of the schedule, or the plain BSDE solution
    of a problem without a family."""
    if problem.family is None:
        return solve_bsde(problem.driver, problem.terminal, scenario,
                          problem.grid, problem.marks, backend)
    sol, _ = solve_mbsde(problem, replace(schedule, stop_tolerance=0.0),
                         scenario, backend)
    return sol


def uniqueness_entry(problem, scenario_a, scenario_b, backend_a, backend_b,
                     schedule=PenalizationSchedule()):
    """check_uniqueness of two full-ladder solutions, gated by their combined
    batch-means standard error."""
    def y0_se(scenario, backend):
        return block_y0_se(scenario, lambda sub: full_solution(
            problem, sub, backend, schedule).y0())

    se = np.hypot(y0_se(scenario_a, backend_a), y0_se(scenario_b, backend_b))
    return check_uniqueness(
        full_solution(problem, scenario_a, backend_a, schedule),
        full_solution(problem, scenario_b, backend_b, schedule), se)
