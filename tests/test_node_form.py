"""Node-form tree solutions against the leaf-form bookkeeping they replace.

``leaf_form_solve`` and ``leaf_form_stats`` are the slow references: the
backward recursion with every step's values repeated onto the leaf paths,
and the level monitors as weighted sums over those leaf arrays.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsdej import (CEBackend, MarkSpace, PenalizationSchedule, Problem,
                    SolutionGrid, TimeGrid, build_tree, solve_mbsde,
                    solve_penalized)
from mbsdej import bsde, penalization
from mbsdej.bsde import NodeColumns
from mbsdej.monotone import PenalizedOperator
from mbsdej.penalization import LevelStats
from mbsdej.registry import make_driver, make_family, make_terminal

TREE = CEBackend(kind="tree")


def leaf_form_solve(problem, tree, penalty):
    """(Y, Z, psi, K) of solve_bsde on a tree, stored leaf by leaf."""
    grid, marks, driver = problem.grid, problem.marks, problem.driver
    project = bsde._projection(tree, TREE)
    n_steps, n = grid.n_steps, tree.n_leaves
    qw = driver.q_weights(marks)
    Y = np.empty((n, n_steps + 1))
    Z = np.empty((n, n_steps))
    psi = np.empty((n, n_steps, marks.n_marks))
    y = problem.terminal(tree.state(n_steps))
    Y[:, n_steps] = tree.expand_to_leaves(n_steps, y)
    pen = [None] * n_steps
    for i in reversed(range(n_steps)):
        ey, z, psi_i = project(i, y)
        y, pen[i], _ = bsde._implicit_step(driver, float(grid.times[i]),
                                           tree.state(i), ey, z, psi_i @ qw,
                                           grid.steps[i], penalty)
        Y[:, i] = tree.expand_to_leaves(i, y)
        Z[:, i] = tree.expand_to_leaves(i, z)
        psi[:, i, :] = tree.expand_to_leaves(i, psi_i)
    K = np.empty((n, n_steps + 1))
    k = np.zeros(n)
    K[:, 0] = k
    for i in range(n_steps):
        k -= tree.expand_to_leaves(i, pen[i])
        K[:, i + 1] = k
    return Y, Z, psi, K


def leaf_form_stats(problem, level, Y, Z, psi, K, w, prev_Y):
    """LevelStats as weighted sums over (n_paths, ...) leaf arrays."""
    if prev_Y is None:
        delta, viol = np.nan, 0.0
    else:
        diff = Y - prev_Y
        delta = float(np.max(np.abs(diff).T @ w))
        viol = float(max(0.0, np.max(-diff)))
    slack, steps = penalization.constraint_slack(Y, problem.family,
                                                 problem.grid)
    dt = problem.grid.steps
    energy = Z**2 @ dt + problem.marks.norm_pi_sq(psi) @ dt
    return LevelStats(
        level=level, y0=float(w @ Y[:, 0]), delta_prev=delta,
        mono_violation=viol,
        min_constraint_slack=float(slack.min()) if steps.size else np.inf,
        k_terminal_mean=float(w @ K[:, -1]),
        sup_y_sq=float(w @ np.max(Y**2, axis=1)),
        control_energy=float(w @ energy),
        k_terminal_sq=float(w @ K[:, -1]**2))


def assert_stats_close(got: LevelStats, want: LevelStats):
    for f in fields(LevelStats):
        np.testing.assert_allclose(getattr(got, f.name), getattr(want, f.name),
                                   rtol=1e-12, atol=0, equal_nan=True,
                                   err_msg=f.name)


@pytest.fixture(scope="module")
def jump_problem(grid6, marks1):
    """Reflection at 0 with a compensated-jump terminal, so psi != 0."""
    return Problem(grid6, marks1,
                   make_driver("mixed", {"a": 0.5, "bz": 0.5, "qc": 1.0,
                                         "gamma": 0.5}, marks1),
                   make_terminal("compensated_jumps", {}, marks1, grid6),
                   family=make_family("reflect_at", {"a": 0.0}, grid6))


def test_levels_match_leaf_form_reference(jump_problem, tree6_jumps):
    prev = prev_Y = None
    for level in (1, 4, 16, 64, 256, 1024):
        sol = solve_penalized(jump_problem, level, tree6_jumps, TREE)
        stats = penalization._level_stats(jump_problem, sol, level, prev)
        want = leaf_form_solve(jump_problem, tree6_jumps,
                               PenalizedOperator(jump_problem.family, level))
        for name, got, ref in zip("Y Z psi K".split(),
                                  (sol.Y, sol.Z, sol.psi, sol.K), want):
            assert got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name
        assert_stats_close(stats, leaf_form_stats(
            jump_problem, level, *want, tree6_jumps.weights, prev_Y))
        prev, prev_Y = sol, want[0]
    assert np.abs(prev.psi).max() > 0.1
    assert prev.K[:, -1].max() > 0.1


def _random_node_solution(tree, rng):
    n = tree.grid.n_steps
    parts = [NodeColumns.empty(tree, range(n + 1)),
             NodeColumns.empty(tree, range(n)),
             NodeColumns.empty(tree, range(n), (tree.marks.n_marks,)),
             NodeColumns.empty(tree, [0, *range(n)])]
    for part, draw in zip(parts, (rng.normal, rng.normal, rng.normal,
                                  rng.uniform)):
        for column in part.columns:
            column[...] = draw(size=column.shape)
    return SolutionGrid(tree.grid, tree.marks, *parts, tree.weights)


@pytest.mark.parametrize("n_marks", [0, 1, 2])
@given(n_steps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       barrier=st.floats(-1.0, 1.0))
@settings(max_examples=15, deadline=None)
def test_node_monitors_match_leaf_formulas(n_marks, n_steps, seed, barrier):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.concatenate([[0.0],
                                    np.cumsum(rng.uniform(0.1, 0.6, n_steps))]))
    marks = MarkSpace(np.arange(1.0, n_marks + 1.0),
                      rng.uniform(0.5, 3.0, n_marks))
    tree = build_tree(grid, marks)
    problem = Problem(grid, marks, make_driver("zero", {}, marks),
                      make_terminal("zero", {}, marks, grid),
                      family=make_family("reflect_at", {"a": barrier}, grid))
    sol = _random_node_solution(tree, rng)
    prev = _random_node_solution(tree, rng)
    got = penalization._level_stats(problem, sol, 4, prev)
    assert not any(sol.nodes(name).expanded for name in ("Y", "Z", "psi", "K"))
    assert_stats_close(got, leaf_form_stats(problem, 4, sol.Y, sol.Z, sol.psi,
                                            sol.K, tree.weights, prev.Y))


def test_ladder_leaves_levels_unexpanded(jump_problem, grid6, tree6_jumps,
                                         monkeypatch):
    # the terminal bound is checked too: xi = N_T - 1 >= -1 = a_T
    problem = replace(jump_problem,
                      terminal=replace(jump_problem.terminal,
                                       lower_bound_check=True),
                      family=make_family("reflect_at", {"a": -1.0}, grid6))
    built = []
    leaves = NodeColumns.leaves

    def counted(self):
        if not self.expanded:
            built.append(self)
        return leaves(self)

    monkeypatch.setattr(NodeColumns, "leaves", counted)
    schedule = PenalizationSchedule(levels=(1, 4, 16, 64), stop_tolerance=0.0)
    sol, report = solve_mbsde(problem, schedule, tree6_jumps, TREE)
    assert report.levels == [1, 4, 16, 64]
    assert built == []

    y0, k_mean = sol.y0(), sol.k_terminal_mean()
    Y = sol.Y
    assert len(built) == 1 and sol.nodes("Y").expanded
    assert not sol.nodes("Z").expanded

    shifted = replace(sol, Y=Y + 1.0)
    assert shifted.y0() == pytest.approx(y0 + 1.0, rel=1e-12)
    np.testing.assert_array_equal(shifted.nodes("Y")[0], Y[:, 0] + 1.0)
    np.testing.assert_array_equal(shifted.Z, sol.Z)
    assert sol.y0() == y0                      # the original is untouched

    sol.K = sol.K - 2.0 * grid6.times[None, :]
    assert sol.k_terminal_mean() == pytest.approx(k_mean - 2.0, rel=1e-12)
    np.testing.assert_array_equal(sol.nodes("K")[-1], sol.K[:, -1])


def test_overlap_mean_weighs_cells_by_path_probability(grid6, marks1,
                                                       tree6_jumps, jump_problem):
    rng = np.random.default_rng(3)
    n, cols = tree6_jumps.n_leaves, grid6.n_steps + 1
    w = tree6_jumps.weights
    assert w.max() > 10 * w.min()                 # leaves of unequal weight

    def solution(Y):
        return SolutionGrid(grid6, marks1, Y, np.zeros((n, cols - 1)),
                            np.zeros((n, cols - 1, 1)), np.zeros((n, cols)), w)

    prev_Y = rng.normal(size=(n, cols))
    cur_Y = prev_Y + rng.normal(size=(n, cols))
    tau = rng.integers(0, cols, size=n)
    stats = penalization._overlap_stats(2, solution(prev_Y), solution(cur_Y),
                                        tau, jump_problem)
    mask = np.arange(cols)[None, :] >= tau[:, None]
    want = np.average((cur_Y - prev_Y)[mask],
                      weights=np.broadcast_to(w[:, None], mask.shape)[mask])
    assert stats.cells == mask.sum()
    assert stats.mean_y_diff == pytest.approx(want, rel=1e-12)
