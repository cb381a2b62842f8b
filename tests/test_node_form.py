"""Node-form tree solutions against the leaf-form bookkeeping they replace.

``leaf_form_solve``, ``leaf_form_stats`` and ``leaf_form_residual`` are the
slow references: the backward recursion with every step's values repeated
onto the leaf paths, the level monitors as weighted sums over those leaf
arrays, and the residual check on leaf arrays with the tree's increments
repeated onto every leaf path.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsdej import (CEBackend, MarkSpace, PenalizationSchedule, Problem,
                    SolutionGrid, TimeGrid, build_tree, residual_check,
                    simulate_paths, solve_mbsde, solve_penalized,
                    solve_unbounded)
from mbsdej import bsde, penalization
from mbsdej.bsde import NodeColumns, ResidualReport
from mbsdej.monotone import PenalizedOperator
from mbsdej.penalization import LevelStats
from mbsdej.registry import (make_driver, make_envelope, make_family,
                             make_terminal)
from mbsdej.scenario import ScenarioTree

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
    Y[:, n_steps] = tree.to_level(n_steps, y)
    pen = [None] * n_steps
    for i in reversed(range(n_steps)):
        ey, z, psi_i = project(i, y)
        y, pen[i], _ = bsde._implicit_step(driver, float(grid.times[i]),
                                           tree.state(i), ey, z, psi_i @ qw,
                                           grid.steps[i], penalty)
        Y[:, i] = tree.to_level(i, y)
        Z[:, i] = tree.to_level(i, z)
        psi[:, i, :] = tree.to_level(i, psi_i)
    K = np.empty((n, n_steps + 1))
    k = np.zeros(n)
    K[:, 0] = k
    for i in range(n_steps):
        k -= tree.to_level(i, pen[i])
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


def leaf_increments(tree):
    """Per leaf-path (dW, dN) arrays shaped like a PathEnsemble's."""
    n, m = tree.grid.n_steps, tree.marks.n_marks
    dW = np.empty((tree.n_leaves, n))
    dN = np.zeros((tree.n_leaves, n, m))
    for i in range(n):
        reps = tree.branching ** (n - i - 1)
        tiles = tree.level_size(i)
        dW[:, i] = np.tile(np.repeat(tree.dW[i], reps), tiles)
        for j in range(m):
            dN[:, i, j] = np.tile(np.repeat(tree.dN[i, :, j], reps), tiles)
    return dW, dN


def condexp_nodes(tree, i, leaf_values):
    """E[. | F_{t_i}] of a leaf function, one value per level-i node."""
    tail = np.ones(1)     # probabilities of the branch suffixes from level i
    for k in range(tree.grid.n_steps - 1, i - 1, -1):
        tail = (tree.probs[k][:, None] * tail[None, :]).ravel()
    return leaf_values.reshape(tree.level_size(i), tail.size) @ tail


def leaf_form_residual(solution, driver, scenario, grid, marks):
    """ResidualReport of the discrete dynamics on (n_paths, ...) leaf arrays."""
    n_steps = grid.n_steps
    m = marks.n_marks
    if isinstance(scenario, ScenarioTree):
        dW, dN = leaf_increments(scenario)
        # center with the tree's exact per-step jump probabilities
        pj = np.array([scenario.probs[i] @ scenario.dN[i] for i in range(n_steps)])
        centered = dN - pj[None, :, :]
        kind = "tree"
    else:
        dW = scenario.dW
        centered = scenario.dN_tilde
        kind = "ensemble"

    w = solution.weights
    mean_abs = np.empty(n_steps)
    max_abs = np.empty(n_steps)
    cond_mean = np.empty(n_steps)
    cond_cov = np.empty(n_steps)
    zscores = np.empty(n_steps)

    for i in range(n_steps):
        dt = grid.steps[i]
        node_state = scenario.state(i)
        state = replace(node_state,
                        w=scenario.to_level(i, node_state.w),
                        counts=scenario.to_level(i, node_state.counts))
        fval = driver.f(state.t, state, solution.Y[:, i], solution.Z[:, i],
                        solution.psi[:, i, :], marks)
        jump_part = np.einsum("pj,pj->p", solution.psi[:, i, :], centered[:, i, :]) \
            if m else 0.0
        resid = solution.Y[:, i] - (
            solution.Y[:, i + 1] + dt * np.asarray(fval)
            - solution.Z[:, i] * dW[:, i] - jump_part
            + (solution.K[:, i + 1] - solution.K[:, i]))
        mean_abs[i] = float(w @ np.abs(resid))
        max_abs[i] = float(np.max(np.abs(resid)))
        if kind == "tree":
            cond_mean[i] = float(np.max(np.abs(condexp_nodes(scenario, i, resid))))
            # E_i[resid * increment] from the conditional means at the
            # step-i children, weighted by the branch increments
            p = scenario.probs[i]
            child = condexp_nodes(scenario, i + 1, resid).reshape(
                -1, scenario.branching)
            cov = child @ np.column_stack(
                [p * scenario.dW[i], p[:, None] * (scenario.dN[i] - pj[i])])
            cond_cov[i] = float(np.max(np.abs(cov)))
        else:
            mu = float(resid.mean())
            mart = solution.Z[:, i] * dW[:, i] + jump_part
            scale = max(float(resid.std(ddof=1)), float(np.std(mart, ddof=1))) \
                if resid.size > 1 else 0.0
            se = scale / np.sqrt(resid.size)
            cond_mean[i] = abs(mu)
            zscores[i] = mu / se if se > 0 else 0.0

    tree = kind == "tree"
    return ResidualReport(mean_abs, max_abs, cond_mean, kind,
                          None if tree else zscores, cond_cov if tree else None)


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


def _random_grid_and_marks(rng, n_steps, n_marks):
    """A non-uniform grid and n_marks marks of random intensities."""
    grid = TimeGrid(np.concatenate([[0.0],
                                    np.cumsum(rng.uniform(0.1, 0.6, n_steps))]))
    marks = MarkSpace(np.arange(1.0, n_marks + 1.0),
                      rng.uniform(0.5, 3.0, n_marks))
    return grid, marks


def _mixed_driver(marks):
    """A driver that reads y, z and every mark's psi."""
    params = {"a": 0.7, "bz": -0.4, "qc": 1.3}
    if marks.n_marks:
        params["gamma"] = 0.5
    return make_driver("mixed", params, marks)


@pytest.mark.parametrize("n_marks", [0, 1, 2])
@given(n_steps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       barrier=st.floats(-1.0, 1.0))
@settings(max_examples=15, deadline=None)
def test_node_monitors_match_leaf_formulas(n_marks, n_steps, seed, barrier):
    rng = np.random.default_rng(seed)
    grid, marks = _random_grid_and_marks(rng, n_steps, n_marks)
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


@pytest.mark.parametrize("n_marks", [0, 1, 2])
@given(n_steps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_node_residual_matches_leaf_form(n_marks, n_steps, seed):
    rng = np.random.default_rng(seed)
    grid, marks = _random_grid_and_marks(rng, n_steps, n_marks)
    # Dyadic intensities and psi make the driver's aggregate psi @ (gamma
    # lambda) exact: BLAS sums the one-row product at the root in another
    # order than the many-row product on the leaves, which moves its last bit.
    marks = MarkSpace(marks.values, np.round(marks.intensities * 8) / 8)
    tree = build_tree(grid, marks)
    driver = _mixed_driver(marks)
    sol = _random_node_solution(tree, rng)
    for column in sol.nodes("psi").columns:
        column[...] = np.round(column * 1024) / 1024
    got = residual_check(sol, driver, tree, grid, marks)
    assert not any(sol.nodes(name).expanded for name in ("Y", "Z", "psi", "K"))
    want = leaf_form_residual(sol, driver, tree, grid, marks)
    assert got.kind == want.kind == "tree"
    assert got.max_abs.tobytes() == want.max_abs.tobytes()
    for name in ("mean_abs", "cond_mean_abs", "cond_cov_abs"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("n_marks", [0, 1, 2])
def test_ensemble_residual_matches_leaf_form(n_marks):
    rng = np.random.default_rng(n_marks)
    grid, marks = _random_grid_and_marks(rng, 4, n_marks)
    ens = simulate_paths(grid, marks, 500, seed=n_marks)
    n, cols = ens.n_paths, grid.n_steps + 1
    sol = SolutionGrid(grid, marks, rng.normal(size=(n, cols)),
                       rng.normal(size=(n, cols - 1)),
                       rng.normal(size=(n, cols - 1, n_marks)),
                       rng.uniform(size=(n, cols)), ens.weights)
    driver = _mixed_driver(marks)
    got = residual_check(sol, driver, ens, grid, marks)
    want = leaf_form_residual(sol, driver, ens, grid, marks)
    assert got.kind == want.kind == "ensemble"
    assert got.cond_cov_abs is want.cond_cov_abs is None
    for name in ("mean_abs", "max_abs", "cond_mean_abs", "cond_mean_z"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.fixture
def built_leaf_views(monkeypatch):
    """The NodeColumns whose leaf view is built, in the order built."""
    built = []
    leaves = NodeColumns.leaves

    def counted(self):
        if not self.expanded:
            built.append(self)
        return leaves(self)

    monkeypatch.setattr(NodeColumns, "leaves", counted)
    return built


def test_ladder_leaves_levels_unexpanded(jump_problem, grid6, tree6_jumps,
                                         built_leaf_views):
    # the terminal bound is checked too: xi = N_T - 1 >= -1 = a_T
    problem = replace(jump_problem,
                      terminal=replace(jump_problem.terminal,
                                       lower_bound_check=True),
                      family=make_family("reflect_at", {"a": -1.0}, grid6))
    built = built_leaf_views
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


def test_residual_reads_the_nodes_only(jump_problem, tree6_jumps,
                                       built_leaf_views):
    sol = solve_penalized(jump_problem, 16, tree6_jumps, TREE)
    report = residual_check(sol, jump_problem.driver, tree6_jumps,
                            jump_problem.grid, jump_problem.marks)
    assert report.passed()
    assert built_leaf_views == []


def test_residual_refuses_a_column_that_is_not_adapted(jump_problem,
                                                       tree6_jumps):
    sol = solve_penalized(jump_problem, 16, tree6_jumps, TREE)
    Y = sol.Y.copy()
    Y[0, 3] += 1e-3                          # one leaf of one level-3 node
    sol.Y = Y
    with pytest.raises(ValueError, match="level-3 node"):
        residual_check(sol, jump_problem.driver, tree6_jumps,
                       jump_problem.grid, jump_problem.marks)


def test_tree_leaf_views_are_read_only(jump_problem, tree6_jumps):
    sol = solve_penalized(jump_problem, 16, tree6_jumps, TREE)
    y0 = sol.y0()
    for name in ("Y", "Z", "psi", "K"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sol, name)[0] += 1.0
    assert sol.y0() == y0
    sol.Y = sol.Y + 1.0                      # assignment stores a new array
    sol.Y[:, 0] -= 1.0
    assert sol.y0() == pytest.approx(y0, rel=1e-12)


def test_ensemble_leaf_arrays_are_the_store(reflected_problem, grid6,
                                            no_marks):
    ens = simulate_paths(grid6, no_marks, 480, seed=5)
    sol = solve_penalized(reflected_problem, 4, ens,
                          CEBackend(kind="regression", degree=2))
    y0 = sol.y0()
    sol.Y[:, 0] += 1.0
    assert sol.y0() == pytest.approx(y0 + 1.0, rel=1e-12)


def test_glued_tree_solution_is_adapted():
    # UNBOUNDED_REG on a tree, with family and envelope scaled by 8 so that
    # nine truncation levels glue
    grid = TimeGrid.uniform(1.0, 5)
    marks = MarkSpace([1.0], [1.0], [2.0])
    problem = Problem(grid, marks, make_driver("zero", {}, marks),
                      make_terminal("brownian", {}, marks, grid),
                      family=make_family("linear_decay", {"scale": 8.0}, grid),
                      envelope=make_envelope("linear_decay", {"scale": 8.0},
                                             grid))
    tree = build_tree(grid, marks)
    schedule = PenalizationSchedule(levels=(1, 4, 16, 64), stop_tolerance=1e-2)
    sol, record = solve_unbounded(problem, schedule, tree, TREE)
    assert sol.meta["truncation_levels"] == list(range(1, 10))
    assert record.uncovered_cells == 0
    # every column reads back on the nodes of its time; K_{i+1} on level i
    for name, levels in (("Y", range(6)), ("Z", range(5)), ("psi", range(5)),
                         ("K", [0, *range(5)])):
        leaves = getattr(sol, name)
        for c, level in enumerate(levels):
            nodes = tree.to_level(grid.n_steps, leaves[:, c], level)
            np.testing.assert_array_equal(tree.to_level(level, nodes),
                                          leaves[:, c])
    residual_check(sol, problem.driver, tree, grid, marks)
