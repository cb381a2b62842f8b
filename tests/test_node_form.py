"""Node-form tree solutions against the leaf-form bookkeeping they replace.

The ``leaf_form_*`` helpers are the slow references, each the previous code
on (n_paths, ...) leaf arrays: the backward recursion node by node on the
tree's node view (no recombination) with every step's values repeated onto
the leaf paths, the level monitors as weighted sums
over those arrays, the residual check with the tree's increments repeated
onto every leaf path, the constraint, Skorokhod and comparison checks, the
Lemma-1 and Corollary-1 pairing statistics, the stopping times, the overlap
statistics and the truncation-concatenation glue.  The readers that use K's
increments take them as the solution stores them (:func:`leaf_dK`), so a
running sum and its differences do not round differently; the glue
references un-shift K by those increments too.
"""

import copy
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsdej import (CEBackend, MarkSpace, PenalizationSchedule, Problem,
                    SolutionGrid, TerminalSpec, TimeGrid, build_tree,
                    residual_check, simulate_paths, solve_mbsde,
                    solve_penalized, solve_unbounded)
from mbsdej import bsde, cli, penalization
from mbsdej.bsde import NodeColumns, ResidualReport
from mbsdej.cli import run_verify
from mbsdej.config import build_problem, parse_config
from mbsdej.errors import SegmentMismatch
from mbsdej.monotone import PenalizedOperator, truncate_shift
from mbsdej.penalization import ConcatenationRecord, LevelStats, OverlapStats
from mbsdej.registry import (make_driver, make_envelope, make_family,
                             make_terminal)
from mbsdej.scenario import PathNodes, ScenarioTree
from mbsdej.verification import (GraphSelection, _paired, check_comparison,
                                 check_constraint, check_skorokhod,
                                 corollary1_ordering_stat, lemma1_pairing_stat)
from test_config_cli import UNBOUNDED_REG

TREE_VERIFY_CONFIG = (Path(__file__).resolve().parents[1] / "perfbench"
                      / "configs" / "tree_verify.cfg")

TREE = CEBackend(kind="tree")


def leaf_form_solve(problem, tree, penalty):
    """(Y, Z, psi, K) of solve_bsde on a tree, solved node by node on its
    node view and stored leaf by leaf."""
    grid, marks, driver = problem.grid, problem.marks, problem.driver
    tree = tree.node_view
    project = bsde._projection(tree, TREE)
    n_steps, n = grid.n_steps, tree.n_leaves
    Y = np.empty((n, n_steps + 1))
    Z = np.empty((n, n_steps))
    psi = np.empty((n, n_steps, marks.n_marks))
    y = problem.terminal(tree.state(n_steps))
    Y[:, n_steps] = tree.to_level(n_steps, y)
    pen = [None] * n_steps
    for i in reversed(range(n_steps)):
        ey, z, psi_i = project(i, y)
        y, pen[i], _, _ = bsde._implicit_step(driver, float(grid.times[i]),
                                              tree.state(i), ey, z,
                                              driver.q_of(psi_i, marks),
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


def leaf_dK(sol):
    """(n_paths, N) leaf array of K's increments K_{i+1} - K_i, as stored."""
    return sol.on_paths("K").leaves()[:, 1:]


def leaf_constraint_slack(Y, family, grid):
    """(n_paths, k) slack Y_i - a_{t_i} and the k steps i < N with finite a."""
    barriers = family.barriers(grid.times[:-1])
    steps = np.flatnonzero(np.isfinite(barriers))
    return Y[:, steps] - barriers[steps], steps


def leaf_form_stats(problem, level, Y, Z, psi, K, w, prev_Y):
    """LevelStats as weighted sums over (n_paths, ...) leaf arrays."""
    if prev_Y is None:
        delta, viol = np.nan, 0.0
    else:
        diff = Y - prev_Y
        delta = float(np.max(np.abs(diff).T @ w))
        viol = float(max(0.0, np.max(-diff)))
    slack, steps = leaf_constraint_slack(Y, problem.family, problem.grid)
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
    dK = leaf_dK(solution)
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
            - solution.Z[:, i] * dW[:, i] - jump_part + dK[:, i])
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


def leaf_form_constraint(Y, family, grid, tol):
    """(statistic, witness) of check_constraint on the leaf array Y."""
    slack, steps = leaf_constraint_slack(Y, family, grid)
    if not steps.size:
        return np.inf, None
    stat = float(slack.min())
    if stat >= -tol:
        return stat, None
    p, i = np.unravel_index(int(np.argmin(slack)), slack.shape)
    return stat, {"path": int(p), "step": int(steps[i]), "slack": stat}


def leaf_form_midpoint(family, grid, Y1, Y2):
    """(alpha, beta) of GraphSelection.midpoint as (n_paths, N) arrays."""
    n = grid.n_steps
    alpha = 0.5 * (Y1[:, :n] + Y2[:, :n])
    beta = np.empty_like(alpha)
    for i, a in enumerate(family.barriers(grid.times[:-1])):
        if np.isfinite(a):
            np.maximum(alpha[:, i], a + 1e-6, out=alpha[:, i])
        beta[:, i] = family.k(float(grid.times[i]), alpha[:, i])
    return alpha, beta


def leaf_spans(Y, dK, grid, alpha, beta):
    """(n_paths, N) largest sum of (Y - alpha)(dK + beta dt) over the spans
    of each path that end at each step, as prefix-sum differences."""
    n = grid.n_steps
    terms = (Y[:, :n] - alpha) * (dK + beta * grid.steps[None, :])
    prefix = np.zeros((terms.shape[0], n + 1))
    np.cumsum(terms, axis=1, out=prefix[:, 1:])
    return prefix[:, 1:] - np.minimum.accumulate(prefix[:, :-1], axis=1)


def leaf_form_skorokhod(Y, dK, grid, selections):
    """(statistic, witness) of check_skorokhod on leaf arrays; a selection
    is (name, alpha, beta) with (1 or n_paths, N) arrays."""
    worst, witness = -np.inf, None
    for name, alpha, beta in selections:
        spans = leaf_spans(Y, dK, grid, alpha, beta)
        stat = float(spans.max())
        if stat > worst:
            worst = stat
            p, i = np.unravel_index(int(np.argmax(spans)), spans.shape)
            witness = {"selection": name, "path": int(p),
                       "end_step": int(i) + 1, "sum": stat}
    return worst, witness


def assert_skorokhod_close(got, Y, dK, grid, selections, exact_witness):
    """check_skorokhod's result against leaf_form_skorokhod: the statistic to
    rtol 1e-12, since Kadane's recursion sums a span from its start where
    the reference subtracts prefix sums.  Where histories recombine another
    path may tie the sum to rounding, so the witness is checked by its own
    leaf span sum; elsewhere it is the reference's."""
    stat, witness = leaf_form_skorokhod(Y, dK, grid, selections)
    np.testing.assert_allclose(got.statistic, stat, rtol=1e-12, atol=0)
    if got.passed:
        assert got.witness is None
        return
    found = dict(got.witness)
    assert found.pop("sum") == got.statistic
    if exact_witness:
        want = dict(witness)
        want.pop("sum")
        assert found == want
        return
    _, alpha, beta = next(s for s in selections if s[0] == found["selection"])
    span = leaf_spans(Y, dK, grid, alpha, beta)[found["path"],
                                               found["end_step"] - 1]
    np.testing.assert_allclose(span, got.statistic, rtol=1e-12, atol=0)


def state_leaves(scenario, i, values):
    """Level-i state values read on the leaf paths through node_map."""
    m = scenario.node_map(i)
    return scenario.to_level(i, values if m is None else values[m])


def leaf_form_comparison(Y1, Y2, tol):
    """(violating fraction, witness) of check_comparison on leaf arrays."""
    excess = Y1 - Y2
    frac = float((excess > tol).mean())
    p, i = np.unravel_index(int(np.argmax(excess)), excess.shape)
    return frac, {"path": int(p), "step": int(i),
                  "excess": float(excess[p, i]), "fraction": frac}


def leaf_form_lemma1(Y1, dK1, Y2, dK2):
    n = Y1.shape[1] - 1
    d_k = dK1 - dK2
    return float(np.max(np.sum((Y1[:, :n] - Y2[:, :n]) * d_k, axis=1)))


def leaf_form_corollary1(Y1, dK1, Y2, dK2):
    n = Y1.shape[1] - 1
    d_k = dK1 - dK2
    ind = (Y1[:, :n] > Y2[:, :n]).astype(float)
    return float(np.max(np.sum(ind * d_k, axis=1)))


def leaf_form_stopping_times(Y, envelope, level, grid):
    tau = np.full(Y.shape[0], grid.n_steps, dtype=int)
    for i in reversed(range(grid.n_steps)):
        tau[envelope(float(grid.times[i]), Y[:, i]) <= level] = i
    return tau


def leaf_form_overlap(level, prev, cur, tau_prev, weights):
    """OverlapStats of leaf (Y, dK) pairs ``prev`` and ``cur``."""
    n_steps = cur[0].shape[1] - 1
    mask = np.arange(n_steps + 1)[None, :] >= tau_prev[:, None]
    diff = (cur[0] - prev[0])[mask]
    dk_diff = (cur[1] - prev[1])[mask[:, :-1]]
    cells = diff.size
    if cells:
        w = np.broadcast_to(weights[:, None], mask.shape)[mask]
        mean = float(w @ diff / w.sum())
        se = float(diff.std(ddof=1) / np.sqrt(cells)) if cells > 1 else 0.0
        mx = float(np.max(np.abs(diff)))
    else:
        mean = se = mx = 0.0
    mdk = float(np.max(np.abs(dk_diff))) if dk_diff.size else 0.0
    return OverlapStats(level, cells, mean, se, mx, mdk)


def leaf_form_unbounded(problem, schedule, scenario, backend, max_truncation,
                        overlap_floor):
    """solve_unbounded with every level read and glued on leaf arrays:
    ((Y, Z, psi, K), record, truncation levels solved)."""
    grid, envelope = problem.grid, problem.envelope
    n_steps, n_paths = grid.n_steps, scenario.weights.size
    levels = list(range(1, max_truncation + 1))
    tau = np.zeros((max_truncation + 1, n_paths), dtype=int)
    tau[0] = n_steps
    record = ConcatenationRecord(levels=levels, tau=tau)
    Y = np.empty((n_paths, n_steps + 1))
    Z = np.empty((n_paths, n_steps))
    psi = np.empty((n_paths, n_steps, problem.marks.n_marks))
    K = np.zeros((n_paths, n_steps + 1))
    free = np.ones((n_paths, n_steps), dtype=bool)
    last = max_truncation
    prev = None
    for n in levels:
        prob_n = replace(problem, family=truncate_shift(problem.family, n),
                         driver=problem.driver.shifted(n))
        sol, _ = solve_mbsde(prob_n, schedule, scenario, backend)
        cur = (sol.Y, leaf_dK(sol) - n * grid.steps[None, :])   # un-shifted
        tau[n] = leaf_form_stopping_times(cur[0], envelope, n, grid)
        if prev is not None:
            stats = leaf_form_overlap(n, prev, cur, tau[n - 1], sol.weights)
            record.overlaps.append(stats)
            if (stats.cells and abs(stats.mean_y_diff)
                    > overlap_floor + 4.0 * stats.se_y_diff):
                raise SegmentMismatch(f"levels {n - 1}/{n}")
        claim = free & (tau[n][:, None] <= np.arange(n_steps))
        if n == last:
            record.uncovered_cells = int((free & ~claim).sum())
            claim = free
        Y[:, :-1][claim] = cur[0][:, :-1][claim]
        Z[claim] = sol.Z[claim]
        psi[claim] = sol.psi[claim]
        K[:, 1:][claim] = cur[1][claim]
        free &= ~claim
        prev = cur
        if n == last:
            break
        if not free.any():
            last = n + 1
    Y[:, -1] = prev[0][:, -1]
    np.cumsum(K[:, 1:], axis=1, out=K[:, 1:])
    return (Y, Z, psi, K), record, levels[:last]


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


@pytest.mark.parametrize("n_marks", [0, 1, 2])
@given(n_steps=st.integers(1, 5), uniform=st.booleans(),
       seed=st.integers(0, 2**32 - 1), barrier=st.floats(-1.0, 1.0))
@settings(max_examples=15, deadline=None)
def test_state_solve_matches_node_by_node_reference(n_marks, n_steps, uniform,
                                                    seed, barrier):
    # a uniform grid recombines; any other keeps one state per node (a
    # one-step grid is always uniform)
    rng = np.random.default_rng(seed)
    grid, marks = _random_grid_and_marks(rng, n_steps, n_marks)
    if uniform:
        grid = TimeGrid.uniform(grid.horizon, n_steps)
    uniform = uniform or n_steps == 1
    tree = build_tree(grid, marks)
    for i in range(n_steps + 1):
        node_map, probs = tree.node_map(i), tree.level_probs(i)
        if not uniform:
            assert node_map is None and tree.node_view is tree
            continue
        assert probs.size == (i + 1) ** (1 + n_marks)
        assert node_map.dtype == np.min_scalar_type(probs.size - 1)
        nodes = tree.node_view.level_probs(i)
        sums = [nodes[node_map == s].sum() for s in range(probs.size)]
        np.testing.assert_allclose(probs, sums, rtol=0, atol=1e-15)
        if i < n_steps:      # the node view's (W, N) follow the branches
            parent, branch = np.divmod(np.arange(tree.level_size(i + 1)),
                                       tree.branching)
            np.testing.assert_allclose(
                tree.w_nodes[i + 1] - tree.w_nodes[i][parent],
                tree.dW[i][branch], rtol=0, atol=1e-14)
            assert np.array_equal(
                tree.count_nodes[i + 1] - tree.count_nodes[i][parent],
                tree.dN[i][branch])
    family = make_family("reflect_at", {"a": barrier}, grid)
    problem = Problem(grid, marks, _mixed_driver(marks),
                      TerminalSpec(lambda s: np.sin(2.0 * s.w)
                                   + 0.3 * s.ntilde.sum(axis=1)),
                      family=family)
    prev = prev_Y = None
    for level in (1, 64):
        sol = solve_penalized(problem, level, tree, TREE)
        stats = penalization._level_stats(problem, sol, level, prev)
        want = leaf_form_solve(problem, tree, PenalizedOperator(family, level))
        for name, got, ref in zip("Y Z psi K".split(),
                                  (sol.Y, sol.Z, sol.psi, sol.K), want):
            assert got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name
        assert_stats_close(stats, leaf_form_stats(problem, level, *want,
                                                  tree.weights, prev_Y))
        prev, prev_Y = sol, want[0]


@pytest.mark.parametrize("n_marks", [0, 1, 2])
@given(n_steps=st.integers(1, 4), uniform=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_path_primitives_match_the_enumerated_nodes(n_marks, n_steps, uniform,
                                                    seed):
    # paths: the leaf paths under each state's nodes and the first of them;
    # push_max: the largest value over the nodes that enter each state, the
    # smallest leaf path under them breaking ties.  Half the values are
    # drawn from {-1, 0, 1}, so that ties occur
    rng = np.random.default_rng(seed)
    grid, marks = _random_grid_and_marks(rng, n_steps, n_marks)
    if uniform:
        grid = TimeGrid.uniform(grid.horizon, n_steps)
    tree = build_tree(grid, marks)
    B = tree.branching

    def states(i):      # the state of each level-i node
        m = tree.node_map(i)
        return np.arange(tree.level_size(i)) if m is None else m.astype(int)

    for i in range(n_steps + 1):
        at, size, per_node = states(i), tree.level_probs(i).size, B**(n_steps - i)
        count, first = tree.paths(i)
        assert count.dtype == first.dtype == np.int64
        assert np.array_equal(count, np.bincount(at, minlength=size) * per_node)
        assert np.array_equal(first, np.array(
            [np.flatnonzero(at == s)[0] for s in range(size)]) * per_node)
        if i == n_steps:
            break
        values = rng.normal(size=size)
        tied = rng.random(size) < 0.5
        values[tied] = rng.integers(-1, 2, int(tied.sum()))
        top, lead = tree.push_max(i, values, first)
        into, nodes = states(i + 1), np.arange(tree.level_size(i + 1))
        entering = values[at[nodes // B]]      # node k enters from its parent
        for s in range(top.size):
            here = into == s
            assert top[s] == entering[here].max()
            best = nodes[here][entering[here] == top[s]]
            assert lead[s] == best.min() * per_node // B


def test_path_primitives_on_paths_are_the_identity():
    paths = PathNodes(np.full(5, 0.2))
    count, first = paths.paths(3)
    assert count.tolist() == [1] * 5 and first.tolist() == list(range(5))
    values = np.arange(5.0)
    top, lead = paths.push_max(3, values, first)
    assert top is values and lead is first
    assert paths.node_view is paths


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
@given(n_steps=st.integers(1, 3), uniform=st.booleans(), ties=st.booleans(),
       seed=st.integers(0, 2**32 - 1), barrier=st.floats(-1.0, 1.0))
@settings(max_examples=15, deadline=None)
def test_node_monitors_match_leaf_formulas(n_marks, n_steps, uniform, ties,
                                           seed, barrier):
    # a uniform grid recombines, so running maxima merge per state; Y drawn
    # from {-2, ..., 2} makes histories tie on their running maximum
    rng = np.random.default_rng(seed)
    grid, marks = _random_grid_and_marks(rng, n_steps, n_marks)
    if uniform:
        grid = TimeGrid.uniform(grid.horizon, n_steps)
    tree = build_tree(grid, marks)
    problem = Problem(grid, marks, make_driver("zero", {}, marks),
                      make_terminal("zero", {}, marks, grid),
                      family=make_family("reflect_at", {"a": barrier}, grid))
    sol = _random_node_solution(tree, rng)
    prev = _random_node_solution(tree, rng)
    if ties:
        for column in sol.nodes("Y").columns:
            column[...] = rng.integers(-2, 3, column.shape)
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
    tree = build_tree(grid, marks)
    driver = _mixed_driver(marks)
    sol = _random_node_solution(tree, rng)
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


@pytest.mark.parametrize("n_marks", [0, 1, 2])
def test_ensemble_monitors_match_leaf_formulas(n_marks):
    rng = np.random.default_rng(10 + n_marks)
    grid, marks = _random_grid_and_marks(rng, 4, n_marks)
    ens = simulate_paths(grid, marks, 600, seed=n_marks)
    problem = Problem(grid, marks, _mixed_driver(marks),
                      TerminalSpec(lambda s: np.sin(2.0 * s.w)
                                   + 0.3 * s.ntilde.sum(axis=1)),
                      family=make_family("reflect_at", {"a": 0.0}, grid))
    prev = solve_penalized(problem, 1, ens, CEBackend("regression"))
    sol = solve_penalized(problem, 4, ens, CEBackend("regression"))
    sol.nodes("K")[0] = rng.normal(size=ens.n_paths)       # K_0 != 0
    assert leaf_dK(sol).max() > 0.1                   # the penalty acts
    got = penalization._level_stats(problem, sol, 4, prev)
    assert_stats_close(got, leaf_form_stats(problem, 4, sol.Y, sol.Z, sol.psi,
                                            sol.K, ens.weights, prev.Y))


_NODE_READERS = ((NodeColumns, "on_nodes"), (NodeColumns, "spread"),
                 (NodeColumns, "accumulate"), (NodeColumns, "leaves"),
                 (ScenarioTree, "to_level"))


@pytest.fixture
def node_reads(monkeypatch):
    """watch(module, name): the node readers called while module.name runs,
    by name, and one entry per run of it."""
    calls, runs = [], []

    def recording(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if runs and runs[-1]:
                calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in _NODE_READERS:
        recording(owner, name)

    def watch(module, name):
        original = getattr(module, name)

        def tracked(*args):
            runs.append(True)
            try:
                return original(*args)
            finally:
                runs[-1] = False

        monkeypatch.setattr(module, name, tracked)
        return calls, runs

    return watch


def test_level_monitors_read_no_nodes(jump_problem, tree6_jumps, node_reads):
    calls, runs = node_reads(penalization, "_level_stats")
    schedule = PenalizationSchedule(levels=(1, 4, 16), stop_tolerance=0.0)
    _, report = solve_mbsde(jump_problem, schedule, tree6_jumps, TREE)
    assert report.levels == [1, 4, 16] and len(runs) == 3
    assert calls == []
    assert report.rows[-1].k_terminal_sq > 0.0


def test_tree_verify_reads_no_nodes(tmp_path, node_reads):
    # every check of the suite reads the solutions on the 385 lattice
    # states; none gathers them onto the tree's nodes or leaves
    calls, runs = node_reads(cli, "run_verify")
    config = tmp_path / "tree_verify.cfg"
    shutil.copyfile(TREE_VERIFY_CONFIG, config)
    code = cli.run_verify(parse_config(config.read_text()), "all",
                          tmp_path / "out")
    assert code == 0 and len(runs) == 1
    assert calls == []


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


def test_assigned_and_replaced_solutions_read_in_one_form(jump_problem,
                                                          tree6_jumps):
    # an assigned leaf array puts its solution in leaf form throughout, and
    # a solution or selection in leaf form pairs with one on its nodes
    family, grid = jump_problem.family, jump_problem.grid
    selections = [GraphSelection.interior_constant(family, grid, 0.5)]
    solved = solve_penalized(jump_problem, 16, tree6_jumps, TREE)
    K = solved.nodes("K")           # K by its increments
    K[3] = K[3] + 1.0                # an impulse of K while Y > 0.5 somewhere
    assigned = copy.copy(solved)
    assigned.Y = solved.Y + 0.0
    replaced = replace(solved, K=solved.K + 0.0)
    want = check_skorokhod(solved, family, selections, tol=0.0)
    assert want.statistic > 0.0
    for sol in (assigned, replaced):
        got = check_skorokhod(sol, family, selections, tol=0.0)
        assert repr((got.statistic, got.witness)) == repr(
            (want.statistic, want.witness))
        assert repr(check_constraint(sol, family, tol=0.0)) == repr(
            check_constraint(solved, family, tol=0.0))

    other = replace(solved, Y=solved.Y + 0.25, K=0.5 * solved.K)
    for a, b in ((solved, other), (other, solved)):
        got = check_comparison(jump_problem, a, jump_problem, b, tree6_jumps,
                               tol=0.0)
        frac, witness = leaf_form_comparison(a.Y, b.Y, 0.0)
        assert repr((got.statistic, got.witness)) == repr(
            (frac, None if got.passed else witness))
        assert lemma1_pairing_stat(a, b) == pytest.approx(
            leaf_form_lemma1(a.Y, leaf_dK(a), b.Y, leaf_dK(b)), rel=1e-12)

    # a midpoint selection is checked with solutions on other nodes too
    for a, b in ((solved, solved), (solved, other), (other, solved)):
        mid = GraphSelection.midpoint(family, grid, a, b)
        alpha, beta = leaf_form_midpoint(family, grid, a.Y, b.Y)
        assert np.column_stack(
            [state_leaves(mid.states, i, x) for i, x in enumerate(mid.alpha)]
        ).tobytes() == alpha.tobytes()
        for sol in (solved, other):
            got = check_skorokhod(sol, family, [mid], tol=0.0)
            assert_skorokhod_close(got, sol.Y, leaf_dK(sol), grid,
                                   [("midpoint", alpha, beta)],
                                   exact_witness=False)


def test_leaf_form_reads_share_one_scenario(jump_problem, tree6_jumps):
    # every read of a solution on the paths is on one PathNodes, so a
    # leaf-form solution pairs with itself, and a midpoint formed on it is
    # read on its own states
    solved = solve_penalized(jump_problem, 16, tree6_jumps, TREE)
    sol = replace(solved, Y=solved.Y + 0.0)
    paths = sol.nodes("Y").scenario
    assert isinstance(paths, PathNodes)
    assert sol.nodes("Y").scenario is paths
    assert sol.on_paths("K").scenario is paths
    assert all(c.scenario is paths for c in _paired(sol, sol, "Y"))
    mid = GraphSelection.midpoint(jump_problem.family, jump_problem.grid,
                                  sol, sol)
    assert mid.states is paths


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


def _assert_overlaps_close(got: OverlapStats, want: OverlapStats):
    # the mean and se are sums taken in another order: last-bit changes of
    # O(1) terms, hence the absolute floor at 1e-15
    for f in fields(OverlapStats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in ("mean_y_diff", "se_y_diff"):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15,
                                       err_msg=f.name)
        else:
            assert a == b, f.name


def _check_readers(scenario, rng, barrier):
    """Every reader of a solution on its states against its leaf-form
    reference, on random solutions: the Skorokhod sums are non-zero and many
    comparison cells violate, so the statistics and witnesses are
    exercised."""
    grid, marks = scenario.grid, scenario.marks
    family = make_family("reflect_at", {"a": barrier}, grid)
    problem = Problem(grid, marks, make_driver("zero", {}, marks),
                      make_terminal("zero", {}, marks, grid), family=family)
    envelope = make_envelope("linear_decay", {}, grid)
    sol = _random_node_solution(scenario, rng)
    other = _random_node_solution(scenario, rng)
    other.nodes("Y")[0] = sol.nodes("Y")[0] - 1.0     # Y_0 cells all violate

    selections = [GraphSelection.interior_constant(family, grid, barrier + 0.5),
                  GraphSelection.boundary_offset(family, grid, 1e-3),
                  GraphSelection.midpoint(family, grid, sol, other)]
    constraint = check_constraint(sol, family, tol=-np.inf)
    skorokhod = check_skorokhod(sol, family, selections, tol=-np.inf)
    comparison = check_comparison(problem, sol, problem, other, scenario,
                                  tol=0.0)
    lemma1 = lemma1_pairing_stat(sol, other)
    corollary1 = corollary1_ordering_stat(sol, other)
    tau = penalization.stopping_times(other, envelope, 1, grid)
    overlap = penalization._overlap_stats(2, other, sol, tau, problem)
    if isinstance(scenario, ScenarioTree):
        assert not any(s.nodes(name).expanded for s in (sol, other)
                       for name in ("Y", "Z", "psi", "K"))

    Y, K, Y_o, K_o = sol.Y, leaf_dK(sol), other.Y, leaf_dK(other)
    assert repr((constraint.statistic, constraint.witness)) == repr(
        leaf_form_constraint(Y, family, grid, -np.inf))
    alpha, beta = leaf_form_midpoint(family, grid, Y, Y_o)
    for i, (a, b) in enumerate(zip(selections[2].alpha, selections[2].beta)):
        assert state_leaves(scenario, i, a).tobytes() == alpha[:, i].tobytes()
        assert state_leaves(scenario, i, b).tobytes() == beta[:, i].tobytes()
    leaf_selections = [(s.name, np.column_stack(s.alpha), np.column_stack(s.beta))
                       for s in selections[:2]] + [("midpoint", alpha, beta)]
    assert_skorokhod_close(skorokhod, Y, K, grid, leaf_selections,
                           exact_witness=scenario.node_view is scenario)
    assert skorokhod.statistic != 0.0
    assert repr((comparison.statistic, comparison.witness)) == repr(
        leaf_form_comparison(Y, Y_o, 0.0))
    assert comparison.statistic > 0.0
    for got, want in ((lemma1, leaf_form_lemma1(Y, K, Y_o, K_o)),
                      (corollary1, leaf_form_corollary1(Y, K, Y_o, K_o))):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    want_tau = leaf_form_stopping_times(Y_o, envelope, 1, grid)
    assert tau.dtype == want_tau.dtype and tau.tobytes() == want_tau.tobytes()
    _assert_overlaps_close(overlap, leaf_form_overlap(2, (Y_o, K_o), (Y, K),
                                                      tau, sol.weights))

    # every cell ties at excess 1: the witness is the first leaf cell
    high, low = (_random_node_solution(scenario, rng) for _ in range(2))
    for c in range(grid.n_steps + 1):
        high.nodes("Y")[c] = 0.0
        low.nodes("Y")[c] = -1.0
    ties = check_comparison(problem, high, problem, low, scenario, tol=0.0)
    assert repr((ties.statistic, ties.witness)) == repr(
        leaf_form_comparison(high.Y, low.Y, 0.0))

    # Y on the barrier: the zero slack reads 0.0, as the leaf minimum does
    flat = _random_node_solution(scenario, rng)
    for c in range(grid.n_steps + 1):
        flat.nodes("Y")[c] = barrier
    on_barrier = check_constraint(flat, family, tol=0.0)
    assert repr((on_barrier.statistic, on_barrier.witness)) == repr(
        leaf_form_constraint(flat.Y, family, grid, 0.0)) == "(0.0, None)"


def _check_glue(scenario, backend, scale):
    """solve_unbounded against the leaf-form glue on the same scenario."""
    grid, marks = scenario.grid, scenario.marks
    params = {"scale": scale}
    problem = Problem(grid, marks, make_driver("zero", {}, marks),
                      make_terminal("brownian", {}, marks, grid),
                      family=make_family("linear_decay", params, grid),
                      envelope=make_envelope("linear_decay", params, grid))
    schedule = PenalizationSchedule(levels=(1, 4, 16), stop_tolerance=1e-2)
    sol, record = solve_unbounded(problem, schedule, scenario, backend,
                                  max_truncation=6, overlap_floor=1.0)
    if isinstance(scenario, ScenarioTree):
        assert not any(sol.nodes(name).expanded
                       for name in ("Y", "Z", "psi", "K"))
    want, ref, solved = leaf_form_unbounded(problem, schedule, scenario,
                                            backend, 6, 1.0)
    assert sol.meta["truncation_levels"] == solved
    for name, got, leaf in zip(("Y", "Z", "psi", "K"),
                               (sol.Y, sol.Z, sol.psi, sol.K), want):
        assert got.shape == leaf.shape and got.tobytes() == leaf.tobytes(), name
    assert record.tau.tolist() == ref.tau.tolist()     # tau is compact
    assert record.uncovered_cells == ref.uncovered_cells
    assert len(record.overlaps) == len(ref.overlaps) == len(solved) - 1
    for got, leaf in zip(record.overlaps, ref.overlaps):
        _assert_overlaps_close(got, leaf)


@pytest.mark.parametrize("n_marks", [0, 1, 2])
@given(n_steps=st.integers(1, 3), uniform=st.booleans(),
       seed=st.integers(0, 2**32 - 1), barrier=st.floats(-1.0, 1.0))
@settings(max_examples=15, deadline=None)
def test_node_readers_match_leaf_form(n_marks, n_steps, uniform, seed,
                                      barrier):
    # a uniform grid recombines, so the readers merge histories per state
    rng = np.random.default_rng(seed)
    grid, marks = _random_grid_and_marks(rng, n_steps, n_marks)
    if uniform:
        grid = TimeGrid.uniform(grid.horizon, n_steps)
    _check_readers(build_tree(grid, marks), rng, barrier)


@pytest.mark.parametrize("n_marks", [0, 1, 2])
@given(n_steps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 4.0, 8.0]))
@settings(max_examples=8, deadline=None)
def test_node_glue_matches_leaf_form(n_marks, n_steps, seed, scale):
    rng = np.random.default_rng(seed)
    grid, marks = _random_grid_and_marks(rng, n_steps, n_marks)
    _check_glue(build_tree(grid, marks), TREE, scale)


@pytest.mark.parametrize("n_marks", [0, 1, 2])
def test_ensemble_readers_and_glue_match_leaf_form(n_marks):
    rng = np.random.default_rng(10 + n_marks)
    grid, marks = _random_grid_and_marks(rng, 4, n_marks)
    ens = simulate_paths(grid, marks, 600, seed=n_marks)
    _check_readers(ens, rng, barrier=0.0)
    _check_glue(ens, CEBackend(kind="regression", degree=1), scale=1.0)


def test_tree_verify_builds_no_leaf_view(tmp_path, built_leaf_views):
    config = tmp_path / "tree_verify.cfg"
    shutil.copyfile(TREE_VERIFY_CONFIG, config)
    code = run_verify(parse_config(config.read_text()), "all", tmp_path / "out")
    assert code == 0
    assert built_leaf_views == []


def test_unbounded_tree_builds_no_leaf_view(built_leaf_views):
    problem, backend, schedule, _ = build_problem(parse_config(
        UNBOUNDED_REG.replace("kind = regression\ndegree = 2", "kind = tree")))
    tree = build_tree(problem.grid, problem.marks)
    sol, _ = solve_unbounded(problem, schedule, tree, backend)
    assert sol.meta["truncation_levels"]
    assert built_leaf_views == []
