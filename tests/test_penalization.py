import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from mbsdej import (CEBackend, MarkSpace, MonotonicityBreach,
                    PenalizationSchedule, Problem, TimeGrid, build_tree,
                    penalization, residual_check, simulate_paths, solve_mbsde,
                    solve_penalized, solve_unbounded, stopping_times,
                    truncate_shift)
from mbsdej.registry import (make_driver, make_envelope, make_family,
                             make_terminal)

from conftest import projection_value


class TestSolvePenalized:
    def test_slack_constraint_leaves_plain_solution(self, slack_problem, tree6,
                                                    tree_backend):
        for level in (1, 64):
            sol = solve_penalized(slack_problem, level, tree6, tree_backend)
            assert np.abs(sol.K).max() <= 1e-12
            assert np.min(sol.Y) >= 1.0 - 1e-12  # Y = E_i[xi] >= 1

    def test_constant_family_closed_form(self, grid6, no_marks, tree6,
                                         tree_backend):
        # k == -1: f_n = f - k_n = 1 for every level, so Y_i = T - t_i, K_T = T
        prob = Problem(grid6, no_marks,
                       make_driver("zero", {}, no_marks),
                       make_terminal("zero", {}, no_marks, grid6),
                       family=make_family("constant", {"c": -1.0}, grid6))
        for level in (1, 2, 32):
            sol = solve_penalized(prob, level, tree6, tree_backend)
            assert np.abs(sol.Y - (1.0 - grid6.times)[None, :]).max() <= 1e-10
            assert sol.k_terminal_mean() == pytest.approx(1.0, abs=1e-10)

    def test_reflection_high_level_near_projection(self, reflected_problem,
                                                   tree6, tree_backend):
        sol = solve_penalized(reflected_problem, 2**10, tree6, tree_backend)
        proj = projection_value(tree6, tree6.w_nodes[6], barrier=0.0)
        assert abs(sol.y0() - proj) <= 1e-2

    def test_reflected_value_converges_in_the_time_step(self, no_marks,
                                                        tree_backend):
        # f = 0, xi = W_T, reflection at 0: the reflected value is
        # E[max(W_1, 0)] = 1/sqrt(2 pi), and the tree approaches it as
        # O(1/N); level 2^16 is within 1% of the gap to the limit
        limit = 1.0 / np.sqrt(2.0 * np.pi)
        gaps = []
        for n_steps in (4, 8, 16):          # 16 steps: 131,071 nodes
            grid = TimeGrid.uniform(1.0, n_steps)
            problem = Problem(grid, no_marks, make_driver("zero", {}, no_marks),
                              make_terminal("brownian", {}, no_marks, grid),
                              family=make_family("reflect_at", {"a": 0.0}, grid))
            tree = build_tree(grid, no_marks)
            y0 = solve_penalized(problem, 2**16, tree, tree_backend).y0()
            gaps.append(limit - y0)
            proj = projection_value(tree, tree.w_nodes[n_steps], barrier=0.0)
            assert abs(proj - y0) < 0.01 * gaps[-1]
            assert 0.09 <= n_steps * gaps[-1] <= 0.105
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_real_valued_family_rejected(self, grid6, no_marks, tree6,
                                         tree_backend):
        prob = Problem(grid6, no_marks,
                       make_driver("zero", {}, no_marks),
                       make_terminal("brownian", {}, no_marks, grid6),
                       family=make_family("linear_decay", {}, grid6))
        with pytest.raises(ValueError):
            solve_penalized(prob, 4, tree6, tree_backend)

    def test_terminal_lower_bound_guard(self, grid6, no_marks, tree6,
                                        tree_backend):
        from mbsdej import ValidationError
        prob = Problem(grid6, no_marks,
                       make_driver("zero", {}, no_marks),
                       make_terminal("brownian",
                                     {"lower_bound_check": True},
                                     no_marks, grid6),
                       family=make_family("reflect_at", {"a": 0.0}, grid6))
        with pytest.raises(ValidationError):
            solve_penalized(prob, 4, tree6, tree_backend)


class TestSolveMbsde:
    def test_slack_problem_converges_immediately(self, slack_problem, tree6,
                                                 tree_backend):
        sched = PenalizationSchedule(levels=(1, 2, 4), stop_tolerance=1e-8)
        sol, report = solve_mbsde(slack_problem, sched, tree6, tree_backend)
        assert report.converged
        assert len(report.rows) == 2          # stops at the first level pair
        assert sol.k_terminal_mean() == pytest.approx(0.0, abs=1e-12)

    def test_reflected_monotone_increase_and_limit(self, reflected_problem,
                                                   tree6, tree_backend,
                                                   full_schedule):
        sol, report = solve_mbsde(reflected_problem, full_schedule, tree6,
                                  tree_backend)
        y0s = [r.y0 for r in report.rows]
        assert all(b >= a - 1e-9 for a, b in zip(y0s, y0s[1:]))
        assert max(r.mono_violation for r in report.rows) <= 1e-9
        proj = projection_value(tree6, tree6.w_nodes[6], barrier=0.0)
        assert abs(sol.y0() - proj) <= 2e-2
        assert sol.k_terminal_mean() > 0.0

    def test_non_convergence_reported_not_raised(self, reflected_problem,
                                                 tree6, tree_backend):
        sched = PenalizationSchedule(levels=(1, 2), stop_tolerance=1e-12)
        sol, report = solve_mbsde(reflected_problem, sched, tree6, tree_backend)
        assert sol is not None
        assert not report.converged
        assert "delta" in report.reason

    def test_stop_tolerance_zero_runs_every_level(self, slack_problem, tree6,
                                                  tree_backend):
        # the penalty never activates, so every delta is exactly 0; a
        # positive tolerance, however small, would stop after level 2
        sched = PenalizationSchedule(levels=(1, 2, 4), stop_tolerance=0.0)
        _, report = solve_mbsde(slack_problem, sched, tree6, tree_backend)
        assert report.levels == [1, 2, 4]
        assert [r.delta_prev for r in report.rows[1:]] == [0.0, 0.0]
        assert not report.converged
        with pytest.raises(ValueError):
            PenalizationSchedule(stop_tolerance=-1e-12)

    def test_k_increments_stable_under_refinement(self, reg_backend):
        # discrete proxy for continuity of K: with the path law held fixed,
        # the largest per-step increment must not blow up as the grid refines
        # (trees are unsuitable here: they explore exponentially deeper
        # states as N grows, which inflates the raw maximum)
        marks = MarkSpace.empty()
        increments = []
        for n_steps in (4, 8, 16):
            grid = TimeGrid.uniform(1.0, n_steps)
            ens = simulate_paths(grid, marks, 4000, seed=77)
            prob = Problem(grid, marks, make_driver("zero", {}, marks),
                           make_terminal("brownian", {}, marks, grid),
                           family=make_family("reflect_at", {"a": 0.0}, grid))
            sol = solve_penalized(prob, 256, ens, reg_backend)
            increments.append(np.diff(sol.K, axis=1).max())
        assert increments[1] <= 1.5 * increments[0]
        assert increments[2] <= 1.5 * increments[0]

    def test_solution_grid_invariants(self, reflected_problem, tree6,
                                      tree_backend, full_schedule):
        sol, _ = solve_mbsde(reflected_problem, full_schedule, tree6,
                             tree_backend)
        sol.validate()

    def test_report_json_round_trip(self, slack_problem, tree6, tree_backend,
                                    tmp_path):
        import json
        sched = PenalizationSchedule(levels=(1, 2), stop_tolerance=1e-8)
        _, report = solve_mbsde(slack_problem, sched, tree6, tree_backend)
        path = tmp_path / "report.json"
        report.write_json(path)
        data = json.loads(path.read_text())
        assert data["converged"] is True
        assert [r["level"] for r in data["rows"]] == [1, 2]


class TestStoppingTimes:
    @pytest.fixture()
    def unbounded_setup(self):
        grid = TimeGrid.uniform(1.0, 8)
        marks = MarkSpace([1.0], [1.0])
        ens = simulate_paths(grid, marks, 2000, seed=42)
        prob = Problem(grid, marks,
                       make_driver("zero", {}, marks),
                       make_terminal("brownian", {}, marks, grid),
                       family=make_family("linear_decay", {}, grid),
                       envelope=make_envelope("linear_decay", {}, grid))
        return grid, marks, ens, prob

    def test_huge_level_stops_at_zero(self, unbounded_setup, reg_backend):
        grid, marks, ens, prob = unbounded_setup
        sched = PenalizationSchedule(levels=(1, 4, 16), stop_tolerance=1e-2)
        sol, _ = solve_unbounded(prob, sched, ens, reg_backend,
                                 max_truncation=2)
        big = int(np.ceil(grid.horizon * (1 + np.max(sol.Y.clip(min=0)))) + 1)
        tau = stopping_times(sol, prob.envelope, big, grid)
        assert np.all(tau == 0)

    def test_terminal_always_hits(self, unbounded_setup, reg_backend):
        grid, marks, ens, prob = unbounded_setup
        # even with Y pushed far up, ell(T, .) = 0 <= level catches at T
        sol = solve_penalized(
            replace(prob, family=make_family("reflect_at", {"a": 0.0}, grid)),
            1, ens, reg_backend)
        sol.Y += 1e6
        tau = stopping_times(sol, prob.envelope, 1, grid)
        assert np.all(tau <= grid.n_steps)
        assert np.all(tau == grid.n_steps)

    def test_monotone_in_level(self, unbounded_setup, reg_backend):
        grid, marks, ens, prob = unbounded_setup
        sched = PenalizationSchedule(levels=(1, 4, 16, 64), stop_tolerance=1e-3)
        _, record = solve_unbounded(prob, sched, ens, reg_backend,
                                    max_truncation=6)
        assert np.all(np.diff(record.tau, axis=0) <= 0)
        assert np.all(record.tau[0] == grid.n_steps)   # tau_0 = T anchor


class TestSolveUnbounded:
    def test_guards(self, reflected_problem, tree6, tree_backend):
        sched = PenalizationSchedule()
        with pytest.raises(ValueError):
            solve_unbounded(reflected_problem, sched, tree6, tree_backend)

    def test_missing_envelope(self, grid6, no_marks, tree6, tree_backend):
        prob = Problem(grid6, no_marks, make_driver("zero", {}, no_marks),
                       make_terminal("brownian", {}, no_marks, grid6),
                       family=make_family("linear_decay", {}, grid6))
        with pytest.raises(ValueError):
            solve_unbounded(prob, PenalizationSchedule(), tree6, tree_backend)

    def test_inactive_truncation_levels_agree_exactly(self, tree_backend):
        # k = (T-t) * 0.05 x stays far below both truncation levels on the
        # attained states, so consecutive levels solve the same problem
        grid = TimeGrid.uniform(1.0, 5)
        marks = MarkSpace.empty()
        tree = build_tree(grid, marks)
        prob = Problem(grid, marks, make_driver("zero", {}, marks),
                       make_terminal("brownian", {}, marks, grid),
                       family=make_family("linear_decay", {"scale": 0.05}, grid),
                       envelope=make_envelope("linear_decay", {}, grid))
        sched = PenalizationSchedule(levels=(1, 4, 16, 64, 256, 1024),
                                     stop_tolerance=1e-7)
        # agreement is limited by the finite penalization level reached, not
        # by the stop tolerance, hence the explicit floor
        sol, record = solve_unbounded(prob, sched, tree, tree_backend,
                                      max_truncation=3, overlap_floor=1e-4)
        for overlap in record.overlaps:
            assert overlap.max_y_diff <= 1e-4

    def test_pipeline_on_paper_example(self, reg_backend):
        grid = TimeGrid.uniform(1.0, 8)
        marks = MarkSpace([1.0], [1.0])
        ens = simulate_paths(grid, marks, 4000, seed=42)
        prob = Problem(grid, marks, make_driver("zero", {}, marks),
                       make_terminal("brownian", {}, marks, grid),
                       family=make_family("linear_decay", {}, grid),
                       envelope=make_envelope("linear_decay", {}, grid))
        sched = PenalizationSchedule(levels=(1, 4, 16, 64, 256),
                                     stop_tolerance=1e-3)
        sol, record = solve_unbounded(prob, sched, ens, reg_backend,
                                      max_truncation=6)
        assert record.uncovered_cells == 0
        assert np.all(np.diff(record.tau, axis=0) <= 0)
        # truncation ordering: deeper truncations lower the solution
        assert all(b <= a + 5e-2 for a, b in zip(record.level_y0,
                                                 record.level_y0[1:]))
        # K starts at zero but may decrease (bounded variation after unshift)
        assert np.abs(sol.K[:, 0]).max() == 0.0
        report = residual_check(sol, prob.driver, ens, grid, marks)
        assert report.passed()

    def test_concatenation_csv(self, tree_backend, tmp_path):
        grid = TimeGrid.uniform(1.0, 4)
        marks = MarkSpace.empty()
        tree = build_tree(grid, marks)
        prob = Problem(grid, marks, make_driver("zero", {}, marks),
                       make_terminal("brownian", {}, marks, grid),
                       family=make_family("linear_decay", {}, grid),
                       envelope=make_envelope("linear_decay", {}, grid))
        sched = PenalizationSchedule(levels=(1, 4, 16), stop_tolerance=1e-2)
        _, record = solve_unbounded(prob, sched, tree, tree_backend,
                                    max_truncation=2)
        path = tmp_path / "concat.csv"
        record.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "path,level,tau_index"
        assert len(lines) == 1 + 3 * tree.n_leaves  # anchor + 2 levels


def _uncovered_case(scenario_kind):
    """5-step one-mark problems whose segments leave cells uncovered."""
    grid = TimeGrid.uniform(1.0, 5)
    marks = MarkSpace([1.0], [1.0])
    shift = 3.0 if scenario_kind == "tree" else 2.0
    prob = Problem(grid, marks, make_driver("zero", {}, marks),
                   make_terminal("brownian", {"shift": shift}, marks, grid),
                   family=make_family("linear_decay", {}, grid),
                   envelope=make_envelope("linear_decay", {}, grid))
    if scenario_kind == "tree":
        return prob, build_tree(grid, marks), CEBackend(kind="tree")
    return (prob, simulate_paths(grid, marks, 2000, seed=3),
            CEBackend(kind="regression", degree=2))


def _scale8_problem(n_steps):
    """k = 8 (T-t) x with envelope 8 (T-t)(1+x+), one mark: truncation binds."""
    grid = TimeGrid.uniform(1.0, n_steps)
    marks = MarkSpace([1.0], [1.0])
    return Problem(grid, marks, make_driver("zero", {}, marks),
                   make_terminal("brownian", {}, marks, grid),
                   family=make_family("linear_decay", {"scale": 8.0}, grid),
                   envelope=make_envelope("linear_decay", {"scale": 8.0},
                                          grid))


def _every_level_reference(prob, sched, scenario, backend, max_truncation):
    """Glued Y, Z, psi and K from every level's own solve up to the cap.

    Cell (path, i) follows the first level n with tau_n <= i, else the last
    level.  Also returns the uncovered cell count and the first level after
    which every cell is claimed (None if no level up to the cap is one).
    """
    grid = prob.grid
    sols, dks, taus = [], [], []
    for n in range(1, max_truncation + 1):
        prob_n = replace(prob, family=truncate_shift(prob.family, n),
                         driver=prob.driver.shifted(n))
        sol_n, _ = solve_mbsde(prob_n, sched, scenario, backend)
        sols.append(sol_n)
        # K^n = K-hat - n t by increments: the stored dK-hat_i - n dt_i
        dks.append(sol_n.on_paths("K").leaves()[:, 1:] - n * grid.steps)
        taus.append(stopping_times(sol_n, prob.envelope, n, grid))

    n_paths, n_steps = sols[0].Z.shape
    Y = sols[0].Y.copy()
    Z = np.empty_like(sols[0].Z)
    psi = np.empty_like(sols[0].psi)
    dK = np.empty_like(sols[0].Z)
    uncovered = 0
    for p in range(n_paths):
        for i in range(n_steps):
            started = [n for n in range(max_truncation) if taus[n][p] <= i]
            uncovered += not started
            owner = started[0] if started else -1
            Y[p, i] = sols[owner].Y[p, i]
            Z[p, i] = sols[owner].Z[p, i]
            psi[p, i] = sols[owner].psi[p, i]
            dK[p, i] = dks[owner][p, i]
    K = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(dK, axis=1)],
                       axis=1)
    # every cell of a path is claimed once some level's tau is 0 on it
    full = (np.minimum.accumulate(np.array(taus), axis=0) == 0).all(axis=1)
    first_full = int(np.argmax(full)) + 1 if full.any() else None
    return (Y, Z, psi, K), uncovered, first_full


def _glued_against_reference(prob, sched, scenario, backend, max_truncation,
                             monkeypatch):
    """solve_unbounded against the every-level reference, bit for bit.

    Returns the record, the number of ladders it solved, the reference's
    uncovered cell count and first level leaving no cell free.
    """
    calls = []

    def counted(*args):
        calls.append(args[0])
        return solve_mbsde(*args)

    monkeypatch.setattr(penalization, "solve_mbsde", counted)
    sol, record = solve_unbounded(prob, sched, scenario, backend,
                                  max_truncation=max_truncation)
    monkeypatch.undo()
    want, uncovered, first_full = _every_level_reference(
        prob, sched, scenario, backend, max_truncation)

    for got, ref in zip((sol.Y, sol.Z, sol.psi, sol.K), want):
        assert np.array_equal(got, ref)
    assert record.uncovered_cells == uncovered
    # the level after the first one leaving no cell free is the last solved
    solved = max_truncation if first_full is None else min(first_full + 1,
                                                           max_truncation)
    assert len(calls) == len(record.level_y0) == solved
    assert record.levels == list(range(1, max_truncation + 1))
    assert record.tau.shape == (max_truncation + 1, scenario.weights.size)
    assert np.all(record.tau[solved + 1:] == 0)
    return record, len(calls), uncovered, first_full


class TestConcatenation:
    @pytest.mark.parametrize("scenario_kind", ["tree", "regression"])
    def test_cells_follow_the_first_started_level(self, scenario_kind,
                                                  monkeypatch):
        # cells stay free up to the cap, so every level is solved
        prob, scenario, backend = _uncovered_case(scenario_kind)
        sched = PenalizationSchedule(levels=(1, 4, 16), stop_tolerance=1e-2)
        _, solves, uncovered, first_full = _glued_against_reference(
            prob, sched, scenario, backend, 2, monkeypatch)
        assert uncovered > 0 and first_full is None
        assert solves == 2

    def test_loop_stops_one_level_after_every_cell_is_claimed(self,
                                                             monkeypatch):
        # on the 5-step tree, levels 2-8 claim cells and level 8 leaves none
        # free, so 9 of the 12 levels are solved
        prob = _scale8_problem(5)
        scenario, backend = build_tree(prob.grid, prob.marks), CEBackend("tree")
        sched = PenalizationSchedule(levels=(1, 4, 16, 64, 256),
                                     stop_tolerance=1e-3)
        record, solves, uncovered, first_full = _glued_against_reference(
            prob, sched, scenario, backend, 12, monkeypatch)
        assert first_full == 8 and solves == 9 and uncovered == 0
        # the extra level checks the overlap over the whole horizon
        assert len(record.overlaps) == 8
        assert record.overlaps[-1].cells == scenario.n_leaves * 6

    def test_errors_name_the_truncation_level(self):
        # the scale-8 instance on the unbounded-mc grid breaches the
        # ensemble monotonicity gate at penalization level 4 of truncation
        # level 1
        prob = _scale8_problem(8)
        ens = simulate_paths(prob.grid, prob.marks, 2000, seed=909)
        sched = PenalizationSchedule(levels=(1, 4, 16, 64, 256),
                                     stop_tolerance=1e-3)
        with pytest.raises(MonotonicityBreach,
                           match=r"^truncation level 1: level 4: ") as info:
            solve_unbounded(prob, sched, ens,
                            CEBackend(kind="regression", degree=2))
        assert type(info.value.__cause__) is MonotonicityBreach

    def test_memory_does_not_grow_with_truncation_levels(self, grid6, marks1,
                                                         tree6_jumps,
                                                         tree_backend):
        # one previous level is kept, so going from 2 to 8 truncation levels
        # may add their tau rows and level reports, but less than one
        # level's solution held on the nodes as the glue holds it; keeping
        # every level would add six of them.  At scale 8 cells stay free up
        # to level 8, so the loop does not stop early
        scale = {"scale": 8.0}
        prob = Problem(grid6, marks1, make_driver("zero", {}, marks1),
                       make_terminal("brownian", {}, marks1, grid6),
                       family=make_family("linear_decay", scale, grid6),
                       envelope=make_envelope("linear_decay", scale, grid6))
        sched = PenalizationSchedule(levels=(1, 4))
        peaks = {}
        tracemalloc.start()
        try:
            for max_truncation in (2, 8):
                tracemalloc.reset_peak()
                sol, record = solve_unbounded(prob, sched, tree6_jumps,
                                              tree_backend,
                                              max_truncation=max_truncation,
                                              overlap_floor=1.0)
                peaks[max_truncation] = tracemalloc.get_traced_memory()[1]
                assert len(record.level_y0) == max_truncation
                level_bytes = sum(col.nbytes for name in ("Y", "Z", "psi", "K")
                                  for col in sol.nodes(name).columns)
                del sol
        finally:
            tracemalloc.stop()
        assert peaks[8] - peaks[2] <= level_bytes
