"""Acceptance criteria, one test per criterion.

Each test prints a pass/fail line (run with ``pytest tests/test_acceptance.py
-s`` to see them inline) and enforces the stated tolerance and runtime budget.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from mbsdej import (CEBackend, HypothesisViolated, MarkSpace,
                    PenalizationSchedule, PenalizedOperator, Problem,
                    TerminalSpec, TimeGrid, build_tree, residual_check,
                    simulate_paths, solve_bsde, solve_mbsde, solve_penalized,
                    solve_unbounded, validate_assumptions)
from mbsdej.registry import (make_driver, make_envelope, make_family,
                             make_terminal)
from mbsdej.verification import (GraphSelection, check_comparison,
                                 check_constraint, check_skorokhod,
                                 lemma1_pairing_stat, oracle_compare)

from conftest import full_solution, projection_value, uniqueness_entry


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance #{number}] FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance #{number}] PASS  {label}  "
          f"({elapsed:.2f}s < {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds


def test_01_penalization_closed_form():
    """Reflection family: k_n(t, x) = n min(x - a, 0) on 1000 triples."""
    with criterion(1, "penalization closed form, |err| <= 1e-9", 1.0):
        grid = TimeGrid.uniform(1.0, 2)
        worst = 0.0
        levels = [1, 2, 4, 8, 16, 32, 64, 128, 512, 1024]
        offsets = np.linspace(-3.0, 3.0, 10)
        for a in np.linspace(-2.0, 2.0, 10):
            family = make_family("reflect_at", {"a": float(a)}, grid)
            xs = a + offsets
            expected = np.array([lev * np.minimum(xs - a, 0.0)
                                 for lev in levels])
            got = np.array([PenalizedOperator(family, lev).eval(0.5, xs)
                            for lev in levels])
            worst = max(worst, float(np.abs(got - expected).max()))
        assert worst <= 1e-9


def test_02_approximation_lemma_properties():
    """Monotone decrease, n-Lipschitz bound, convergence on the domain and
    divergence outside it."""
    with criterion(2, "approximation lemma on four families", 10.0):
        grid = TimeGrid.uniform(1.0, 2)
        families = {
            "constant": make_family("constant", {"c": -1.0}, grid),
            "min_zero": make_family("min_zero", {}, grid),
            "neg_exp": make_family("neg_exp", {}, grid),
            "reflect": make_family("reflect_at", {"a": 0.0}, grid),
        }
        # gap probes sit where |k k'| <= 1 so the true resolvent rate
        # |k(x) k'(x)| / n meets the 1e-6 budget at n = 2^20
        gap_points = {
            "constant": np.array([-2.0, -0.5, 0.0, 0.7, 1.5]),
            "min_zero": np.array([-0.9, -0.5, 0.0, 0.7, 1.5]),
            "neg_exp": np.array([0.2, 0.8, 2.0]),
            "reflect": np.array([0.0, 0.3, 1.0, 2.2]),
        }
        mono_points = {
            "constant": np.array([-3.0, -0.5, 0.0, 2.5]),
            "min_zero": np.array([-3.0, -0.5, 0.0, 2.5]),
            "neg_exp": np.array([-1.5, 0.0, 2.5]),
            "reflect": np.array([0.0, 0.4, 2.5]),
        }
        ladder = [2**k for k in range(11)] + [2**20]
        t = 0.25
        for name, family in families.items():
            values = np.array([PenalizedOperator(family, lev).eval(
                t, mono_points[name]) for lev in ladder])
            # (ii) decreasing in the level
            assert np.all(np.diff(values, axis=0) <= 2e-10)
            # (iii) convergence to k on the domain at n = 2^20
            xs = gap_points[name]
            final = PenalizedOperator(family, 2**20).eval(t, xs)
            assert np.abs(final - family.k(t, xs)).max() <= 1e-6
            # (i) Lipschitz with constant n on sampled pairs
            for lev in (4, 64, 2**20):
                op = PenalizedOperator(family, lev)
                pts = np.linspace(-1.5, 1.5, 7)
                vals = op.eval(t, pts)
                gaps = np.abs(np.diff(vals))
                assert np.all(gaps <= lev * np.abs(np.diff(pts)) + 2e-10)
        # unbounded below outside the domain
        op = PenalizedOperator(families["reflect"], 2**20)
        assert np.all(op.eval(t, np.array([-1.5, -2.0, -4.0])) <= -1e6)


def test_03_martingale_representation():
    """Tree backend, f == 0: xi = W_T gives Z == 1, xi = Ntilde_T gives
    psi == 1, both to 1e-10."""
    with criterion(3, "martingale representation exact on the tree", 1.0):
        grid = TimeGrid.uniform(1.0, 6)
        marks = MarkSpace([1.0], [1.0])
        tree = build_tree(grid, marks)
        backend = CEBackend(kind="tree")
        driver = make_driver("zero", {}, marks)
        sol_w = solve_bsde(driver, make_terminal("brownian", {}, marks, grid),
                           tree, grid, marks, backend)
        assert np.abs(sol_w.Z - 1.0).max() <= 1e-10
        assert np.abs(sol_w.psi).max() <= 1e-10
        sol_n = solve_bsde(driver,
                           make_terminal("compensated_jumps", {}, marks, grid),
                           tree, grid, marks, backend)
        assert np.abs(sol_n.psi - 1.0).max() <= 1e-10
        assert np.abs(sol_n.Z).max() <= 1e-10


def test_04_single_valued_reduction():
    """k = min(x, 0): MBSDE at level 2^10 vs direct BSDE with driver
    f - k(t, y), |dY0| <= 1e-2 on the N = 8 tree."""
    with criterion(4, "single-valued reduction |dY0| <= 1e-2", 30.0):
        grid = TimeGrid.uniform(1.0, 8)
        marks = MarkSpace.empty()
        tree = build_tree(grid, marks)
        backend = CEBackend(kind="tree")
        driver = make_driver("zero", {}, marks)
        terminal = make_terminal("brownian", {}, marks, grid)
        problem = Problem(grid, marks, driver, terminal,
                          family=make_family("min_zero", {}, grid))
        schedule = PenalizationSchedule(levels=tuple(2**k for k in range(11)),
                                        stop_tolerance=0.0)
        mb, report = solve_mbsde(problem, schedule, tree, backend)
        assert report.rows[-1].level == 2**10

        def direct_shape(t, state, y, z, q):
            return -np.minimum(y, 0.0)

        direct = solve_bsde(
            replace(driver, shape=direct_shape, lipschitz_c=1.0),
            terminal, tree, grid, marks, backend)
        assert abs(mb.y0() - direct.y0()) <= 1e-2


def test_05_reflected_problem_oracle():
    """Penalized tree values increase to the projection-recursion value
    (gap <= 2e-2 at level 2^10); constraint slack >= -5e-2."""
    with criterion(5, "reflected oracle: monotone to projection", 60.0):
        grid = TimeGrid.uniform(1.0, 6)
        marks = MarkSpace.empty()
        tree = build_tree(grid, marks)
        backend = CEBackend(kind="tree")
        problem = Problem(grid, marks, make_driver("zero", {}, marks),
                          make_terminal("brownian", {}, marks, grid),
                          family=make_family("reflect_at", {"a": 0.0}, grid))
        levels = [2**k for k in range(11)]
        y0s = []
        final = None
        for lev in levels:
            final = solve_penalized(problem, lev, tree, backend)
            y0s.append(final.y0())
        assert all(b >= a - 1e-9 for a, b in zip(y0s, y0s[1:]))
        projection = projection_value(tree, tree.w_nodes[6], barrier=0.0)
        assert abs(y0s[-1] - projection) <= 2e-2
        slack = check_constraint(final, problem.family, tol=5e-2)
        assert slack.passed
        # the independent oracle agrees level by level
        entry = oracle_compare(problem, tree, levels=levels)
        assert entry.passed
        assert entry.statistic <= 2e-2


def _comparison_variations(problem):
    lower_term = replace(problem, terminal=TerminalSpec(
        lambda s: s.w - 0.5, name="w-0.5"))
    dominated = replace(problem, driver=problem.driver.shifted(1.0))
    fam = problem.family
    lowered_fam = fam.map_values(shift=-0.5, name="lowered")
    return [(lower_term, problem), (dominated, problem),
            (problem, replace(problem, family=lowered_fam))]


def test_06_comparison_suite():
    """Three hypothesis variations: zero violations on the shared tree at
    tol 1e-8; regression with 1e4 paths at most 1% violating cells."""
    with criterion(6, "comparison suite (tree exact, MC <= 1%)", 120.0):
        grid = TimeGrid.uniform(1.0, 5)
        marks = MarkSpace([1.0], [1.0])
        problem = Problem(grid, marks, make_driver("zero", {}, marks),
                          make_terminal("brownian", {}, marks, grid),
                          family=make_family("reflect_at", {"a": 0.0}, grid))
        schedule = PenalizationSchedule(levels=(1, 4, 16, 64),
                                        stop_tolerance=1e-4)
        tree = build_tree(grid, marks)
        tb = CEBackend(kind="tree")
        for low, high in _comparison_variations(problem):
            entry = check_comparison(
                low, full_solution(low, tree, tb, schedule),
                high, full_solution(high, tree, tb, schedule), tree, tol=1e-8)
            assert entry.passed and entry.statistic == 0.0
        ens = simulate_paths(grid, marks, 10_000, seed=606)
        backend = CEBackend(kind="regression", degree=3)
        for low, high in _comparison_variations(problem):
            entry = check_comparison(
                low, full_solution(low, ens, backend, schedule),
                high, full_solution(high, ens, backend, schedule), ens,
                tol=1e-2)
            assert entry.passed
            assert entry.statistic <= 0.01


def test_07_uniqueness():
    """Tree-vs-tree difference exactly 0; two regression seeds within four
    combined batch-means standard errors."""
    with criterion(7, "uniqueness (exact and statistical)", 120.0):
        grid = TimeGrid.uniform(1.0, 6)
        marks = MarkSpace.empty()
        problem = Problem(grid, marks, make_driver("zero", {}, marks),
                          make_terminal("brownian", {}, marks, grid),
                          family=make_family("reflect_at", {"a": 0.0}, grid))
        schedule = PenalizationSchedule(levels=(1, 4, 16, 64, 256),
                                        stop_tolerance=1e-4)
        tree = build_tree(grid, marks)
        tb = CEBackend(kind="tree")
        entry = uniqueness_entry(problem, tree, tree, tb, tb, schedule)
        assert entry.passed and entry.statistic == 0.0
        rb = CEBackend(kind="regression", degree=2)
        ens_a = simulate_paths(grid, marks, 10_000, seed=1001)
        ens_b = simulate_paths(grid, marks, 10_000, seed=1002)
        entry = uniqueness_entry(problem, ens_a, ens_b, rb, rb, schedule)
        assert entry.passed
        assert entry.statistic <= entry.tolerance


def test_08_skorokhod_negativity():
    """All subinterval sums <= 5e-2 for the three selection strategies, and
    the Lemma-1 pairing between two independent solves <= 5e-2."""
    with criterion(8, "Skorokhod-type negativity", 60.0):
        grid = TimeGrid.uniform(1.0, 6)
        marks = MarkSpace.empty()
        tree = build_tree(grid, marks)
        backend = CEBackend(kind="tree")
        problem = Problem(grid, marks, make_driver("zero", {}, marks),
                          make_terminal("brownian", {}, marks, grid),
                          family=make_family("reflect_at", {"a": 0.0}, grid))
        sol = solve_penalized(problem, 2**10, tree, backend)
        other = solve_penalized(problem, 2**9, tree, backend)
        fam = problem.family
        selections = [GraphSelection.interior_constant(fam, grid, 0.5),
                      GraphSelection.boundary_offset(fam, grid, 1e-3),
                      GraphSelection.midpoint(fam, grid, sol, other)]
        entry = check_skorokhod(sol, fam, selections, tol=5e-2)
        assert entry.passed
        # Lemma-1 pairing between two independent approximations of the same
        # problem on one scenario (different regression bases)
        ens = simulate_paths(grid, marks, 10_000, seed=808)
        schedule = PenalizationSchedule(levels=(1, 4, 16, 64, 256),
                                        stop_tolerance=1e-4)
        sol_a, _ = solve_mbsde(problem, schedule, ens,
                               CEBackend(kind="regression", degree=2))
        sol_b, _ = solve_mbsde(problem, schedule, ens,
                               CEBackend(kind="regression", degree=3))
        assert lemma1_pairing_stat(sol_a, sol_b) <= 5e-2


def test_09_unbounded_extension():
    """k = (T-t) x with envelope (T-t)(1+x+): the truncation-concatenation
    pipeline completes with monotone stopping times, consistent overlaps and
    a residual-passing concatenated solution."""
    with criterion(9, "truncation-concatenation pipeline", 300.0):
        grid = TimeGrid.uniform(1.0, 8)
        marks = MarkSpace([1.0], [1.0])
        ens = simulate_paths(grid, marks, 10_000, seed=909)
        problem = Problem(grid, marks, make_driver("zero", {}, marks),
                          make_terminal("brownian", {}, marks, grid),
                          family=make_family("linear_decay", {}, grid),
                          envelope=make_envelope("linear_decay", {}, grid))
        report = validate_assumptions(problem.family, problem.envelope, grid,
                                      [0.5, 1.0, 2.0])
        assert report.passed
        schedule = PenalizationSchedule(levels=(1, 4, 16, 64, 256),
                                        stop_tolerance=1e-3)
        backend = CEBackend(kind="regression", degree=2)
        sol, record = solve_unbounded(problem, schedule, ens, backend,
                                      max_truncation=16)
        assert record.tau.shape == (17, ens.n_paths)
        assert np.all(record.tau[0] == grid.n_steps)      # tau_0 = T
        assert np.all(np.diff(record.tau, axis=0) <= 0)   # nonincreasing
        for overlap in record.overlaps:                   # within gate
            gate = 10 * schedule.stop_tolerance + 4 * overlap.se_y_diff
            assert overlap.cells == 0 or abs(overlap.mean_y_diff) <= gate
        resid = residual_check(sol, problem.driver, ens, grid, marks)
        assert resid.passed()


def test_10_negative_controls():
    """Corrupted solutions, unordered terminals and a (B.2)-violating family
    must all be caught."""
    with criterion(10, "negative controls all detected", 30.0):
        grid = TimeGrid.uniform(1.0, 6)
        marks = MarkSpace.empty()
        tree = build_tree(grid, marks)
        backend = CEBackend(kind="tree")
        problem = Problem(grid, marks, make_driver("zero", {}, marks),
                          make_terminal("brownian", {}, marks, grid),
                          family=make_family("reflect_at", {"a": 0.0}, grid))
        schedule = PenalizationSchedule(levels=(1, 4, 16), stop_tolerance=1e-4)
        sol, _ = solve_mbsde(problem, schedule, tree, backend)
        sol.nodes("Y")[3] += 1.0
        assert not residual_check(sol, problem.driver, tree, grid,
                                  marks).passed()
        higher = replace(problem, terminal=TerminalSpec(lambda s: s.w + 0.5,
                                                        name="w+0.5"))
        with pytest.raises(HypothesisViolated):
            check_comparison(higher, sol, problem, sol, tree)
        bad = make_family("blowup_near_terminal", {}, grid)
        report = validate_assumptions(bad, None, grid, [1.0, 2.0])
        assert not report.item("B2").passed
