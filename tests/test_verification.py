import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsdej import (CEBackend, HypothesisViolated, InvalidSelection,
                    MarkSpace, PenalizationSchedule, Problem, TerminalSpec,
                    TimeGrid, build_tree, simulate_paths, solve_bsde,
                    solve_mbsde, solve_penalized)
from mbsdej import bsde
from mbsdej.registry import make_driver, make_family, make_terminal
from mbsdej.verification import (GraphSelection, PropertyReport, bounds_monitor,
                                 check_comparison, check_constraint,
                                 check_skorokhod, corollary1_ordering_stat,
                                 lemma1_pairing_stat, lipschitz_remark_check,
                                 oracle_compare)

from conftest import full_solution, uniqueness_entry



@pytest.fixture(scope="module")
def reflected_solution(reflected_problem, tree6, tree_backend, full_schedule):
    sol, report = solve_mbsde(reflected_problem, full_schedule, tree6,
                              tree_backend)
    return sol, report


class TestConstraint:
    def test_slack_problem_passes_tight(self, slack_problem, tree6,
                                        tree_backend, full_schedule):
        sol, _ = solve_mbsde(slack_problem, full_schedule, tree6, tree_backend)
        entry = check_constraint(sol, slack_problem.family, tol=1e-6)
        assert entry.passed
        assert entry.statistic >= 1.0 - 1e-9

    def test_unconstrained_martingale_fails_with_witness(
            self, reflected_problem, grid6, no_marks, tree6, tree_backend):
        plain = solve_bsde(reflected_problem.driver, reflected_problem.terminal,
                           tree6, grid6, no_marks, tree_backend)
        entry = check_constraint(plain, reflected_problem.family, tol=1e-6)
        assert not entry.passed
        assert entry.witness is not None
        p, i = entry.witness["path"], entry.witness["step"]
        assert plain.Y[p, i] == pytest.approx(entry.witness["slack"])

    def test_penalized_solution_passes_calibrated(self, reflected_solution,
                                                  reflected_problem):
        sol, _ = reflected_solution
        entry = check_constraint(sol, reflected_problem.family, tol=5e-2)
        assert entry.passed


class TestSkorokhod:
    def test_single_valued_family_monotonicity(self, grid6, no_marks, tree6,
                                               tree_backend, full_schedule):
        fam = make_family("min_zero", {}, grid6)
        prob = Problem(grid6, no_marks, make_driver("zero", {}, no_marks),
                       make_terminal("brownian", {}, no_marks, grid6),
                       family=fam)
        sol, _ = solve_mbsde(prob, full_schedule, tree6, tree_backend)
        sels = [GraphSelection.interior_constant(fam, grid6, x) for x in
                (-1.0, 0.0, 0.7)]
        entry = check_skorokhod(sol, fam, sels, tol=1e-3)
        assert entry.passed

    def test_zero_k_sign_argument_exact(self, grid6, no_marks, tree6,
                                        tree_backend):
        # K == 0, beta = k(0.5) = -1 <= 0 and Y >= 1 > alpha: every term <= 0
        fam = make_family("constant", {"c": -1.0}, grid6)
        term = make_terminal("brownian_positive", {"shift": 1.0}, no_marks,
                             grid6)
        plain = solve_bsde(make_driver("zero", {}, no_marks), term, tree6,
                           grid6, no_marks, tree_backend)
        sel = GraphSelection.interior_constant(fam, grid6, 0.5)
        entry = check_skorokhod(plain, fam, [sel], tol=1e-12)
        assert entry.passed

    def test_reflected_all_strategies(self, reflected_solution,
                                      reflected_problem, grid6, tree6,
                                      tree_backend, full_schedule):
        sol, _ = reflected_solution
        fam = reflected_problem.family
        other = solve_penalized(reflected_problem, 512, tree6, tree_backend)
        sels = [GraphSelection.interior_constant(fam, grid6, 0.5),
                GraphSelection.boundary_offset(fam, grid6, 1e-3),
                GraphSelection.midpoint(fam, grid6, sol, other)]
        entry = check_skorokhod(sol, fam, sels, tol=5e-2)
        assert entry.passed

    def test_invalid_selection_rejected(self, reflected_solution,
                                        reflected_problem, grid6):
        sol, _ = reflected_solution
        fam = reflected_problem.family
        bad = GraphSelection("bad", [np.array([0.5])] * grid6.n_steps,
                             [np.array([0.25])] * grid6.n_steps)  # above graph
        with pytest.raises(InvalidSelection):
            check_skorokhod(sol, fam, [bad], tol=1.0)

    def test_subinterval_violation_caught(self, grid6, no_marks,
                                          reflected_problem, tree6,
                                          tree_backend, full_schedule):
        # corrupt K so the total sum stays fine but one span is positive
        sol, _ = solve_mbsde(reflected_problem, full_schedule, tree6,
                             tree_backend)
        fam = reflected_problem.family
        # an impulsive K increase while Y > alpha somewhere: K_3 - K_2 += 1
        sol.nodes("K")[3] += 1.0
        sel = GraphSelection.interior_constant(fam, grid6, 0.5)
        entry = check_skorokhod(sol, fam, [sel], tol=5e-2)
        assert not entry.passed
        assert entry.witness["end_step"] >= 3


class TestComparison:
    def variations(self, problem):
        lower_term = replace(
            problem,
            terminal=TerminalSpec(lambda s: s.w - 0.5, name="w-0.5"))
        dominated = replace(problem, driver=problem.driver.shifted(1.0))
        fam = problem.family
        lowered = fam.map_values(shift=-0.5, name="lowered")
        ordered_k = replace(problem, family=lowered)
        return [(lower_term, problem), (dominated, problem),
                (problem, ordered_k)]

    def test_tree_zero_violations(self, reflected_problem, tree6, tree_backend,
                                  full_schedule):
        for low, high in self.variations(reflected_problem):
            entry = check_comparison(
                low, full_solution(low, tree6, tree_backend, full_schedule),
                high, full_solution(high, tree6, tree_backend, full_schedule),
                tree6, tol=1e-8)
            assert entry.passed and entry.statistic == 0.0

    def test_ordered_k_strict_gap(self, reflected_problem, tree6, tree_backend,
                                  full_schedule):
        # k1 = 0 >= k2 = -1 on [0, inf): the -1 branch adds +1 drift, so
        # Y1 <= Y2 with a visible gap
        p1 = reflected_problem
        fam2 = p1.family.map_values(shift=-1.0, name="reflect_minus_one")
        p2 = replace(p1, family=fam2)
        entry = check_comparison(
            p1, full_solution(p1, tree6, tree_backend, full_schedule),
            p2, full_solution(p2, tree6, tree_backend, full_schedule),
            tree6, tol=1e-8)
        assert entry.passed
        sol1, _ = solve_mbsde(p1, full_schedule, tree6, tree_backend)
        sol2, _ = solve_mbsde(p2, full_schedule, tree6, tree_backend)
        assert sol2.y0() >= sol1.y0() + 0.5

    def test_regression_violation_fraction(self, reflected_problem, grid6,
                                           no_marks):
        # tol at Monte Carlo resolution; degree 3 keeps the polynomial
        # projection of the kinked solution difference from overshooting
        ens = simulate_paths(grid6, no_marks, 4000, seed=3)
        backend = CEBackend(kind="regression", degree=3)
        sched = PenalizationSchedule(levels=(1, 4, 16, 64), stop_tolerance=1e-3)
        low, high = self.variations(reflected_problem)[0]
        entry = check_comparison(low, full_solution(low, ens, backend, sched),
                                 high, full_solution(high, ens, backend, sched),
                                 ens, tol=1e-2)
        assert entry.passed
        assert entry.statistic <= 0.01

    def test_unordered_terminals_guarded(self, reflected_problem, tree6,
                                         reflected_solution):
        # the guard raises before either solution is read
        higher = replace(
            reflected_problem,
            terminal=TerminalSpec(lambda s: s.w + 0.5, name="w+0.5"))
        sol, _ = reflected_solution
        with pytest.raises(HypothesisViolated):
            check_comparison(higher, sol, reflected_problem, sol, tree6)

    def test_unordered_drivers_name_the_first_sample(self, reflected_problem,
                                                     tree6,
                                                     reflected_solution):
        # f1 > f2 = 0 where y + z + q > 3.5; the first such (y, z, q), with y
        # slowest and q fastest, is (1, 2, 1)
        higher = replace(reflected_problem, driver=replace(
            reflected_problem.driver,
            shape=lambda t, s, y, z, q: y + z + q - 3.5))
        zero = replace(reflected_problem, driver=replace(
            reflected_problem.driver,
            shape=lambda t, s, y, z, q: np.zeros_like(y)))
        sol, _ = reflected_solution
        with pytest.raises(HypothesisViolated, match=r"^driver ordering fails "
                           r"at t=0, \(y,z,q\)=\(1\.0,2\.0,1\.0\)$"):
            check_comparison(higher, sol, zero, sol, tree6)

    def test_unordered_family_guarded(self, reflected_problem, tree6,
                                      reflected_solution):
        raised_fam = replace(reflected_problem.family,
                             boundary=lambda t: 0.5, name="higher_barrier")
        p_high_barrier = replace(reflected_problem, family=raised_fam)
        sol, _ = reflected_solution
        with pytest.raises(HypothesisViolated):
            check_comparison(p_high_barrier, sol, reflected_problem, sol,
                             tree6)


class TestComparisonProperty:
    """The comparison theorem on random ordered triples, on a 4-step tree."""

    GRID = TimeGrid.uniform(1.0, 4)
    MARKS = MarkSpace([1.0], [1.0])
    TREE = build_tree(GRID, MARKS)
    SCHEDULE = PenalizationSchedule(levels=(1, 4, 16, 64))

    def scheme_weights(self, bz, qc, gamma):
        """Child weights 1 + bz dW + qc gamma lambda dt (dN - p)/Var(dN) of
        the tree scheme, which is monotone when they are nonnegative."""
        tree, lam = self.TREE, self.MARKS.intensities[0]
        out = []
        for i, dt in enumerate(self.GRID.steps):
            p = tree.probs[i]
            dn = tree.dN[i][:, 0] - p @ tree.dN[i][:, 0]
            out.append(1.0 + bz * tree.dW[i]
                       + qc * gamma * lam * dt * dn / (p @ dn**2))
        return np.concatenate(out)

    @given(family=st.sampled_from(["reflect_at", "min_zero"]),
           a=st.floats(-0.5, 0.5), shift=st.floats(-1.0, 1.0),
           jump_w=st.floats(-1.0, 1.0), drift=st.floats(-1.0, 1.0),
           bz=st.floats(-1.0, 1.0), qc=st.floats(0.0, 1.0),
           gamma=st.floats(-0.4, 0.4), c=st.floats(0.0, 1.0),
           d=st.floats(0.0, 1.0), e=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_ordered_triples_give_ordered_solutions(
            self, family, a, shift, jump_w, drift, bz, qc, gamma, c, d, e):
        assert self.scheme_weights(bz, qc, gamma).min() >= 0.0
        grid, marks, tree = self.GRID, self.MARKS, self.TREE
        fam1 = make_family(family, {"a": a} if family == "reflect_at" else {},
                           grid)
        driver1 = make_driver("mixed", {"a": drift, "bz": bz, "qc": qc,
                                        "gamma": gamma}, marks)
        p1 = Problem(grid, marks, driver1,
                     TerminalSpec(lambda s: s.w + shift + s.ntilde[:, 0] * jump_w,
                                  name="xi1"),
                     family=fam1)
        # xi2 = xi1 + c, f2 = f1 + d, k2 = k1 - e
        p2 = replace(p1,
                     terminal=TerminalSpec(
                         lambda s: p1.terminal(s) + c, name="xi1+c"),
                     driver=driver1.shifted(-d),
                     family=fam1.map_values(shift=-e, name="k1-e"))
        backend = CEBackend(kind="tree")
        entry = check_comparison(
            p1, full_solution(p1, tree, backend, self.SCHEDULE),
            p2, full_solution(p2, tree, backend, self.SCHEDULE), tree)
        assert entry.passed and entry.statistic == 0.0


class TestUniqueness:
    def test_tree_deterministic(self, reflected_problem, tree6, tree_backend,
                                full_schedule):
        entry = uniqueness_entry(reflected_problem, tree6, tree6, tree_backend,
                                 tree_backend, full_schedule)
        assert entry.passed and entry.statistic == 0.0

    def test_tree_vs_regression_on_spanned_problem(self, grid6, no_marks,
                                                   tree6, tree_backend,
                                                   reg_backend):
        # backend agreement holds for problems whose solution lies in the
        # regression span: linear driver, affine-in-W value function
        prob = Problem(grid6, no_marks,
                       make_driver("linear", {"a": 0.5, "b": -0.2}, no_marks),
                       make_terminal("brownian", {}, no_marks, grid6))
        ens = simulate_paths(grid6, no_marks, 8000, seed=5)
        entry = uniqueness_entry(prob, tree6, ens, tree_backend, reg_backend)
        assert entry.passed

    def test_two_regression_seeds(self, reflected_problem, grid6, no_marks,
                                  reg_backend):
        a = simulate_paths(grid6, no_marks, 8000, seed=7)
        b = simulate_paths(grid6, no_marks, 8000, seed=8)
        sched = PenalizationSchedule(levels=(1, 4, 16, 64, 256),
                                     stop_tolerance=1e-4)
        entry = uniqueness_entry(reflected_problem, a, b, reg_backend,
                                 reg_backend, sched)
        assert entry.passed
        assert entry.tolerance > 0


class TestOracle:
    def test_reflected_levels_increase_to_projection(self, reflected_problem,
                                                     tree6):
        entry = oracle_compare(reflected_problem, tree6,
                               levels=[1, 4, 16, 64, 256, 1024])
        assert entry.passed

    def test_slack_problem_all_levels_equal_expectation(self, slack_problem,
                                                        grid6, no_marks, tree6):
        entry = oracle_compare(slack_problem, tree6, levels=[1, 16, 256])
        assert entry.passed
        # projection value equals E[xi] since the constraint is inactive
        term = slack_problem.terminal
        from mbsdej.bsde import ForwardState
        state = ForwardState(grid6.horizon, tree6.w_nodes[6],
                             tree6.count_nodes[6], no_marks, grid6)
        exi = float(tree6.leaf_probs @ term(state))
        assert entry.statistic <= 1e-10 or abs(entry.statistic) < 2e-2
        sol_vals = oracle_compare(slack_problem, tree6, levels=[1])
        assert sol_vals.passed

    def test_linear_driver_closed_form_no_constraint(self, grid6, no_marks,
                                                     tree6):
        a, b = 0.8, -0.3
        prob = Problem(grid6, no_marks,
                       make_driver("linear", {"a": a, "b": b}, no_marks),
                       make_terminal("brownian", {}, no_marks, grid6))
        from mbsdej.verification import _oracle_dp
        v0 = _oracle_dp(tree6, prob, barrier=None, level=None, project=False)
        # discrete linear recursion in closed form: E[xi] = 0
        dt = grid6.steps[0]
        expected = 0.0
        for _ in range(6):
            expected = (expected + dt * b) / (1.0 - dt * a)
        assert v0 == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("steps, marks", [
        (8, MarkSpace.empty()),
        (6, MarkSpace([1.0], [1.0])),
    ], ids=["8-steps-no-marks", "6-steps-one-mark"])
    def test_levels_match_solver_with_z_dependent_driver(self, steps, marks):
        # the oracle must feed the driver its own z and psi projections: with
        # bz = 1 a z-blind oracle is off by more than 1 at every level
        grid = TimeGrid.uniform(1.0, steps)
        params = {"a": 0.5, "bz": 1.0}
        if marks.n_marks:
            params["gamma"] = 0.5
        prob = Problem(grid, marks, make_driver("mixed", params, marks),
                       make_terminal("brownian", {}, marks, grid),
                       family=make_family("reflect_at", {"a": 0.0}, grid))
        tree = build_tree(grid, marks)
        from mbsdej.verification import _oracle_dp
        for level in (1, 4, 16, 64, 256, 1024):
            oracle = _oracle_dp(tree, prob, 0.0, level=level, project=False)
            solver = solve_penalized(prob, level, tree, CEBackend(kind="tree"))
            assert oracle == pytest.approx(solver.y0(), abs=1e-10)

    def test_solver_disagreement_fails(self, monkeypatch):
        # a solver whose Z projection is wrong must fail even without an MC
        # scenario: the oracle alone is self-consistent
        grid = TimeGrid.uniform(1.0, 8)
        marks = MarkSpace.empty()
        prob = Problem(grid, marks,
                       make_driver("mixed", {"a": 0.5, "bz": 1.0}, marks),
                       make_terminal("brownian", {}, marks, grid),
                       family=make_family("reflect_at", {"a": 0.0}, grid))
        tree = build_tree(grid, marks)
        levels = [1, 16, 256]
        assert oracle_compare(prob, tree, levels).passed
        project = bsde._tree_projection

        def tripled_z(tree, i, y_next):
            ey, z, psi = project(tree, i, y_next)
            return ey, 3.0 * z, psi

        monkeypatch.setattr(bsde, "_tree_projection", tripled_z)
        entry = oracle_compare(prob, tree, levels)
        assert not entry.passed
        assert max(entry.witness["solver_gaps"]) > 1e-3

    def test_mc_match_within_se(self, reflected_problem, grid6, no_marks,
                                tree6, reg_backend):
        ens = simulate_paths(grid6, no_marks, 8000, seed=21)
        entry = oracle_compare(reflected_problem, tree6, levels=[1, 16, 256],
                               mc_scenario=ens, mc_backend=reg_backend)
        assert entry.passed

    def test_non_reflection_family_rejected(self, grid6, no_marks, tree6):
        prob = Problem(grid6, no_marks, make_driver("zero", {}, no_marks),
                       make_terminal("brownian", {}, no_marks, grid6),
                       family=make_family("neg_exp", {}, grid6))
        with pytest.raises(ValueError):
            oracle_compare(prob, tree6, levels=[1])


class TestLipschitzRemark:
    def test_min_zero_reduction(self, grid6, no_marks, tree6, tree_backend,
                                full_schedule):
        prob = Problem(grid6, no_marks, make_driver("zero", {}, no_marks),
                       make_terminal("brownian", {}, no_marks, grid6),
                       family=make_family("min_zero", {}, grid6))
        entry = lipschitz_remark_check(prob, full_schedule, tree6,
                                       tree_backend, tol=1e-2)
        assert entry.passed

    def test_constant_family_exact_at_any_level(self, grid6, no_marks, tree6,
                                                tree_backend):
        prob = Problem(grid6, no_marks, make_driver("zero", {}, no_marks),
                       make_terminal("brownian", {}, no_marks, grid6),
                       family=make_family("constant", {"c": -1.0}, grid6))
        sched = PenalizationSchedule(levels=(1, 2), stop_tolerance=1e-10)
        entry = lipschitz_remark_check(prob, sched, tree6, tree_backend,
                                       tol=1e-10)
        assert entry.passed

    def test_zero_family_is_plain_bsde(self, grid6, no_marks, tree6,
                                       tree_backend):
        prob = Problem(grid6, no_marks, make_driver("zero", {}, no_marks),
                       make_terminal("brownian", {}, no_marks, grid6),
                       family=make_family("constant", {"c": 0.0}, grid6))
        sched = PenalizationSchedule(levels=(1, 2), stop_tolerance=1e-10)
        entry = lipschitz_remark_check(prob, sched, tree6, tree_backend,
                                       tol=1e-12)
        assert entry.passed
        plain = solve_bsde(prob.driver, prob.terminal, tree6, grid6, no_marks,
                           tree_backend)
        assert plain.y0() == pytest.approx(0.0, abs=1e-12)

    def test_restricted_domain_guarded(self, reflected_problem, tree6,
                                       tree_backend, full_schedule):
        with pytest.raises(HypothesisViolated):
            lipschitz_remark_check(reflected_problem, full_schedule, tree6,
                                   tree_backend, tol=1e-2)


class TestBoundsMonitor:
    def test_slack_levels_identical(self, slack_problem, tree6, tree_backend):
        sched = PenalizationSchedule(levels=(1, 2, 4), stop_tolerance=1e-12)
        _, report = solve_mbsde(slack_problem, sched, tree6, tree_backend)
        entry = bounds_monitor(report)
        assert entry.passed

    def test_reflected_plateau(self, reflected_solution):
        _, report = reflected_solution
        entry = bounds_monitor(report)
        assert entry.passed

    def test_corrupted_monitors_flagged(self, reflected_solution):
        # the implicit scheme keeps honest monitors uniformly bounded in the
        # level, so the detector is exercised by fault injection
        _, report = reflected_solution
        import copy
        bad = copy.deepcopy(report)
        bad.rows[-1].k_terminal_sq *= 100.0
        entry = bounds_monitor(bad)
        assert not entry.passed
        assert entry.witness["monitor"] == "k_terminal_sq"
        assert entry.witness["level"] == bad.rows[-1].level


class TestPairingStats:
    def test_lemma1_and_corollary1_on_shared_scenario(self, reflected_problem,
                                                      grid6, no_marks,
                                                      reg_backend):
        ens = simulate_paths(grid6, no_marks, 4000, seed=13)
        sched = PenalizationSchedule(levels=(1, 4, 16, 64, 256),
                                     stop_tolerance=1e-4)
        sol_a, _ = solve_mbsde(reflected_problem, sched, ens, reg_backend)
        sol_b, _ = solve_mbsde(reflected_problem, sched, ens,
                               CEBackend(kind="regression", degree=3))
        assert lemma1_pairing_stat(sol_a, sol_b) <= 5e-2
        assert corollary1_ordering_stat(sol_a, sol_b) <= 5e-2


class TestPropertyReport:
    def test_json_schema(self, slack_problem, tree6, tree_backend, tmp_path):
        sched = PenalizationSchedule(levels=(1, 2), stop_tolerance=1e-8)
        sol, _ = solve_mbsde(slack_problem, sched, tree6, tree_backend)
        report = PropertyReport(meta={"seed": 0})
        report.add(check_constraint(sol, slack_problem.family, tol=1e-6))
        path = tmp_path / "report.json"
        report.write_json(path)
        data = json.loads(path.read_text())
        assert data["pass"] is True
        entry = data["checks"][0]
        assert set(entry) == {"check", "pass", "statistic", "tolerance",
                              "witness"}
