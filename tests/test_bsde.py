from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbsdej import (CEBackend, ContractionFailure, DriverSpec, MarkSpace,
                    PenalizedOperator, TerminalSpec, TimeGrid, bsde,
                    build_tree, residual_check, simulate_paths, solve_bsde)
from mbsdej.monotone import resolvent_ordinate
from mbsdej.registry import make_driver, make_family, make_terminal


class TestMartingaleRepresentation:
    def test_brownian_terminal(self, grid6, marks1, tree6_jumps, tree_backend):
        drv = make_driver("zero", {}, marks1)
        term = make_terminal("brownian", {}, marks1, grid6)
        sol = solve_bsde(drv, term, tree6_jumps, grid6, marks1, tree_backend)
        assert np.abs(sol.Z - 1.0).max() <= 1e-10
        assert np.abs(sol.psi).max() <= 1e-10
        assert np.abs(sol.K).max() == 0.0
        # Y reproduces the Brownian levels exactly
        w_levels = np.stack([tree6_jumps.to_level(i, tree6_jumps.w_nodes[i])
                             for i in range(7)], axis=1)
        assert np.abs(sol.Y - w_levels).max() <= 1e-12

    def test_compensated_jump_terminal(self, grid6, marks1, tree6_jumps,
                                       tree_backend):
        drv = make_driver("zero", {}, marks1)
        term = make_terminal("compensated_jumps", {}, marks1, grid6)
        sol = solve_bsde(drv, term, tree6_jumps, grid6, marks1, tree_backend)
        assert np.abs(sol.psi - 1.0).max() <= 1e-10
        assert np.abs(sol.Z).max() <= 1e-10

    def test_constant_driver_integrates(self, grid6, marks1, tree6_jumps,
                                        tree_backend):
        drv = make_driver("constant", {"c": 0.7}, marks1)
        term = make_terminal("brownian", {}, marks1, grid6)
        sol = solve_bsde(drv, term, tree6_jumps, grid6, marks1, tree_backend)
        # E[xi] = 0 and f integrates to c*T
        assert sol.y0() == pytest.approx(0.7, abs=1e-12)


class TestLinearDriver:
    def linear_y0(self, grid, tree, a, b):
        drv = make_driver("linear", {"a": a, "b": b}, MarkSpace.empty())
        term = make_terminal("brownian", {}, MarkSpace.empty(), grid)
        sol = solve_bsde(drv, term, tree, grid, MarkSpace.empty(),
                         CEBackend(kind="tree"))
        return sol

    def test_discrete_recursion_identity(self):
        grid = TimeGrid.uniform(1.0, 5)
        tree = build_tree(grid, MarkSpace.empty())
        a, b = 0.8, -0.3
        sol = self.linear_y0(grid, tree, a, b)
        # implicit recursion: Y_i = (E_i[Y_{i+1}] + dt*b) / (1 - dt*a) exactly
        B = tree.branching
        y = sol.Y[:, :]
        for i in reversed(range(5)):
            y_next = sol.Y[::B**(4 - i), i + 1] if i < 4 else sol.Y[:, 5]
        # direct recomputation from leaf level
        v = tree.w_nodes[5].copy()
        dt = grid.steps[0]
        for i in reversed(range(5)):
            v = (v.reshape(-1, B) @ tree.probs[i] + dt * b) / (1.0 - dt * a)
        assert sol.y0() == pytest.approx(float(v[0]), abs=1e-12)

    def test_refinement_approaches_exponential_limit(self):
        # Y_0 -> e^{aT} E[xi] + b (e^{aT} - 1)/a as the grid refines
        a, b = 0.8, -0.3
        target = b * (np.exp(a) - 1.0) / a   # E[W_T] = 0
        errors = []
        for n_steps in (4, 8, 16):
            grid = TimeGrid.uniform(1.0, n_steps)
            tree = build_tree(grid, MarkSpace.empty())
            errors.append(abs(self.linear_y0(grid, tree, a, b).y0() - target))
        assert errors[1] < errors[0] and errors[2] < errors[1]
        # first-order scheme: halving the step roughly halves the error
        assert errors[2] < 0.6 * errors[1]


class TestImplicitStep:
    def test_substepping_on_stiff_driver(self):
        # dt*L = 25 forces automatic sub-division; the composed implicit
        # steps approximate the exponential decay e^{aT}
        grid = TimeGrid.uniform(1.0, 2)
        tree = build_tree(grid, MarkSpace.empty())
        marks = MarkSpace.empty()
        drv = make_driver("linear", {"a": -50.0, "b": 0.0}, marks)
        term = TerminalSpec(lambda s: np.ones_like(s.w), name="one")
        sol = solve_bsde(drv, term, tree, grid, marks, CEBackend(kind="tree"))
        assert sol.meta["max_substeps"] > 1
        assert sol.y0() == pytest.approx(np.exp(-50.0), abs=1e-4)

    def test_contraction_failure_on_budget(self):
        grid = TimeGrid.uniform(1.0, 1)
        tree = build_tree(grid, MarkSpace.empty())
        marks = MarkSpace.empty()
        # dt*L = 5000 needs 11,112 sub-steps, over the budget of 4096
        drv = make_driver("linear", {"a": -5000.0, "b": 0.0}, marks)
        term = make_terminal("brownian", {}, marks, grid)
        with pytest.raises(ContractionFailure):
            solve_bsde(drv, term, tree, grid, marks, CEBackend(kind="tree"))

    def test_contraction_failure_names_its_witness(self, grid6, no_marks, tree6,
                                                   tree_backend):
        # h = -12 y declared y-independent: dt*|h'| = 2, so the sweeps
        # diverge, and the largest terminal value (exp of the top state's W)
        # moves furthest
        drv = DriverSpec(lambda t, s, y, z, q: -12.0 * y, gamma=[],
                         lipschitz_c=0.0)
        term = TerminalSpec(lambda s: np.exp(s.w))
        with pytest.raises(ContractionFailure) as err:
            solve_bsde(drv, term, tree6, grid6, no_marks, tree_backend)
        message = str(err.value)
        assert f"t = {grid6.times[5]:g}" in message
        assert f"in {bsde._FP_SWEEPS} sweeps" in message
        assert message.endswith("at point 5")


def _count_resolvent_calls(monkeypatch):
    calls = []
    resolvent = bsde.resolvent_ordinate

    def counted(*args):
        calls.append(args[1])       # the time of the call
        return resolvent(*args)

    monkeypatch.setattr(bsde, "resolvent_ordinate", counted)
    return calls


class TestSweepReuse:
    @pytest.mark.parametrize("name, params", [("zero", {}),
                                              ("constant", {"c": 0.7})])
    def test_y_independent_driver_one_resolvent_per_substep(
            self, monkeypatch, grid6, no_marks, tree6, tree_backend, name,
            params):
        calls = _count_resolvent_calls(monkeypatch)
        drv = make_driver(name, params, no_marks)
        term = make_terminal("brownian", {}, no_marks, grid6)
        penalty = PenalizedOperator(make_family("min_zero", {}, grid6), 64)
        sol = solve_bsde(drv, term, tree6, grid6, no_marks, tree_backend,
                         penalty)
        assert sol.meta["max_substeps"] == 1
        assert len(calls) == grid6.n_steps
        assert np.abs(sol.K).max() > 0      # the penalty was active

    @pytest.mark.parametrize("level", [None, 64])
    def test_y_dependent_driver_with_zero_constant_iterates(
            self, monkeypatch, grid6, level):
        # h = 0.5 y declared with lipschitz_c = 0: w changes between sweeps,
        # so the iteration must still run to its fixed point
        calls = _count_resolvent_calls(monkeypatch)
        drv = DriverSpec(lambda t, s, y, z, q: 0.5 * y, gamma=[],
                         lipschitz_c=0.0)
        family = make_family("min_zero", {}, grid6)
        penalty = None if level is None else PenalizedOperator(family, level)
        target = np.linspace(-2.0, 2.0, 41)
        dt = grid6.steps[0]
        zeros = np.zeros_like(target)
        y, _, nsub, _ = bsde._implicit_step(drv, 0.0, None, target, zeros,
                                            zeros, dt, penalty)
        assert nsub == 1
        w = target + dt * 0.5 * y
        if penalty is None:
            want = target / (1.0 - 0.5 * dt)
        else:
            assert len(calls) > 1
            slope = level / (1.0 + dt * level)
            want = w - dt * bsde.resolvent_ordinate(family, 0.0, w, slope)
        assert np.abs(y - want).max() <= bsde._FP_RTOL * (1.0 + np.abs(y).max())

    @pytest.mark.parametrize("family", ["reflect_at", "min_zero"])
    def test_penalized_affine_driver_resolves_in_few_sweeps(
            self, monkeypatch, grid6, no_marks, tree6, tree_backend, family):
        # G is piecewise affine here, so the secant lands on the fixed point
        # in its second step wherever both iterates share a piece
        calls = _count_resolvent_calls(monkeypatch)
        drv = make_driver("mixed", {"a": 0.5}, no_marks)
        evals = []

        def shape(*args):
            evals.append(1)
            return drv.shape(*args)

        counted = replace(drv, shape=shape)
        term = make_terminal("brownian", {}, no_marks, grid6)
        penalty = PenalizedOperator(make_family(family, {}, grid6), 64)
        sol = solve_bsde(counted, term, tree6, grid6, no_marks, tree_backend,
                         penalty)
        assert sol.meta["max_substeps"] == 1
        assert len(calls) <= 4 * grid6.n_steps
        assert sol.meta["sweeps"] == len(evals) >= len(calls)
        assert np.abs(sol.K).max() > 0      # the penalty was active


def picard_step(driver, t, target, z, q, dt, penalty):
    """(y, pen) of one implicit step by plain fixed-point sweeps y <- G(y),
    the iteration the secant replaced, with the same stopping rule and no
    sweep cap (one sub-step: dt*L < 0.9)."""
    slope = None if penalty is None else penalty.level / (1.0 + dt * penalty.level)
    y = target
    while True:
        w = target + dt * driver.shape(t, None, y, z, q)
        g = w if penalty is None else w - dt * resolvent_ordinate(
            penalty.family, t, w, slope)
        change = np.max(np.abs(g - y))
        y = g
        if change <= bsde._FP_RTOL * (1.0 + np.max(np.abs(y))):
            return y, w - y


class TestSecantStep:
    @given(affine=st.booleans(), a_sign=st.sampled_from([-1.0, 1.0]),
           family=st.sampled_from([None, "reflect_at", "min_zero",
                                   "neg_exp", "step"]),
           level=st.integers(1, 4096), dt=st.floats(0.01, 0.5),
           qL=st.floats(0.0, 0.85), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_picard_reference(self, affine, a_sign, family, level, dt,
                                      qL, seed):
        rng = np.random.default_rng(seed)
        L = qL / dt
        assume(dt * L <= 0.85)     # qL / dt * dt may round above qL
        target = rng.uniform(-3.0, 3.0, 40)
        z = rng.normal(size=40)
        q = np.zeros(40)
        if affine:
            a, b = a_sign * L, rng.normal()
            drv = DriverSpec(lambda t, s, y, z, q: a * y + 0.3 * z + b,
                             gamma=[], lipschitz_c=L)
        else:
            drv = DriverSpec(lambda t, s, y, z, q: L * np.sin(y) + 0.3 * z,
                             gamma=[], lipschitz_c=L)
        penalty = None if family is None else PenalizedOperator(
            make_family(family, {}, TimeGrid.uniform(1.0, 4)), level)
        y, pen, nsub, sweeps = bsde._implicit_step(drv, 0.25, None, target, z,
                                                   q, dt, penalty)
        want_y, want_pen = picard_step(drv, 0.25, target, z, q, dt, penalty)
        bound = 10 * bsde._FP_RTOL * (1.0 + np.abs(y).max())
        assert nsub == 1 and 1 <= sweeps <= bsde._FP_SWEEPS
        assert np.abs(y - want_y).max() <= bound
        assert np.abs(pen - want_pen).max() <= bound
        residual = y - target - dt * drv.shape(0.25, None, y, z, q) + pen
        assert np.abs(residual).max() <= bound

    def test_expanding_driver_just_below_the_substep_threshold(self, no_marks):
        # G' = dt*L = 0.88: in one step the sweeps contract by about 0.875
        # and 200 of them fall short of _FP_RTOL, so the step is cut in two
        drv = make_driver("linear", {"a": 4.4}, no_marks)
        target = np.linspace(-1.0, 1.0, 5)
        y, _, nsub, _ = bsde._implicit_step(drv, 0.0, None, target, np.zeros(5),
                                            np.zeros(5), 0.2, None)
        assert nsub == 2       # two implicit steps of y = target + 0.44 y
        np.testing.assert_allclose(y, target / 0.56**2, rtol=1e-12, atol=0)

    def test_step_family_on_its_jump(self, no_marks):
        # w lands where the resolvent line crosses the step's vertical
        # segment; the family declares its pieces, so k_n there is exact and
        # the secant meets the sweeps' stop, as plain sweeps do
        drv = make_driver("linear", {"a": 2.0}, no_marks)
        penalty = PenalizedOperator(
            make_family("step", {}, TimeGrid.uniform(1.0, 4)), 4)
        target, zeros = np.array([0.53]), np.zeros(1)
        y, pen, nsub, sweeps = bsde._implicit_step(drv, 0.0, None, target,
                                                   zeros, zeros, 0.2, penalty)
        want_y, want_pen = picard_step(drv, 0.0, target, zeros, zeros, 0.2,
                                       penalty)
        bound = 10 * bsde._FP_RTOL * (1.0 + np.abs(y).max())
        assert nsub == 1 and sweeps <= 10
        assert np.abs(y - want_y).max() <= bound
        assert np.abs(pen - want_pen).max() <= bound


def condexp(backend, scenario, i, y_next):
    """E_i[y_next] under the backend's projection: per level-i node on a
    tree (y_next per level-(i+1) node), per path on an ensemble."""
    return bsde._projection(scenario, backend)(i, y_next)[0]


class TestCondexp:
    def test_constant_values_fixed_point(self, grid6, marks1, tree6_jumps,
                                         ensemble_small, tree_backend,
                                         reg_backend):
        v_tree = np.full(tree6_jumps.level_size(3), 3.25)
        out = condexp(tree_backend, tree6_jumps, 2, v_tree)
        assert np.allclose(out, 3.25, atol=1e-14)
        v_reg = np.full(ensemble_small.n_paths, 3.25)
        out = condexp(reg_backend, ensemble_small, 2, v_reg)
        assert np.allclose(out, 3.25, atol=1e-9)

    def test_regression_recovers_linear_signal(self, grid6, marks1,
                                               ensemble_small, reg_backend):
        # y = 2 w + noise: fitted coefficients on (1, w) must be ~(0, 2)
        rng = np.random.default_rng(5)
        w = ensemble_small.w_levels[:, 3]
        n = w.size
        sigma = 0.1
        y = 2.0 * w + rng.normal(0, sigma, n)
        preds = condexp(reg_backend, ensemble_small, 3, y)
        A1 = np.column_stack([np.ones_like(w), w])
        coef, *_ = np.linalg.lstsq(A1, preds, rcond=None)
        se_slope = sigma / (np.sqrt(n) * w.std())
        se_icept = sigma / np.sqrt(n)
        assert abs(coef[0]) <= 4 * se_icept
        assert abs(coef[1] - 2.0) <= 4 * se_slope
        # and the fit agrees with the closed-form LS on the same basis
        counts = ensemble_small.count_levels[:, 3]
        A2 = np.column_stack([np.ones_like(w), counts[:, 0], counts[:, 0]**2,
                              w, w * counts[:, 0], w**2])
        full, *_ = np.linalg.lstsq(A2, y, rcond=None)
        assert np.abs(preds - A2 @ full).max() <= 1e-6

    def test_degenerate_design_projects_onto_sample_mean(self, grid6, marks1):
        # at step 0 every state column is identically zero; the fixed ridge
        # keeps the normal equations solvable and shrinks the mean by ~1e-8
        ens = simulate_paths(grid6, marks1, 200, seed=3)
        y = np.random.default_rng(3).normal(1.0, 2.0, 200)
        out = condexp(CEBackend(kind="regression", degree=2), ens, 0, y)
        assert np.abs(out - y.mean()).max() <= 1e-7

    def test_backend_scenario_mismatch(self, tree6_jumps):
        with pytest.raises(ValueError):
            condexp(CEBackend(kind="regression"), tree6_jumps, 0,
                    np.ones(tree6_jumps.n_leaves))


class TestBackendAgreement:
    def test_y0_within_mc_error(self, grid6, marks1, tree6_jumps, tree_backend,
                                reg_backend):
        drv = make_driver("mixed", {"a": 0.5, "bz": 0.3, "qc": 0.5,
                                    "gamma": 0.5}, marks1)
        term = make_terminal("brownian", {}, marks1, grid6)
        exact = solve_bsde(drv, term, tree6_jumps, grid6, marks1, tree_backend)
        ens = simulate_paths(grid6, marks1, 20_000, seed=101)
        mc = solve_bsde(drv, term, ens, grid6, marks1, reg_backend)
        targets = mc.Y[:, 1]
        se = targets.std(ddof=1) / np.sqrt(targets.size)
        # tree carries its own O(dt) discretization bias versus the ensemble,
        # so allow the bias floor plus 4 standard errors
        dt = grid6.steps[0]
        assert abs(mc.y0() - exact.y0()) <= 4 * se + 2 * dt**1.5


class TestComparisonPlainLevel:
    def test_shifted_terminal_and_dominated_driver(self, grid6, marks1,
                                                   tree6_jumps, tree_backend):
        term = make_terminal("brownian", {}, marks1, grid6)
        term_lo = make_terminal("brownian", {"shift": -0.5}, marks1, grid6)
        drv = make_driver("mixed", {"a": 0.4, "bz": 0.2, "qc": 0.3,
                                    "gamma": 0.5}, marks1)
        sol_hi = solve_bsde(drv, term, tree6_jumps, grid6, marks1, tree_backend)
        sol_lo = solve_bsde(drv, term_lo, tree6_jumps, grid6, marks1,
                            tree_backend)
        assert np.all(sol_lo.Y <= sol_hi.Y + 1e-12)
        sol_dom = solve_bsde(drv.shifted(1.0), term, tree6_jumps, grid6, marks1,
                             tree_backend)
        assert np.all(sol_dom.Y <= sol_hi.Y + 1e-12)


class TestResidual:
    @pytest.mark.parametrize("level", [None, 16], ids=["plain", "reflect16"])
    @pytest.mark.parametrize("marks", [
        MarkSpace.empty(), MarkSpace([1.0], [1.0]),
        MarkSpace([1.0, -0.5], [1.0, 0.5])], ids=["m0", "m1", "m2"])
    def test_tree_solution_exact(self, marks, level, tree_backend):
        grid = TimeGrid.uniform(1.0, 4)
        tree = build_tree(grid, marks)
        params = {"a": 0.4, "bz": 0.2, "qc": 0.3}
        if marks.n_marks:
            params["gamma"] = 0.5
        drv = make_driver("mixed", params, marks)
        # distinct jump weights per mark, so a psi mix-up changes the driver
        jump_w = np.array([1.0, -2.0])[:marks.n_marks]
        term = TerminalSpec(lambda s: s.w + s.ntilde @ jump_w, name="w+jumps")
        penalty = None if level is None else PenalizedOperator(
            make_family("reflect_at", {"a": 0.0}, grid), level)
        sol = solve_bsde(drv, term, tree, grid, marks, tree_backend,
                         penalty=penalty)
        assert (sol.K[:, -1].max() > 0) == (level is not None)
        report = residual_check(sol, drv, tree, grid, marks)
        assert report.kind == "tree"
        assert report.cond_mean_abs.max() <= 1e-10
        assert report.cond_cov_abs.max() <= 1e-10
        assert report.passed()

    def test_regression_statistical(self, grid6, marks1, ensemble_small,
                                    reg_backend):
        drv = make_driver("zero", {}, marks1)
        term = make_terminal("brownian", {}, marks1, grid6)
        sol = solve_bsde(drv, term, ensemble_small, grid6, marks1, reg_backend)
        report = residual_check(sol, drv, ensemble_small, grid6, marks1)
        assert report.passed()

    def test_corruption_detected(self, grid6, marks1, tree6_jumps, tree_backend):
        drv = make_driver("zero", {}, marks1)
        term = make_terminal("brownian", {}, marks1, grid6)
        sol = solve_bsde(drv, term, tree6_jumps, grid6, marks1, tree_backend)
        sol.nodes("Y")[5] += 1.0
        report = residual_check(sol, drv, tree6_jumps, grid6, marks1)
        assert not report.passed()
        assert report.mean_abs[5] >= 1.0 - 1e-6

    @pytest.mark.parametrize("control, terminal", [
        ("Z", "brownian"), ("psi", "compensated_jumps")])
    def test_control_corruption_detected(self, control, terminal, grid6,
                                         marks1, tree6_jumps, tree_backend):
        # with the zero driver a wrong Z or psi leaves E_i[resid] at zero;
        # only the conditional covariances with the increments can see it
        drv = make_driver("zero", {}, marks1)
        term = make_terminal(terminal, {}, marks1, grid6)
        sol = solve_bsde(drv, term, tree6_jumps, grid6, marks1, tree_backend)
        clean = residual_check(sol, drv, tree6_jumps, grid6, marks1)
        assert clean.passed()
        columns = sol.nodes(control).columns
        assert max(np.abs(c).max() for c in columns) > 0.1
        for c in columns:
            c *= 3.0
        report = residual_check(sol, drv, tree6_jumps, grid6, marks1)
        assert report.cond_mean_abs.max() <= 1e-10
        assert not report.passed()
        assert clean.cond_cov_abs.max() <= 1e-15
        assert report.cond_cov_abs.max() > 1e-3


class TestSpecs:
    def test_driver_sampled_invariants(self, grid6, marks1):
        # Lipschitz in (y, z) with the declared constant, nondecreasing in q
        drv = make_driver("mixed", {"a": 0.4, "bz": 0.2, "qc": 0.3,
                                    "gamma": 0.5}, marks1)
        rng = np.random.default_rng(4)
        state = None  # registry drivers ignore the forward state
        for _ in range(200):
            t = rng.uniform(0, 1)
            y, y2, z, z2, q = rng.normal(0, 2, 5)
            gap = abs(drv.shape(t, state, y, z, q) - drv.shape(t, state, y2, z2, q))
            assert gap <= drv.lipschitz_c * (abs(y - y2) + abs(z - z2)) + 1e-12
            q2 = q + rng.uniform(0, 3)
            assert drv.shape(t, state, y, z, q2) >= drv.shape(t, state, y, z, q)

    @given(m=st.integers(0, 4), rows=st.integers(2, 200),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_q_of_sums_each_row_alone(self, m, rows, seed):
        # a row's q must not depend on the rows evaluated with it, so that a
        # root node and the leaf paths under it see the same aggregate
        rng = np.random.default_rng(seed)
        marks = MarkSpace(np.arange(1.0, m + 1.0), rng.uniform(0.5, 3.0, m))
        drv = DriverSpec(shape=lambda t, s, y, z, q: q,
                         gamma=rng.uniform(-1.0, 1.0, m), lipschitz_c=0.0)
        psi = rng.normal(size=(rows, m))
        q = drv.q_of(psi, marks)
        assert q.shape == (rows,)
        for k in range(rows):
            assert q[k].tobytes() == drv.q_of(psi[k:k + 1], marks)[0].tobytes()

    def test_driver_gamma_bounds(self, marks1):
        with pytest.raises(ValueError):
            DriverSpec(shape=lambda t, s, y, z, q: y, gamma=[-1.5],
                       lipschitz_c=1.0).check_against(marks1)
        with pytest.raises(ValueError):
            # vartheta for mark value 1.0 defaults to 2.0
            DriverSpec(shape=lambda t, s, y, z, q: y, gamma=[5.0],
                       lipschitz_c=1.0).check_against(marks1)

    def test_terminal_rejects_non_finite(self, grid6, marks1, tree6_jumps,
                                         tree_backend):
        drv = make_driver("zero", {}, marks1)
        bad = TerminalSpec(lambda s: np.where(s.w > 0, np.inf, 0.0))
        with pytest.raises(ValueError):
            solve_bsde(drv, bad, tree6_jumps, grid6, marks1, tree_backend)

    def test_solution_csv_layout(self, grid6, marks1, tree6_jumps,
                                 tree_backend, tmp_path):
        drv = make_driver("zero", {}, marks1)
        term = make_terminal("brownian", {}, marks1, grid6)
        sol = solve_bsde(drv, term, tree6_jumps, grid6, marks1, tree_backend)
        out = tmp_path / "solution.csv"
        sol.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path,step,Y,Z,psi_1,K"
        assert len(lines) == 1 + sol.n_paths * (grid6.n_steps + 1)

    def test_backend_mismatch_raises(self, grid6, marks1, tree6_jumps):
        drv = make_driver("zero", {}, marks1)
        term = make_terminal("brownian", {}, marks1, grid6)
        with pytest.raises(ValueError):
            solve_bsde(drv, term, tree6_jumps, grid6, marks1,
                       CEBackend(kind="regression"))

    def test_regression_needs_enough_paths(self, grid6, marks1, reg_backend):
        drv = make_driver("zero", {}, marks1)
        term = make_terminal("brownian", {}, marks1, grid6)
        ens = simulate_paths(grid6, marks1, 30, seed=1)
        with pytest.raises(ValueError):
            solve_bsde(drv, term, ens, grid6, marks1, reg_backend)
