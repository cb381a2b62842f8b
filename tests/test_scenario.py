import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsdej import (BudgetExceeded, MarkSpace, TimeGrid, build_tree,
                    martingale_check, scenario, simulate_paths)

BLOCK = scenario._BLOCK_PATHS


def condexp_leaves(tree, i, leaf_values):
    """E[. | F_{t_i}] of a leaf function, returned per leaf: one-step
    conditional expectations from the leaves down to level i."""
    values = leaf_values
    for k in reversed(range(i, tree.grid.n_steps)):
        values = values.reshape(-1, tree.branching) @ tree.probs[k]
    return tree.to_level(i, values)


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid.uniform(2.0, 4)
        assert grid.horizon == 2.0
        assert grid.n_steps == 4
        assert np.allclose(grid.steps, 0.5)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            TimeGrid([0.0, 0.5, 0.4, 1.0])

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            TimeGrid([0.1, 1.0])

    def test_refined_keeps_endpoints(self):
        grid = TimeGrid([0.0, 0.25, 1.0])
        fine = grid.refined()
        assert fine.n_steps == 4
        assert fine.horizon == 1.0
        assert set(grid.times).issubset(set(fine.times))


class TestMarkSpace:
    def test_norm_pi_matches_direct_sum(self):
        marks = MarkSpace([1.0, -2.0], [0.5, 3.0])
        phi = np.array([0.7, -1.1])
        direct = sum(p**2 * lam for p, lam in zip(phi, marks.intensities))
        assert marks.norm_pi_sq(phi) == pytest.approx(direct)

    def test_vectorized_norm(self):
        marks = MarkSpace([1.0, 2.0], [1.0, 2.0])
        phi = np.ones((5, 3, 2))
        assert marks.norm_pi_sq(phi).shape == (5, 3)
        assert np.allclose(marks.norm_pi_sq(phi), 3.0)

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(ValueError):
            MarkSpace([1.0], [-1.0])

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError):
            MarkSpace([1.0, 1.0], [1.0, 2.0])

    def test_empty(self):
        marks = MarkSpace.empty()
        assert marks.n_marks == 0


class TestSimulatePaths:
    def test_same_seed_bitwise_identical(self):
        grid = TimeGrid.uniform(1.0, 3)
        marks = MarkSpace([1.0], [1.0])
        a = simulate_paths(grid, marks, 500, seed=9)
        b = simulate_paths(grid, marks, 500, seed=9)
        assert np.array_equal(a.dW, b.dW) and np.array_equal(a.dN, b.dN)

    def test_prefix_does_not_depend_on_path_count(self):
        # draws are keyed by (seed, block, kind) and every block is drawn
        # whole before its rows are sliced, so path p is the same in any
        # ensemble that contains it
        grid = TimeGrid.uniform(1.0, 4)
        marks = MarkSpace([1.0], [2.0])
        small = simulate_paths(grid, marks, 100, seed=3)
        large = simulate_paths(grid, marks, 301, seed=3)
        assert np.array_equal(small.dW, large.dW[:100])
        assert np.array_equal(small.dN, large.dN[:100])
        assert large.dN[:100].any()

    @given(st.integers(1, 3 * BLOCK + 7), st.integers(1, 3 * BLOCK + 7),
           st.sampled_from([1, 2]))
    @settings(max_examples=25, deadline=None)
    def test_prefix_holds_across_block_boundaries(self, n_a, n_b, n_marks):
        n_small, n_large = sorted((n_a, n_b))
        grid = TimeGrid.uniform(1.0, 3)
        marks = MarkSpace(np.arange(1.0, n_marks + 1), np.full(n_marks, 1.5))
        small = simulate_paths(grid, marks, n_small, seed=11)
        large = simulate_paths(grid, marks, n_large, seed=11)
        assert np.array_equal(small.dW, large.dW[:n_small])
        assert np.array_equal(small.dN, large.dN[:n_small])

    def test_brownian_draws_do_not_depend_on_marks(self):
        grid = TimeGrid.uniform(1.0, 4)
        bare = simulate_paths(grid, MarkSpace.empty(), BLOCK + 50, seed=4)
        marked = simulate_paths(grid, MarkSpace([1.0, -1.0], [0.5, 2.0]),
                                BLOCK + 50, seed=4)
        assert np.array_equal(bare.dW, marked.dW)
        assert marked.dN.any()

    def test_blocks_and_seeds_draw_distinct_streams(self):
        grid = TimeGrid.uniform(1.0, 2)
        marks = MarkSpace([1.0], [3.0])
        ens = simulate_paths(grid, marks, 2 * BLOCK, seed=5)
        assert not np.array_equal(ens.dW[:BLOCK], ens.dW[BLOCK:])
        assert not np.array_equal(ens.dN[:BLOCK], ens.dN[BLOCK:])
        # the uniqueness suite draws its second ensemble at seed + 1
        nxt = simulate_paths(grid, marks, BLOCK, seed=6)
        assert not np.array_equal(ens.dW[:BLOCK], nxt.dW)
        assert not np.array_equal(ens.dN[:BLOCK], nxt.dN)

    def test_draws_follow_the_block_and_kind_keys(self):
        # block 0 rebuilt from its documented streams: kind 0 gives dW and
        # kind 1 dN, so the two never share one stream
        def stream(kind):
            ss = np.random.SeedSequence(entropy=5, spawn_key=(0, kind))
            return np.random.Generator(np.random.Philox(ss))

        ens = simulate_paths(TimeGrid.uniform(1.0, 2), MarkSpace([1.0], [3.0]),
                             10, seed=5)
        normals = stream(0).standard_normal((BLOCK, 2))[:10]
        assert np.array_equal(ens.dW, normals * np.sqrt(0.5))
        assert np.array_equal(ens.dN, stream(1).poisson(1.5, (BLOCK, 2, 1))[:10])

    @pytest.mark.parametrize("marks, expected", [
        (MarkSpace([1.0], [1.0]), 6), (MarkSpace.empty(), 3)],
        ids=["one-mark", "no-marks"])
    def test_one_generator_per_block_and_kind(self, monkeypatch, marks,
                                              expected):
        # the cost guard: 10,000 paths are ceil(10000 / 4096) = 3 blocks, each
        # with a Brownian stream and, when there are marks, a jump stream
        made = []
        build = scenario._block_generator

        def counting(seed, block, kind):
            made.append((block, kind))
            return build(seed, block, kind)

        monkeypatch.setattr(scenario, "_block_generator", counting)
        simulate_paths(TimeGrid.uniform(1.0, 2), marks, 10_000, seed=1)
        assert len(made) == len(set(made)) == expected

    def test_moments_single_big_step(self):
        # N = 1, dt = 1, lambda = 1, 1e5 paths
        grid = TimeGrid.uniform(1.0, 1)
        marks = MarkSpace([1.0], [1.0])
        ens = simulate_paths(grid, marks, 100_000, seed=17)
        n = ens.n_paths
        assert abs(ens.dN.mean() - 1.0) <= 4.0 / np.sqrt(n)           # mean = lam*dt
        var_w = ens.dW.var(ddof=1)
        assert abs(var_w - 1.0) <= 4.0 * np.sqrt(2.0 / (n - 1))        # var = dt
        corr = np.corrcoef(ens.dW[:, 0], ens.dN[:, 0, 0])[0, 1]
        assert abs(corr) <= 4.0 / np.sqrt(n)                           # independence

    def test_compensator_telescopes_exactly(self):
        grid = TimeGrid.uniform(2.0, 5)
        marks = MarkSpace([1.0, -1.0], [0.7, 1.3])
        ens = simulate_paths(grid, marks, 200, seed=1)
        total = ens.dN_tilde.sum(axis=1)
        expected = ens.dN.sum(axis=1) - marks.intensities * grid.horizon
        assert np.allclose(total, expected, atol=1e-12)

    def test_csv_export(self, tmp_path):
        grid = TimeGrid.uniform(1.0, 2)
        marks = MarkSpace([1.0], [1.0])
        ens = simulate_paths(grid, marks, 3, seed=5)
        out = tmp_path / "paths.csv"
        ens.write_csv(out)
        data = out.read_bytes()
        assert b"\r" not in data
        lines = data.decode().strip().split("\n")
        assert lines[0] == "path,step,dW,dN_1"
        assert len(lines) == 1 + 3 * 2


class TestMartingaleCheck:
    def test_fresh_ensemble_passes(self):
        grid = TimeGrid.uniform(1.0, 4)
        marks = MarkSpace([1.0], [1.0])
        ens = simulate_paths(grid, marks, 100_000, seed=23)
        assert martingale_check(ens).passed

    def test_shifted_drift_fails_with_known_z(self):
        # dt = 0.01, shift +0.1, 1e5 paths: z ~ 0.1 / (sqrt(0.01)/sqrt(1e5)) = 316
        grid = TimeGrid.uniform(0.01, 1)
        marks = MarkSpace.empty()
        ens = simulate_paths(grid, marks, 100_000, seed=29)
        ens.dW += 0.1
        report = martingale_check(ens)
        assert not report.passed
        assert report.worst_abs_z == pytest.approx(316.2, rel=0.05)

    @pytest.mark.parametrize("seed", range(3))
    def test_doubled_brownian_increments_fail(self, seed):
        # 2 dW keeps the mean at 0 but has variance 4 dt: with 5,000 paths the
        # variance z-score is 3 / sqrt(2 / 4999) ~ 150
        grid = TimeGrid.uniform(1.0, 4)
        marks = MarkSpace([1.0], [1.0])
        ens = simulate_paths(grid, marks, 5_000, seed=seed)
        ens.dW *= 2.0
        report = martingale_check(ens)
        assert not report.passed
        assert np.abs(report.z_variance).min() > 100.0

    def test_single_path_trivially_passes(self):
        grid = TimeGrid.uniform(1.0, 3)
        ens = simulate_paths(grid, MarkSpace([1.0], [1.0]), 1, seed=2)
        assert martingale_check(ens).passed


class TestScenarioTree:
    def test_branch_counts(self):
        grid = TimeGrid.uniform(1.0, 3)
        tree = build_tree(grid, MarkSpace([1.0], [1.0]))
        assert tree.branching == 4           # 2 W-branches x 2 jump-branches
        assert tree.n_leaves == 64

    def test_no_jumps_degenerates_to_binomial(self):
        grid = TimeGrid.uniform(1.0, 3)
        tree = build_tree(grid, MarkSpace.empty())
        assert tree.branching == 2
        assert tree.n_leaves == 8

    def test_node_budget(self):
        grid = TimeGrid.uniform(1.0, 3)
        with pytest.raises(BudgetExceeded):
            build_tree(grid, MarkSpace([1.0], [1.0]), node_budget=10)

    def test_probabilities_and_moments_exact(self):
        grid = TimeGrid.uniform(1.0, 4)
        marks = MarkSpace([1.0], [0.8])
        tree = build_tree(grid, marks)
        for i in range(4):
            assert tree.probs[i].sum() == pytest.approx(1.0, abs=1e-15)
            assert tree.probs[i] @ tree.dW[i] == pytest.approx(0.0, abs=1e-15)
            dt = grid.steps[i]
            assert tree.probs[i] @ tree.dW[i]**2 == pytest.approx(dt, abs=1e-15)
            # compensator bias p - lam*dt is <= 0 and O(dt^2)
            bias = tree.probs[i] @ tree.dN_tilde[i][:, 0]
            p = -np.expm1(-0.8 * dt)
            assert bias == pytest.approx(p - 0.8 * dt, abs=1e-15)
            assert -(0.8 * dt)**2 / 2 - 1e-6 <= bias <= 0.0
            assert tree.bias[i, 0] == pytest.approx(bias, abs=1e-15)

    def test_condexp_of_leaf_indicator_is_conditional_probability(self):
        grid = TimeGrid.uniform(1.0, 3)
        marks = MarkSpace([1.0], [1.0])
        tree = build_tree(grid, marks)
        values = np.zeros(tree.n_leaves)
        values[13] = 1.0
        # conditioning on F_0 gives the unconditional leaf probability
        cond0 = condexp_leaves(tree, 0, values)
        assert cond0[0] == pytest.approx(tree.leaf_probs[13], abs=1e-15)
        # conditioning at the last level divides by the node probability
        cond2 = condexp_leaves(tree, 2, values)
        parent = 13 // tree.branching
        branch_prob = tree.probs[2][13 % tree.branching]
        assert cond2[13] == pytest.approx(branch_prob, abs=1e-15)
        assert cond2[13 - 13 % tree.branching] == cond2[13]

    def test_tower_property_to_machine_precision(self):
        grid = TimeGrid.uniform(1.0, 4)
        tree = build_tree(grid, MarkSpace([1.0], [1.0]))
        rng = np.random.default_rng(0)
        values = rng.normal(size=tree.n_leaves)
        e0 = condexp_leaves(tree, 0, values)[0]
        e_nested = condexp_leaves(tree, 0, condexp_leaves(tree, 2, values))[0]
        assert e_nested == pytest.approx(e0, abs=1e-14)
        assert e0 == pytest.approx(tree.leaf_probs @ values, abs=1e-14)

    def test_leaf_increments_consistent_with_states(self):
        grid = TimeGrid.uniform(1.0, 3)
        marks = MarkSpace([1.0], [1.0])
        tree = build_tree(grid, marks)
        # node k of level i + 1 is branch k % B of node k // B of level i
        for i in range(grid.n_steps):
            parent, branch = np.divmod(np.arange(tree.level_size(i + 1)),
                                       tree.branching)
            assert np.allclose(tree.w_nodes[i + 1] - tree.w_nodes[i][parent],
                               tree.dW[i][branch])
            assert np.array_equal(
                tree.count_nodes[i + 1] - tree.count_nodes[i][parent],
                tree.dN[i][branch])
