import json

import pytest

from mbsdej import (ParseError, UnknownName, ValidationError, bsde, cli,
                    simulate_paths, solve_unbounded, verification)
from mbsdej.cli import main
from mbsdej.config import build_problem, parse_config, render_config
from mbsdej.verification import block_y0_se

REFLECTED_TREE = """
# reflected benchmark on the exact tree
[grid]
T = 1.0
steps = 5

[family]
name = reflect_at
a = 0.0

[driver]
name = zero

[terminal]
name = brownian

[backend]
kind = tree

[schedule]
levels = 1,2,4,8,16,32,64,128,256,512,1024
stop_tolerance = 5e-3

[run]
mode = mbsde
seed = 7
n_paths = 1000
"""

UNBOUNDED_REG = """
[grid]
T = 1.0
steps = 5

[marks]
values = 1.0
intensities = 1.0
vartheta = 2.0

[family]
name = linear_decay

[envelope]
name = linear_decay

[driver]
name = zero

[terminal]
name = brownian

[backend]
kind = regression
degree = 2

[schedule]
levels = 1,4,16,64
stop_tolerance = 1e-2

[run]
mode = unbounded
seed = 3
n_paths = 1500
"""


class TestParsing:
    def test_golden_config(self):
        config = parse_config(REFLECTED_TREE)
        assert config.grid == {"T": 1.0, "steps": 5}
        assert config.family == {"name": "reflect_at", "a": 0.0}
        assert config.schedule["levels"] == [1, 2, 4, 8, 16, 32, 64, 128,
                                             256, 512, 1024]
        assert config.run["mode"] == "mbsde"

    def test_unknown_family_name(self):
        text = REFLECTED_TREE.replace("name = reflect_at",
                                      "name = does_not_exist")
        with pytest.raises(UnknownName):
            parse_config(text)

    def test_negative_intensity_rejected(self):
        text = UNBOUNDED_REG.replace("intensities = 1.0",
                                     "intensities = -1.0")
        config = parse_config(text)
        with pytest.raises(ValidationError):
            build_problem(config)

    def test_parse_error_carries_line_number(self):
        text = "[grid]\nT = 1.0\nbroken line without equals\n"
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert err.value.line == 3

    def test_key_outside_section(self):
        with pytest.raises(ParseError):
            parse_config("T = 1.0\n")

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_config("[mystery]\nx = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_config("[grid]\nT = 1.0\nT = 2.0\n")

    def test_missing_required_section(self):
        with pytest.raises(ParseError):
            parse_config("[grid]\nT = 1.0\nsteps = 2\n")


class TestRoundTrip:
    @pytest.mark.parametrize("text", [REFLECTED_TREE, UNBOUNDED_REG])
    def test_parse_render_parse(self, text):
        config = parse_config(text)
        rendered = render_config(config)
        assert parse_config(rendered) == config
        # canonical form is a fixed point
        assert render_config(parse_config(rendered)) == rendered

    def test_overrides(self):
        config = parse_config(REFLECTED_TREE)
        bumped = config.with_overrides(seed=99, n_paths=123)
        assert bumped.run["seed"] == 99
        assert bumped.run["n_paths"] == 123
        assert config.run["seed"] == 7  # original untouched


class TestBuildProblem:
    def test_tree_problem(self):
        problem, backend, schedule, run = build_problem(
            parse_config(REFLECTED_TREE))
        assert problem.family is not None
        assert backend.kind == "tree"
        assert schedule.levels == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
        assert run["mode"] == "mbsde"

    @pytest.mark.parametrize("line", ["max_level = 4", "stop_tol = 1e-4",
                                      "mono_tolerance = 1e-3"])
    def test_unknown_schedule_key_rejected(self, line, tmp_path):
        text = REFLECTED_TREE.replace("stop_tolerance = 5e-3",
                                      f"stop_tolerance = 5e-3\n{line}")
        with pytest.raises(ValidationError):
            build_problem(parse_config(text))
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 2

    def test_unknown_backend_key_rejected(self, tmp_path):
        # a misspelt degree used to be ignored, leaving the default degree 2
        text = UNBOUNDED_REG.replace("degree = 2", "degre = 3")
        with pytest.raises(ValidationError, match="degre"):
            build_problem(parse_config(text))
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 2

    def test_validation_runs_before_solve(self):
        text = REFLECTED_TREE.replace("name = reflect_at",
                                      "name = blowup_near_terminal")
        text = text.replace("a = 0.0", "")
        with pytest.raises(ValidationError):
            build_problem(parse_config(text))


@pytest.fixture(scope="module")
def unbounded_solve(tmp_path_factory):
    """One CLI solve of UNBOUNDED_REG, with paths: (config path, out dir)."""
    root = tmp_path_factory.mktemp("unbounded")
    cfg = root / "problem.cfg"
    cfg.write_text(UNBOUNDED_REG)
    out = root / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--dump-paths"]) == 0
    return str(cfg), out


class TestCli:
    def write(self, tmp_path, text, name="problem.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_solve_writes_artifacts(self, tmp_path):
        cfg = self.write(tmp_path, REFLECTED_TREE)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "solution.csv").exists()
        assert (out / "report.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "mbsde"
        assert summary["y0"] == pytest.approx(0.35, abs=0.1)

    def test_solve_deterministic_bytes(self, tmp_path, unbounded_solve):
        cfg, out_a = unbounded_solve
        out_b = tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("solution.csv", "concatenation.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unbounded_y0_se_is_batch_means(self, unbounded_solve):
        _, out = unbounded_solve
        summary = json.loads((out / "summary.json").read_text())
        problem, backend, schedule, run = build_problem(parse_config(UNBOUNDED_REG))
        ens = simulate_paths(problem.grid, problem.marks, run["n_paths"],
                             run["seed"])
        se = block_y0_se(ens, lambda sub: solve_unbounded(
            problem, schedule, sub, backend)[0].y0())
        assert se > 0
        assert summary["y0_se"] == se

    def test_mode_mismatch_is_config_error(self, tmp_path):
        text = REFLECTED_TREE.replace("mode = mbsde", "mode = unbounded")
        cfg = self.write(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 2

    def test_real_family_with_mbsde_mode_rejected(self, tmp_path):
        text = UNBOUNDED_REG.replace("mode = unbounded", "mode = mbsde")
        cfg = self.write(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 2

    def test_budget_exceeded_is_solver_error(self, tmp_path):
        text = REFLECTED_TREE.replace("steps = 5", "steps = 25")
        cfg = self.write(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 3

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_verify_core_suite(self, tmp_path):
        cfg = self.write(tmp_path, REFLECTED_TREE)
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--suite", "core",
                     "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["pass"] is True
        names = [c["check"] for c in report["checks"]]
        assert "constraint" in names and "skorokhod" in names

    def test_verify_residual_reports_what_it_gates(self, tmp_path, monkeypatch):
        # a tripled Z keeps the conditional mean of the residual at zero, so
        # the entry must report the covariance moment that fails it
        project = bsde._tree_projection

        def tripled_z(tree, i, y_next):
            ey, z, psi = project(tree, i, y_next)
            return ey, 3.0 * z, psi

        monkeypatch.setattr(bsde, "_tree_projection", tripled_z)
        cfg = self.write(tmp_path, REFLECTED_TREE)
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--suite", "core",
                     "--out", str(out)]) == 1
        report = json.loads((out / "verify.json").read_text())
        entry = next(c for c in report["checks"] if c["check"] == "residual")
        assert entry["pass"] is False and entry["tolerance"] == 1e-8
        assert entry["statistic"] > entry["tolerance"]
        assert entry["witness"]["moment"] == "covariance"
        assert 0 <= entry["witness"]["step"] < 5

    def test_verify_residual_ensemble_gate(self, tmp_path):
        text = REFLECTED_TREE.replace("kind = tree", "kind = regression\ndegree = 2")
        cfg = self.write(tmp_path, text)
        out = tmp_path / "v"
        main(["verify", "--config", cfg, "--suite", "core", "--out", str(out)])
        report = json.loads((out / "verify.json").read_text())
        entry = next(c for c in report["checks"] if c["check"] == "residual")
        assert entry["tolerance"] == 4.0
        assert entry["pass"] is (entry["statistic"] <= 4.0)
        assert entry["pass"] is (entry["witness"] is None)

    def test_verify_negative_controls(self, tmp_path):
        cfg = self.write(tmp_path, REFLECTED_TREE)
        out = tmp_path / "nc"
        assert main(["verify", "--config", cfg,
                     "--suite", "negative-controls", "--out", str(out)]) == 0

    def test_verify_all_solves_each_problem_once(self, tmp_path, monkeypatch):
        # the configured ladder as given (it stops early), its full ladder,
        # the three comparison variants and one fresh uniqueness solve
        schedules = []
        solve = cli.solve_mbsde

        def counted(problem, schedule, scenario, backend):
            schedules.append(schedule)
            return solve(problem, schedule, scenario, backend)

        for module in (cli, verification):
            monkeypatch.setattr(module, "solve_mbsde", counted)
        cfg = self.write(tmp_path, REFLECTED_TREE)
        assert main(["verify", "--config", cfg, "--suite", "all",
                     "--out", str(tmp_path / "v")]) == 0
        assert len(schedules) == 6
        assert [s.stop_tolerance for s in schedules] == [5e-3] + [0.0] * 5

    def test_verify_comparison_hypothesis_violation_exit(self, tmp_path):
        # an increasing-driver variation is constructed internally, so a
        # failing hypothesis can only come from a crafted suite; instead run
        # the comparison suite and require it to pass on the benchmark
        cfg = self.write(tmp_path, REFLECTED_TREE)
        assert main(["verify", "--config", cfg, "--suite", "comparison",
                     "--out", str(tmp_path / "c")]) == 0

    def test_sweep_rows(self, tmp_path):
        cfg = self.write(tmp_path, REFLECTED_TREE)
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("level,y0,")
        assert len(lines) == 1 + 11
        y0s = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(y0s, y0s[1:]))

    def test_sweep_single_level(self, tmp_path):
        text = REFLECTED_TREE.replace(
            "levels = 1,2,4,8,16,32,64,128,256,512,1024", "levels = 8")
        cfg = self.write(tmp_path, text)
        out = tmp_path / "s1"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_validate_command(self, tmp_path):
        cfg = self.write(tmp_path, REFLECTED_TREE)
        assert main(["validate", "--config", cfg]) == 0

    def test_validate_flags_bad_family(self, tmp_path):
        text = REFLECTED_TREE.replace("name = reflect_at",
                                      "name = blowup_near_terminal")
        text = text.replace("a = 0.0", "")
        cfg = self.write(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 2

    def test_seed_override_changes_artifacts(self, tmp_path, unbounded_solve):
        cfg, out_a = unbounded_solve
        out_b = tmp_path / "sb"
        assert main(["solve", "--config", cfg, "--out", str(out_b),
                     "--seed", "99"]) == 0
        assert (out_a / "solution.csv").read_bytes() != \
            (out_b / "solution.csv").read_bytes()

    def test_dump_paths(self, unbounded_solve):
        _, out = unbounded_solve
        assert (out / "paths.csv").exists()
