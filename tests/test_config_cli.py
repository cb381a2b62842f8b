import json
import re

import pytest

from mbsdej import (InvalidSelection, MarkSpace, ParseError, TimeGrid,
                    UnknownName, ValidationError, bsde, cli, simulate_paths,
                    solve_unbounded, verification)
from mbsdej.cli import main
from mbsdej.config import build_problem, parse_config, render_config
from mbsdej.registry import (DRIVERS, ENVELOPES, FAMILIES, TERMINALS,
                             make_driver, make_envelope, make_family,
                             make_terminal)
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


# keys no code reads; each one used to solve as if it were not there
UNREAD_KEYS = [("grid", "stepz = 50"), ("family", "aa = 0.7"),
               ("driver", "b_z = 1.0"), ("terminal", "shfit = 3"),
               ("run", "n_path = 7"), ("run", "workers = 4")]


def with_lines(text, lines):
    """``text`` with each (section, line) added under its section header."""
    for section, line in lines:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n", 1)
    return text


def config_error(text, tmp_path, capsys, command="solve"):
    """stderr of a CLI run of ``text`` that must exit 2."""
    cfg = tmp_path / "problem.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out",
                 str(tmp_path / "x")]) == 2
    return capsys.readouterr().err


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

    @pytest.mark.parametrize("section, line", UNREAD_KEYS)
    def test_unread_key_exits_2_and_names_itself(self, section, line,
                                                 tmp_path, capsys):
        key = line.split(" = ")[0]
        err = config_error(with_lines(REFLECTED_TREE, [(section, line)]),
                           tmp_path, capsys)
        assert key in err

    def test_all_unread_keys_together(self, tmp_path, capsys):
        err = config_error(with_lines(REFLECTED_TREE, UNREAD_KEYS), tmp_path,
                           capsys)
        assert any(line.split(" = ")[0] in err for _, line in UNREAD_KEYS)

    @pytest.mark.parametrize("key, old, new", [
        ("steps", "steps = 5", "steps = 5.5"),
        ("degree", "kind = tree", "kind = tree\ndegree = 2.5"),
        ("seed", "seed = 7", "seed = true"),
        ("n_paths", "n_paths = 1000", "n_paths = 1000.5"),
        ("levels", "levels = 1,2,4,8,16,32,64,128,256,512,1024",
         "levels = 1,2,4.5"),
    ], ids=["steps", "degree", "seed", "n_paths", "levels"])
    def test_integer_keys_refuse_non_integers(self, key, old, new, tmp_path,
                                              capsys):
        # int() used to truncate 5.5 to 5 and turn true into 1
        text = REFLECTED_TREE.replace(old, new)
        with pytest.raises(ValidationError, match="must be an integer"):
            build_problem(parse_config(text))
        assert key in config_error(text, tmp_path, capsys)

    def test_integral_float_is_an_integer(self):
        text = REFLECTED_TREE.replace("n_paths = 1000", "n_paths = 1e4")
        run = build_problem(parse_config(text))[3]
        assert run["n_paths"] == 10_000 and type(run["n_paths"]) is int

    def test_grid_times_excludes_t_and_steps(self, tmp_path, capsys):
        # times used to win silently over T and steps
        text = REFLECTED_TREE.replace("steps = 5", "steps = 5\ntimes = 0,0.5,1")
        assert "times" in config_error(text, tmp_path, capsys)

    @pytest.mark.parametrize("text", [
        REFLECTED_TREE.replace("a = 0.0", "a = zero"),
        REFLECTED_TREE.replace("name = reflect_at\na = 0.0",
                               "name = step\nlo = 0.5\nhi = -1"),
        UNBOUNDED_REG.replace("[envelope]\nname = linear_decay",
                              "[envelope]\nname = linear_decay\nscale = big"),
        REFLECTED_TREE.replace("T = 1.0", "T = 1.0,2.0"),
        REFLECTED_TREE.replace("kind = tree", "kind = tree\ndegree = -1"),
    ], ids=["family-a-zero", "family-step-lo-above-hi", "envelope-scale-big",
            "grid-T-list", "backend-degree-negative"])
    def test_bad_value_is_config_error(self, text, tmp_path, capsys):
        # these used to escape build_problem as a traceback (exit 1)
        assert "bad [" in config_error(text, tmp_path, capsys)

    @pytest.mark.parametrize("key, old, new", [
        ("T", "T = 1.0", "T = true"),
        ("stop_tolerance", "stop_tolerance = 5e-3", "stop_tolerance = true"),
        ("a", "a = 0.0", "a = true"),
        ("shift", "name = brownian", "name = brownian\nshift = false"),
    ], ids=["grid-T", "schedule-stop_tolerance", "family-a", "terminal-shift"])
    def test_number_keys_refuse_booleans(self, key, old, new, tmp_path,
                                         capsys):
        # float() used to read true as 1.0 and false as 0.0
        text = REFLECTED_TREE.replace(old, new)
        with pytest.raises(ValidationError, match="must be a number"):
            build_problem(parse_config(text))
        assert key in config_error(text, tmp_path, capsys)

    @pytest.mark.parametrize("key, text", [
        ("times", REFLECTED_TREE.replace("T = 1.0\nsteps = 5",
                                         "times = 0, 0.5, true")),
        ("values", UNBOUNDED_REG.replace("values = 1.0", "values = true")),
        ("intensities", UNBOUNDED_REG.replace("intensities = 1.0",
                                              "intensities = true")),
        ("vartheta", UNBOUNDED_REG.replace("vartheta = 2.0",
                                           "vartheta = false")),
        ("gamma", UNBOUNDED_REG.replace("[driver]\nname = zero",
                                        "[driver]\nname = constant\n"
                                        "gamma = true")),
        ("weights", UNBOUNDED_REG.replace("[terminal]\nname = brownian",
                                          "[terminal]\n"
                                          "name = compensated_jumps\n"
                                          "weights = true")),
    ], ids=["grid-times", "marks-values", "marks-intensities",
            "marks-vartheta", "driver-gamma", "terminal-weights"])
    def test_list_keys_refuse_booleans(self, key, text, tmp_path, capsys):
        # each used to solve with true read as 1.0
        with pytest.raises(ValidationError, match=f"{key} must be a number"):
            build_problem(parse_config(text))
        assert key in config_error(text, tmp_path, capsys)

    @pytest.mark.parametrize("value", ["no", "yes", "0.5", "1"])
    def test_lower_bound_check_takes_only_booleans(self, value, tmp_path,
                                                   capsys):
        # any non-empty word used to switch the check on
        text = REFLECTED_TREE.replace(
            "name = brownian", f"name = brownian\nlower_bound_check = {value}")
        with pytest.raises(ValidationError, match="must be true or false"):
            build_problem(parse_config(text))
        assert "lower_bound_check" in config_error(text, tmp_path, capsys)
        for flag in (True, False):
            checked = text.replace(f"lower_bound_check = {value}",
                                   f"lower_bound_check = {str(flag).lower()}")
            terminal = build_problem(parse_config(checked))[0].terminal
            assert terminal.lower_bound_check is flag

    @pytest.mark.parametrize("key, old, new", [
        ("n_paths", "n_paths = 1500", "n_paths = 0"),
        ("seed", "seed = 3", "seed = -1"),
        ("n_paths", "n_paths = 1500", "n_paths = 20"),
        ("n_paths", "n_paths = 1500", "n_paths = 59"),
        ("n_paths", "n_paths = 1500", "n_paths = 60"),
        ("n_paths", "n_paths = 1500", "n_paths = 479"),
    ], ids=["no-paths", "negative-seed", "too-few-for-regression",
            "one-short-of-regression", "too-few-per-y0-block",
            "one-short-per-y0-block"])
    def test_bad_run_size_is_config_error(self, key, old, new, tmp_path,
                                          capsys):
        # these used to exit 1 with a ValueError traceback from the solve
        text = UNBOUNDED_REG.replace(old, new)
        with pytest.raises(ValidationError, match=f"bad \\[run\\]: {key}"):
            build_problem(parse_config(text))
        assert key in config_error(text, tmp_path, capsys)

    def test_regression_path_minimum_is_the_solver_minimum(self):
        # degree 2 in (W, N) has 6 basis functions, so a solve needs 60 paths;
        # the Y0 error re-solves 8 blocks, so 8 x 60 = 480 paths build
        text = UNBOUNDED_REG.replace("n_paths = 1500", "n_paths = 480")
        problem, backend, _, run = build_problem(parse_config(text))
        assert backend.min_paths(problem.marks.n_marks) == 60
        assert run["n_paths"] == 8 * 60

    def test_solve_at_the_path_floor_exits_0(self, tmp_path, capsys):
        # at 480 paths each of the 8 Y0 blocks holds the 60 paths a solve
        # needs; without the family the solve is a plain BSDE, which is quick
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(UNBOUNDED_REG.replace(
            "[family]\nname = linear_decay\n\n[envelope]\nname = linear_decay\n",
            "").replace("mode = unbounded\n", ""))
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "x"), "--paths", "480"]) == 0
        assert "Y0 = " in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--paths", "0"),
                                             ("--paths", "60"),
                                             ("--seed", "-1")])
    def test_bad_run_size_flag_is_config_error(self, flag, value, tmp_path,
                                               capsys):
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(UNBOUNDED_REG)
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "x"), flag, value]) == 2
        assert "bad [run]" in capsys.readouterr().err

    @pytest.mark.parametrize("text, mode", [
        (REFLECTED_TREE, "mbsde"),
        (UNBOUNDED_REG, "unbounded"),
        (REFLECTED_TREE.replace("[family]\nname = reflect_at\na = 0.0\n", ""),
         "bsde"),
    ], ids=["mbsde", "unbounded", "bsde"])
    def test_family_fixes_the_mode(self, text, mode):
        bare = re.sub(r"mode = \w+\n", "", text)
        declared = bare.replace("[run]\n", f"[run]\nmode = {mode}\n")
        for config in (bare, declared):
            assert build_problem(parse_config(config))[3]["mode"] == mode

    def test_real_family_needs_envelope(self, tmp_path, capsys):
        text = UNBOUNDED_REG.replace("[envelope]\nname = linear_decay\n", "")
        assert "[envelope]" in config_error(text, tmp_path, capsys)
        text = text.replace("mode = unbounded\n", "")
        assert "[envelope]" in config_error(text, tmp_path, capsys)

    def test_validation_runs_before_solve(self):
        text = REFLECTED_TREE.replace("name = reflect_at",
                                      "name = blowup_near_terminal")
        text = text.replace("a = 0.0", "")
        with pytest.raises(ValidationError):
            build_problem(parse_config(text))


_GRID = TimeGrid.uniform(1.0, 5)
_MARKS = MarkSpace([1.0], [1.0])
_BUILDERS = ([(make_family, name, (_GRID,)) for name in FAMILIES]
             + [(make_envelope, name, (_GRID,)) for name in ENVELOPES]
             + [(make_driver, name, (_MARKS,)) for name in DRIVERS]
             + [(make_terminal, name, (_MARKS, _GRID)) for name in TERMINALS])


@pytest.mark.parametrize("make, name, context", _BUILDERS,
                         ids=[f"{m.__name__}-{n}" for m, n, _ in _BUILDERS])
def test_builder_refuses_a_key_it_does_not_read(make, name, context):
    make(name, {}, *context)
    with pytest.raises(ValidationError, match=f"bogus for '{name}'"):
        make(name, {"bogus": 1}, *context)


# every number a registry builder reads
_NUMBER_PARAMS = [
    (make_family, "reflect_at", (_GRID,), "a"),
    (make_family, "constant", (_GRID,), "c"),
    *[(make_family, "step", (_GRID,), key) for key in ("at", "lo", "hi")],
    (make_family, "linear_decay", (_GRID,), "scale"),
    (make_envelope, "linear_decay", (_GRID,), "scale"),
    (make_driver, "constant", (_MARKS,), "c"),
    *[(make_driver, "linear", (_MARKS,), key) for key in ("a", "b")],
    *[(make_driver, "mixed", (_MARKS,), key) for key in ("a", "bz", "qc")],
    (make_terminal, "brownian", (_MARKS, _GRID), "shift"),
    (make_terminal, "brownian_positive", (_MARKS, _GRID), "shift"),
    (make_terminal, "call", (_MARKS, _GRID), "strike"),
]


@pytest.mark.parametrize("make, name, context, key", _NUMBER_PARAMS,
                         ids=[f"{m.__name__}-{n}-{k}"
                              for m, n, _, k in _NUMBER_PARAMS])
def test_builder_refuses_a_boolean_number(make, name, context, key):
    make(name, {key: 0}, *context)
    for value in (True, False):
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            make(name, {key: value}, *context)


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

    def test_unbounded_summary_lists_the_solved_levels(self, unbounded_solve):
        _, out = unbounded_solve
        summary = json.loads((out / "summary.json").read_text())
        report = json.loads((out / "report.json").read_text())
        problem, backend, schedule, run = build_problem(parse_config(UNBOUNDED_REG))
        ens = simulate_paths(problem.grid, problem.marks, run["n_paths"],
                             run["seed"])
        record = solve_unbounded(problem, schedule, ens, backend)[1]
        solved = len(record.level_y0)
        assert solved < len(record.levels)     # stopped before the cap
        assert summary["levels"] == list(range(1, solved + 1))
        assert len(report["levels"]) == solved

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

    def test_mode_line_changes_no_artifact(self, tmp_path, capsys):
        stdout = {}
        for tag, text in (("with", REFLECTED_TREE),
                          ("without", REFLECTED_TREE.replace("mode = mbsde\n",
                                                             ""))):
            cfg = self.write(tmp_path, text, f"{tag}.cfg")
            assert main(["solve", "--config", cfg, "--out",
                         str(tmp_path / tag)]) == 0
            stdout[tag] = capsys.readouterr().out
        assert stdout["with"] == stdout["without"]
        for name in ("solution.csv", "report.json"):
            assert (tmp_path / "with" / name).read_bytes() == \
                (tmp_path / "without" / name).read_bytes()
        # the summary echoes the config text it was given, and only that
        with_, without = (json.loads((tmp_path / tag / "summary.json")
                                     .read_text()) for tag in stdout)
        assert with_.pop("config") != without.pop("config")
        assert with_ == without

    def test_solve_has_no_mode_flag(self, tmp_path):
        cfg = self.write(tmp_path, REFLECTED_TREE)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", cfg, "--mode", "mbsde", "--out",
                  str(tmp_path / "x")])
        assert exc.value.code == 2

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

    def test_verify_core_suite_above_a_raised_barrier(self, tmp_path):
        # the interior selection sits 0.5 above sup a_t; a fixed x* = 0.5
        # left the graph at a = 1 and crashed the suite (exit 3)
        cfg = self.write(tmp_path, REFLECTED_TREE.replace("a = 0.0", "a = 1.0"))
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--suite", "core",
                     "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["pass"] is True and len(report["checks"]) == 4

    def test_verify_error_is_a_failing_entry(self, tmp_path, monkeypatch):
        # verify.json is written however the run ends; one that raised
        # must not read as a pass
        def broken(*args, **kwargs):
            raise InvalidSelection("selection left the graph")

        monkeypatch.setattr(cli, "check_skorokhod", broken)
        no_family = REFLECTED_TREE.replace(
            "[family]\nname = reflect_at\na = 0.0\n", "").replace(
            "mode = mbsde\n", "")
        for text, code, error in ((REFLECTED_TREE, 3, "InvalidSelection"),
                                  (no_family, 2, "ValidationError")):
            out = tmp_path / error
            assert main(["verify", "--config", self.write(tmp_path, text),
                         "--suite", "core", "--out", str(out)]) == code
            report = json.loads((out / "verify.json").read_text())
            assert report["pass"] is False
            last = report["checks"][-1]
            assert last["check"] == "error" and last["pass"] is False
            assert last["witness"]["type"] == error
            assert last["witness"]["message"]

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
