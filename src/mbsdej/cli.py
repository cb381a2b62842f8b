"""Configuration-driven entry point.

Commands: ``solve``, ``verify``, ``sweep``, ``validate``.  Exit codes:
0 pass, 1 check failure, 2 config error, 3 solver error.  Artifacts (solution
CSV, report JSON, sweep CSV) land in ``--out``; :mod:`mbsdej.artifacts`
writes every one of them, byte-identical for identical configs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, artifacts
from .bsde import NodeColumns, residual_check, solve_bsde
from .config import ProblemConfig, build_problem, parse_config, render_config
from .errors import (HypothesisViolated, MbsdejError, ParseError, UnknownName,
                     ValidationError)
from .monotone import default_probes, validate_assumptions
from .penalization import solve_mbsde, solve_unbounded
from .registry import make_family
from .scenario import build_tree, simulate_paths
from .verification import (CheckResult, GraphSelection, PropertyReport,
                           block_y0_se, bounds_monitor, check_comparison,
                           check_constraint, check_skorokhod, check_uniqueness)

SUITES = ("core", "comparison", "uniqueness", "negative-controls", "all")


def _load_config(path: str, args) -> ProblemConfig:
    text = Path(path).read_text()
    config = parse_config(text)
    return config.with_overrides(seed=args.seed, n_paths=args.paths)


def _make_scenario(problem, backend, run):
    if backend.kind == "tree":
        return build_tree(problem.grid, problem.marks)
    return simulate_paths(problem.grid, problem.marks, run["n_paths"],
                          run["seed"])


def _solve(problem, schedule, scenario, backend):
    """(solution, ladder report): solve_bsde without a family (report None)."""
    if problem.family is None:
        return solve_bsde(problem.driver, problem.terminal, scenario,
                          problem.grid, problem.marks, backend), None
    return solve_mbsde(problem, schedule, scenario, backend)


def run_solve(config: ProblemConfig, out_dir: Path, dump_paths: bool = False) -> int:
    problem, backend, schedule, run = build_problem(config)
    mode = run["mode"]
    scenario = _make_scenario(problem, backend, run)
    out_dir.mkdir(parents=True, exist_ok=True)
    if dump_paths and backend.kind == "regression":
        scenario.write_csv(out_dir / "paths.csv")

    def solve(scn):
        if mode == "unbounded":
            return solve_unbounded(problem, schedule, scn, backend)
        return _solve(problem, schedule, scn, backend)

    summary = {"mode": mode, "seed": run["seed"], "config": render_config(config)}
    code = 0
    sol, report = solve(scenario)
    levels_used = [] if report is None else report.levels
    if mode == "mbsde":
        report.write_json(out_dir / "report.json")
        if not report.converged:
            print(f"warning: penalization did not converge ({report.reason})",
                  file=sys.stderr)
            code = 3
    elif mode == "unbounded":
        # the truncation levels solved: the loop may stop before the cap
        levels_used = report.levels[:len(report.level_reports)]
        report.write_csv(out_dir / "concatenation.csv")
        artifacts.write_json(out_dir / "report.json", {
            "levels": [rep.to_dict() for rep in report.level_reports],
            "record": report.to_dict()})
    se = block_y0_se(scenario, lambda sub: solve(sub)[0].y0())

    sol.write_csv(out_dir / "solution.csv")
    k_mean = sol.k_terminal_mean()
    summary.update({"y0": sol.y0(), "y0_se": se, "k_terminal_mean": k_mean,
                    "levels": list(map(int, levels_used))})
    artifacts.write_json(out_dir / "summary.json", summary)
    print(f"Y0 = {sol.y0():.10g} +- {se:.3g}, K_T mean = {k_mean:.10g}, "
          f"levels = {list(map(int, levels_used))}")
    return code


# -- verify suites -------------------------------------------------------------
# run_verify solves each problem once.  Comparison and uniqueness pair
# penalized solutions level by level, so they read full ladders.


_RESIDUAL_GATE = {"tol": 1e-8, "z_gate": 4.0}   # the residual gate verify applies


def _suite_core(problem, backend, scenario, sol, pen_report, report):
    report.add(check_constraint(sol, problem.family, tol=5e-2))
    # 0.5 above sup_t a_t, so the selection stays inside every domain
    x_star = default_probes(problem.family, problem.grid)[0]
    selections = [GraphSelection.interior_constant(problem.family, problem.grid,
                                                   x_star)]
    if np.isfinite(problem.family.barriers(0.0)[0]):
        selections.append(GraphSelection.boundary_offset(problem.family,
                                                         problem.grid, 1e-3))
    report.add(check_skorokhod(sol, problem.family, selections, tol=5e-2))
    resid = residual_check(sol, problem.driver, scenario, problem.grid,
                           problem.marks)
    passed = resid.passed(**_RESIDUAL_GATE)
    statistic, step, moment = resid.worst()
    tol = _RESIDUAL_GATE["tol" if backend.kind == "tree" else "z_gate"]
    report.add(CheckResult("residual", passed, statistic, tol,
                           None if passed else {"step": step, "moment": moment}))
    report.add(bounds_monitor(pen_report))


def _lowered_terminal(problem, shift: float):
    base = problem.terminal.evaluator
    term = replace(problem.terminal,
                   evaluator=lambda s, _b=base, _d=shift: np.asarray(_b(s)) - _d,
                   name=f"{problem.terminal.name}-{shift:g}")
    return replace(problem, terminal=term)


def _lowered_family(problem, drop: float):
    fam = problem.family
    return replace(problem, family=fam.map_values(
        shift=-drop, name=f"{fam.name}-{drop:g}"))


def _suite_comparison(problem, backend, full, scenario, sol, report):
    variants = [
        ("comparison[shifted_terminal]", _lowered_terminal(problem, 0.5), problem),
        ("comparison[dominated_driver]",
         replace(problem, driver=problem.driver.shifted(1.0)), problem),
    ]
    if problem.family is not None:
        variants.append(("comparison[ordered_k]",
                         problem, _lowered_family(problem, 0.5)))
    tol = 1e-8 if backend.kind == "tree" else 1e-6

    def solution(p):
        return sol if p is problem else _solve(p, full, scenario, backend)[0]

    for name, low, high in variants:
        try:
            entry = check_comparison(low, solution(low), high, solution(high),
                                     scenario, tol=tol)
            entry.check = name
        except HypothesisViolated as exc:
            entry = CheckResult(name, False, witness={"error": str(exc)})
        report.add(entry)


def _suite_uniqueness(problem, backend, full, scenario, sol, run, report):
    # a tree is solved afresh (a determinism check), an ensemble on new paths
    other = scenario if backend.kind == "tree" else simulate_paths(
        problem.grid, problem.marks, run["n_paths"], run["seed"] + 1)

    def solve(scn):
        return _solve(problem, full, scn, backend)[0]

    se = np.hypot(*(block_y0_se(s, lambda sub: solve(sub).y0())
                    for s in (scenario, other)))
    report.add(check_uniqueness(sol, solve(other), se))


def _suite_negative_controls(problem, scenario, sol, report):
    # a corrupted solution must fail the residual check
    mid = problem.grid.n_steps // 2
    columns = list(sol.Y.columns)       # shares every other column
    columns[mid] = columns[mid] + 1.0
    corrupted = replace(sol, Y=NodeColumns(columns, sol.Y.levels, sol.Y.scenario))
    resid = residual_check(corrupted, problem.driver, scenario, problem.grid,
                           problem.marks)
    detected = not resid.passed(**_RESIDUAL_GATE)
    report.add(CheckResult("negative[corrupted_residual_detected]", detected,
                           float(resid.mean_abs[mid]), None,
                           None if detected else {"step": mid}))

    # unordered terminals must trip the comparison hypothesis guard, which
    # raises before either solution is read
    raised = False
    try:
        check_comparison(_lowered_terminal(problem, -0.5), sol, problem, sol,
                         scenario)
    except HypothesisViolated:
        raised = True
    report.add(CheckResult("negative[unordered_terminals_guarded]", raised))

    # a family violating (B.2) must be flagged by validate_assumptions
    bad = make_family("blowup_near_terminal", {}, problem.grid)
    val = validate_assumptions(bad, None, problem.grid, [1.0, 2.0])
    flagged = not val.item("B2").passed
    report.add(CheckResult("negative[b2_violation_flagged]", flagged,
                           val.item("B2").statistic))


def run_verify(config: ProblemConfig, suite: str, out_dir: Path) -> int:
    problem, backend, schedule, run = build_problem(config)
    scenario = _make_scenario(problem, backend, run)
    report = PropertyReport(meta={"suite": suite, "seed": run["seed"],
                                  "config": render_config(config)})
    out_dir.mkdir(parents=True, exist_ok=True)
    wanted = set(SUITES) if suite == "all" else {suite}
    sign = problem.family.sign if problem.family else None
    try:
        if "core" in wanted and sign != "negative":
            raise ValidationError("suite 'core' needs a negative-valued family")
        if sign not in (None, "negative"):
            raise ValidationError("verify needs a negative-valued family or none")
        sol = ladder = None
        if wanted & {"core", "negative-controls"}:
            sol, ladder = _solve(problem, schedule, scenario, backend)
            if "core" in wanted:
                _suite_core(problem, backend, scenario, sol, ladder, report)
        if wanted & {"comparison", "uniqueness"}:
            full = replace(schedule, stop_tolerance=0.0)
            # the given ladder is the full one unless it stopped early
            if sol is None or (ladder and len(ladder.rows) < len(full.levels)):
                sol = None      # release the early-stopped solution first
                sol, _ = _solve(problem, full, scenario, backend)
            if "comparison" in wanted:
                _suite_comparison(problem, backend, full, scenario, sol, report)
            if "uniqueness" in wanted:
                _suite_uniqueness(problem, backend, full, scenario, sol, run,
                                  report)
        if "negative-controls" in wanted:
            _suite_negative_controls(problem, scenario, sol, report)
    except Exception as exc:
        # the file must not read as a pass when the run did not finish
        report.add(CheckResult("error", False, witness={
            "type": type(exc).__name__, "message": str(exc)}))
        raise
    finally:
        report.write_json(out_dir / "verify.json")
    for entry in report.entries:
        mark = "PASS" if entry.passed else "FAIL"
        stat = "" if entry.statistic is None else f" stat={entry.statistic:.6g}"
        print(f"[{mark}] {entry.check}{stat}")
    return 0 if report.passed else 1


def run_sweep(config: ProblemConfig, out_dir: Path) -> int:
    problem, backend, schedule, run = build_problem(config)
    if problem.family is None or problem.family.sign != "negative":
        raise ValidationError("sweep needs a negative-valued family")
    scenario = _make_scenario(problem, backend, run)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, report = solve_mbsde(problem, replace(schedule, stop_tolerance=0.0),
                            scenario, backend)
    y0s = [r.y0 for r in report.rows]
    deltas = [np.nan] + [abs(b - a) for a, b in zip(y0s, y0s[1:])]
    rows = [(r.level, r.y0, d, r.min_constraint_slack, r.k_terminal_mean)
            for r, d in zip(report.rows, deltas)]
    artifacts.write_csv(out_dir / "sweep.csv",
                        ["level", "y0", "delta_prev", "min_constraint_slack",
                         "k_terminal_mean"], [np.array(rows, dtype=float)])
    for row in rows:
        print("level {:>6d}  Y0 = {: .8g}  delta = {: .3g}  "
              "slack = {: .3g}  K_T = {: .6g}".format(*row))
    return 0


def run_validate(config: ProblemConfig) -> int:
    problem, backend, schedule, run = build_problem(config, validate=False)
    if problem.family is None:
        print("no family declared; nothing to validate")
        return 0
    report = validate_assumptions(problem.family, problem.envelope,
                                  problem.grid,
                                  default_probes(problem.family, problem.grid))
    for item in report.items:
        mark = "PASS" if item.passed else "FAIL"
        stat = "" if item.statistic is None else f" stat={item.statistic:.6g}"
        wit = "" if item.witness is None else f" witness={item.witness}"
        print(f"[{mark}] {item.name}{stat}{wit}")
    return 0 if report.passed else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbsdej",
        description="Penalization solver and verification harness for "
                    "constrained BSDEs with jumps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="problem config path")
        p.add_argument("--out", default="out", help="artifact directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--paths", type=int, default=None)

    p_solve = sub.add_parser("solve", help="run one solve and write artifacts")
    common(p_solve)
    p_solve.add_argument("--dump-paths", action="store_true",
                         help="also export the simulated ensemble as CSV")

    p_verify = sub.add_parser("verify", help="run a named check suite")
    common(p_verify)
    p_verify.add_argument("--suite", choices=SUITES, default="core")

    p_sweep = sub.add_parser("sweep", help="Y0 at every level of the schedule; "
                                           "exit 3 if Y decreases")
    common(p_sweep)

    p_val = sub.add_parser("validate", help="assumption diagnostics only")
    common(p_val)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args)
        out_dir = Path(args.out)
        if args.command == "solve":
            return run_solve(config, out_dir, dump_paths=args.dump_paths)
        if args.command == "verify":
            return run_verify(config, args.suite, out_dir)
        if args.command == "sweep":
            return run_sweep(config, out_dir)
        return run_validate(config)
    except (ParseError, UnknownName, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MbsdejError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
