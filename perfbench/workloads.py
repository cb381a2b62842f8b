"""The three benchmark workloads: inputs, one operation each, and its gate.

Each workload repeats one operation.  ``execute`` is the timed part and goes
through the public API (``unbounded-mc``) or through ``mbsdej.cli.main`` in
this process (``tree-verify``, ``bsde-mc``).  ``check`` runs afterwards,
untimed, and returns ``None`` or the reason the output is wrong.

Every call into ``mbsdej`` is looked up on its module at call time, so the
traced run's attribute patches see it.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import mbsdej
import mbsdej.cli
from mbsdej import registry

import gates

CONFIGS = Path(__file__).resolve().parent / "configs"

# Reference seeds reproduce the numbers in README.md; the holdout seeds are
# kept for confirming a later claim on a seed not used while writing it.
REFERENCE_SEEDS = {"unbounded-mc": 909, "tree-verify": 909, "bsde-mc": 2024}
HOLDOUT_SEEDS = {"unbounded-mc": 4243, "tree-verify": 4243, "bsde-mc": 4243}


def unbounded_problem():
    """The test_09 instance: k = (T - t) x with envelope (T - t)(1 + x+)."""
    grid = mbsdej.TimeGrid.uniform(1.0, 8)
    marks = mbsdej.MarkSpace([1.0], [1.0])
    problem = mbsdej.Problem(
        grid, marks, registry.make_driver("zero", {}, marks),
        registry.make_terminal("brownian", {}, marks, grid),
        family=registry.make_family("linear_decay", {}, grid),
        envelope=registry.make_envelope("linear_decay", {}, grid))
    report = mbsdej.validate_assumptions(problem.family, problem.envelope,
                                         grid, [0.5, 1.0, 2.0])
    if not report.passed:
        raise mbsdej.ValidationError("unbounded-mc instance fails validation")
    return problem


class UnboundedMC:
    name = "unbounded-mc"
    n_paths, n_steps = 10_000, 8
    min_ops = 1
    max_truncation = 16

    def prepare(self) -> None:
        self.problem = unbounded_problem()
        self.schedule = mbsdej.PenalizationSchedule(levels=(1, 4, 16, 64, 256),
                                                    stop_tolerance=1e-3)
        self.backend = mbsdej.CEBackend(kind="regression", degree=2)

    def execute(self, seed: int, out: Path):
        p = self.problem
        ens = mbsdej.simulate_paths(p.grid, p.marks, self.n_paths, seed=seed)
        sol, record = mbsdej.solve_unbounded(p, self.schedule, ens,
                                             self.backend,
                                             max_truncation=self.max_truncation)
        resid = mbsdej.residual_check(sol, p.driver, ens, p.grid, p.marks)
        return record, resid

    def check(self, result, out: Path) -> str | None:
        record, resid = result
        return gates.unbounded_mc(record.tau, record.overlaps,
                                  self.schedule.stop_tolerance,
                                  self.max_truncation, self.n_paths,
                                  self.n_steps,
                                  resid.passed(z_gate=gates.Z_GATE))


class CliWorkload:
    """One ``mbsdej`` command run in this process, artifacts under ``out``."""

    config: str
    command: list

    def __init__(self):
        self.first_digest = None

    def prepare(self) -> None:
        pass

    def execute(self, seed: int, out: Path) -> int:
        argv = self.command + ["--config", str(CONFIGS / self.config),
                               "--out", str(out), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return mbsdej.cli.main(argv)


class TreeVerify(CliWorkload):
    name = "tree-verify"
    n_paths, n_steps = 4**9, 9       # leaves of the tree
    min_ops = 1
    config = "tree_verify.cfg"
    command = ["verify", "--suite", "all"]

    def check(self, code: int, out: Path) -> str | None:
        path = out / "verify.json"
        if not path.exists():
            return f"exit code {code} and no verify.json"
        return gates.tree_verify(code, json.loads(path.read_text()))


class BsdeMC(CliWorkload):
    name = "bsde-mc"
    n_paths, n_steps = 100_000, 8
    n_marks = 1
    min_ops = 2                      # the byte-identity gate needs two
    config = "bsde_mc.cfg"
    command = ["solve"]

    def check(self, code: int, out: Path) -> str | None:
        if code != 0:
            return f"exit code {code}"
        summary = json.loads((out / "summary.json").read_text())
        reason = (gates.bsde_mc(summary, self.n_paths) or
                  gates.solution_csv(out / "solution.csv", self.n_paths,
                                     self.n_steps, self.n_marks,
                                     float(summary["y0"])))
        if reason:
            return reason
        digest = gates.file_digest(out / "solution.csv")
        if self.first_digest is None:
            self.first_digest = digest
        return gates.same_bytes(self.first_digest, digest)


WORKLOADS = {w.name: w for w in (UnboundedMC, TreeVerify, BsdeMC)}
