"""Constrained (multivalued) BSDE solves by penalization.

:func:`solve_penalized` runs one penalization level (driver f - k_n plus the
increasing process K accumulated from the penalty), :func:`solve_mbsde`
iterates levels monotonically until the Y-deltas stall, and
:func:`solve_unbounded` lifts real-valued operator families to the
negative-valued setting by the clamp-and-shift transform, then glues the
per-level solutions along envelope stopping times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bsde import CEBackend, DriverSpec, SolutionGrid, TerminalSpec, solve_bsde
from .errors import MonotonicityBreach, SegmentMismatch, ValidationError
from .monotone import GrowthEnvelope, MonotoneFamily, PenalizedOperator, truncate_shift
from .scenario import MarkSpace, TimeGrid

__all__ = [
    "Problem",
    "PenalizationSchedule",
    "LevelStats",
    "PenalizationReport",
    "ConcatenationRecord",
    "solve_penalized",
    "solve_mbsde",
    "stopping_times",
    "solve_unbounded",
    "default_levels",
    "constraint_slack",
]


@dataclass(frozen=True)
class Problem:
    """Bundle of the data (xi, f, k) plus grid and mark space."""

    grid: TimeGrid
    marks: MarkSpace
    driver: DriverSpec
    terminal: TerminalSpec
    family: Optional[MonotoneFamily] = None
    envelope: Optional[GrowthEnvelope] = None


def default_levels(max_exponent: int = 10) -> tuple[int, ...]:
    return tuple(2**k for k in range(max_exponent + 1))


@dataclass(frozen=True)
class PenalizationSchedule:
    """Level sequence and stopping tolerances for the penalization loop.

    ``stop_tolerance = 0`` runs every level; it also makes the default
    ``overlap_floor`` of :func:`solve_unbounded` 0.
    """

    levels: tuple = default_levels()
    stop_tolerance: float = 1e-4
    mono_tolerance: Optional[float] = None  # None -> backend-dependent default

    def __post_init__(self):
        levels = tuple(int(n) for n in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels or any(n < 1 for n in levels):
            raise ValueError("levels must be positive integers")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if self.stop_tolerance < 0:
            raise ValueError("stop_tolerance must be nonnegative")


@dataclass
class LevelStats:
    """Per-level monitors of the penalization loop."""

    level: int
    y0: float
    delta_prev: float                 # sup_i mean |Y^n_i - Y^prev_i|
    mono_violation: float             # max (Y^prev - Y^n)_+ over paths/steps
    min_constraint_slack: float       # min over i < N of Y_i - a_{t_i}
    k_terminal_mean: float
    sup_y_sq: float                   # E[sup_i |Y_i|^2]
    control_energy: float             # E[sum_i (Z_i^2 + ||psi_i||_pi^2) dt_i]
    k_terminal_sq: float              # E[K_T^2]

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class PenalizationReport:
    rows: list = field(default_factory=list)
    converged: bool = False
    reason: str = ""

    @property
    def levels(self) -> list:
        return [r.level for r in self.rows]

    def monitor_series(self) -> dict:
        return {
            "sup_y_sq": [r.sup_y_sq for r in self.rows],
            "control_energy": [r.control_energy for r in self.rows],
            "k_terminal_sq": [r.k_terminal_sq for r in self.rows],
        }

    def to_dict(self) -> dict:
        return {"converged": self.converged, "reason": self.reason,
                "rows": [r.to_dict() for r in self.rows]}

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)


def constraint_slack(Y: np.ndarray, family: MonotoneFamily,
                     grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Slack Y_i - a_{t_i} on the steps before the terminal one with finite a.

    Returns the (n_paths, k) slack and the k step indices it covers.  The
    terminal column is excluded: Y_N == xi is data, not solver output.
    """
    barriers = family.barriers(grid.times[:-1])
    steps = np.flatnonzero(np.isfinite(barriers))
    return Y[:, steps] - barriers[steps], steps


def _level_stats(problem: Problem, sol: SolutionGrid, level: int,
                 prev: SolutionGrid | None) -> LevelStats:
    w = sol.weights
    grid = problem.grid
    if prev is None:
        delta, viol = np.nan, 0.0
    else:
        diff = sol.Y - prev.Y
        delta = float(np.max(np.abs(diff).T @ w))
        viol = float(max(0.0, np.max(-diff)))
    slack, steps = constraint_slack(sol.Y, problem.family, grid)
    min_slack = float(slack.min()) if steps.size else np.inf
    dt = grid.steps
    energy = sol.Z**2 @ dt
    if problem.marks.n_marks:
        energy = energy + problem.marks.norm_pi_sq(sol.psi) @ dt
    return LevelStats(
        level=level,
        y0=sol.y0(),
        delta_prev=delta,
        mono_violation=viol,
        min_constraint_slack=min_slack,
        k_terminal_mean=sol.k_terminal_mean(),
        sup_y_sq=float(w @ np.max(sol.Y**2, axis=1)),
        control_energy=float(w @ energy),
        k_terminal_sq=float(w @ sol.K[:, -1]**2),
    )


def solve_penalized(problem: Problem, level: int, scenario,
                    backend: CEBackend) -> SolutionGrid:
    """One penalization level: BSDE with driver f - k_n and K from the penalty."""
    family = problem.family
    if family is None:
        raise ValueError("penalized solve needs a monotone family")
    if family.sign != "negative":
        raise ValueError("penalization applies to negative-valued families; "
                         "use solve_unbounded for real-valued ones")
    op = PenalizedOperator(family, level)
    sol = solve_bsde(problem.driver, problem.terminal, scenario, problem.grid,
                     problem.marks, backend, penalty=op)
    if problem.terminal.lower_bound_check:
        a_T = family.barriers(problem.grid.horizon)[0]
        worst = float(np.min(sol.Y[:, -1]))
        if worst < a_T - 1e-12:
            raise ValidationError(
                f"terminal condition dips to {worst} below a_T = {a_T}")
    sol.meta["level"] = level
    return sol


def solve_mbsde(problem: Problem, schedule: PenalizationSchedule, scenario,
                backend: CEBackend) -> tuple[SolutionGrid, PenalizationReport]:
    """Penalization loop with monotonicity guard and per-level monitors.

    All levels share the given scenario, which is what makes the pathwise
    monotone-increase assertion meaningful.  Convergence is declared when the
    sup-over-steps mean |Y^next - Y^prev| drops below the schedule's stop
    tolerance; running out of levels returns the last grid with
    ``report.converged = False`` (the report is still complete), as with
    ``stop_tolerance = 0``, which runs every level.
    """
    mono_tol = schedule.mono_tolerance
    if mono_tol is None:
        mono_tol = 1e-9 if backend.kind == "tree" else 5e-2

    report = PenalizationReport()
    prev = None
    for level in schedule.levels:
        sol = solve_penalized(problem, level, scenario, backend)
        stats = _level_stats(problem, sol, level, prev)
        report.rows.append(stats)
        if prev is not None and stats.mono_violation > mono_tol:
            raise MonotonicityBreach(
                f"level {level}: Y decreased by {stats.mono_violation:.3g} "
                f"(> {mono_tol:.3g}) somewhere on the shared scenario")
        if prev is not None and stats.delta_prev < schedule.stop_tolerance:
            report.converged = True
            report.reason = f"delta {stats.delta_prev:.3g} < stop tolerance"
            break
        prev = sol
    if not report.converged:
        last = report.rows[-1].delta_prev   # nan after a single level
        report.reason = (f"levels exhausted with delta {last:.3g} "
                         f">= {schedule.stop_tolerance:.3g}")
    return sol, report


def stopping_times(solution: SolutionGrid, envelope: GrowthEnvelope,
                   level: int, grid: TimeGrid) -> np.ndarray:
    """First grid index where ell(t_i, Y_i) <= level, per path.

    The condition always holds at the terminal index since ell(T, .) = 0.
    """
    n_steps = grid.n_steps
    hit = np.zeros((solution.n_paths, n_steps + 1), dtype=bool)
    for i in range(n_steps + 1):
        hit[:, i] = envelope(float(grid.times[i]), solution.Y[:, i]) <= level
    hit[:, n_steps] = True
    return np.argmax(hit, axis=1)


@dataclass
class OverlapStats:
    level: int
    cells: int
    mean_y_diff: float
    se_y_diff: float
    max_y_diff: float
    max_dk_diff: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ConcatenationRecord:
    """Bookkeeping of the truncation-concatenation construction.

    ``tau`` has one row per level starting with the anchor tau_0 = T (index
    N); rows are per-path stopping indices, nonincreasing down the rows.
    ``owner`` maps each (path, interval) to the level whose solution the
    concatenated process follows there.
    """

    levels: list
    tau: np.ndarray               # (n_levels + 1, n_paths) int indices
    owner: np.ndarray             # (n_paths, N) level values per interval
    overlaps: list = field(default_factory=list)
    level_y0: list = field(default_factory=list)
    uncovered_cells: int = 0
    level_reports: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"levels": self.levels,
                "tau": self.tau.tolist(),
                "level_y0": self.level_y0,
                "uncovered_cells": self.uncovered_cells,
                "overlaps": [o.to_dict() for o in self.overlaps]}

    def write_csv(self, path) -> None:
        """Rows (path, level, tau_index); level 0 is the tau_0 = T anchor."""
        with open(path, "w", newline="") as fh:
            fh.write("path,level,tau_index\n")
            levels = [0] + list(self.levels)
            for row, lev in enumerate(levels):
                for p in range(self.tau.shape[1]):
                    fh.write(f"{p},{lev},{self.tau[row, p]}\n")


def solve_unbounded(problem: Problem, schedule: PenalizationSchedule, scenario,
                    backend: CEBackend, max_truncation: int = 16,
                    overlap_floor: float | None = None
                    ) -> tuple[SolutionGrid, ConcatenationRecord]:
    """Truncation-concatenation for real-valued operator families.

    For each truncation level n the family is clamped and shifted
    (k ^ n - n, graphs in R x R_-), the MBSDE with driver f - n is solved by
    penalization, and K is recovered as K-hat_t - n t.  Stopping times
    tau_n = first time ell(t, Y^n_t) <= n cut the horizon into segments
    [tau_n, tau_{n-1}]; consecutive levels must agree on the overlap
    [tau_{n-1}, T], and the concatenated quadruple follows level n on its
    segment (K accumulated from level-owned increments so K_0 = 0).
    """
    family = problem.family
    envelope = problem.envelope
    if family is None or family.sign != "real":
        raise ValueError("solve_unbounded needs a real-valued family")
    if envelope is None:
        raise ValueError("solve_unbounded needs a growth envelope")
    if max_truncation < 1:
        raise ValueError("max_truncation must be >= 1")
    if overlap_floor is None:
        overlap_floor = 10.0 * schedule.stop_tolerance

    grid = problem.grid
    n_steps = grid.n_steps
    levels = list(range(1, max_truncation + 1))

    solutions = []
    record = ConcatenationRecord(levels=levels, tau=None, owner=None)
    taus = []
    prev_sol = None
    for n in levels:
        fam_n = truncate_shift(family, n)
        prob_n = replace(problem, family=fam_n, driver=problem.driver.shifted(n))
        sol_hat, rep = solve_mbsde(prob_n, schedule, scenario, backend)
        # undo the shift: K^n_t = K-hat^n_t - n t (bounded variation)
        sol_n = SolutionGrid(grid, problem.marks, sol_hat.Y, sol_hat.Z,
                             sol_hat.psi,
                             sol_hat.K - n * grid.times[None, :],
                             sol_hat.weights, dict(sol_hat.meta))
        tau_n = stopping_times(sol_n, envelope, n, grid)
        solutions.append(sol_n)
        taus.append(tau_n)
        record.level_reports.append(rep)
        record.level_y0.append(sol_n.y0())

        if prev_sol is not None:
            stats = _overlap_stats(n, prev_sol, sol_n, taus[-2], problem)
            record.overlaps.append(stats)
            tol = overlap_floor + 4.0 * stats.se_y_diff
            if stats.cells and abs(stats.mean_y_diff) > tol:
                raise SegmentMismatch(
                    f"levels {n - 1}/{n} disagree on the overlap: "
                    f"|mean dY| = {abs(stats.mean_y_diff):.3g} > {tol:.3g} "
                    f"(max |dY| = {stats.max_y_diff:.3g})")
        prev_sol = sol_n

    tau = np.vstack([np.full(solutions[0].n_paths, n_steps, dtype=int)] + taus)
    record.tau = tau

    # interval i follows the smallest level whose segment has started
    n_paths = tau.shape[1]
    owner = np.full((n_paths, n_steps), levels[-1], dtype=int)
    covered = np.zeros((n_paths, n_steps), dtype=bool)
    steps_idx = np.arange(n_steps)[None, :]
    for row, n in reversed(list(enumerate(levels, start=1))):
        started = tau[row][:, None] <= steps_idx
        owner[started] = n
        covered |= started
    record.uncovered_cells = int((~covered).sum())
    record.owner = owner

    Y = np.empty((n_paths, n_steps + 1))
    Z = np.empty((n_paths, n_steps))
    psi = np.empty((n_paths, n_steps, problem.marks.n_marks))
    dK = np.empty((n_paths, n_steps))
    for row, n in enumerate(levels, start=1):
        sol_n = solutions[row - 1]
        mask = owner == n
        Y[:, :-1][mask] = sol_n.Y[:, :-1][mask]
        Z[mask] = sol_n.Z[mask]
        psi[mask] = sol_n.psi[:, :, :][mask]
        dK[mask] = np.diff(sol_n.K, axis=1)[mask]
    Y[:, -1] = solutions[0].Y[:, -1]
    K = np.zeros((n_paths, n_steps + 1))
    np.cumsum(dK, axis=1, out=K[:, 1:])

    meta = {"backend": backend.kind, "truncation_levels": levels}
    concat = SolutionGrid(grid, problem.marks, Y, Z, psi, K,
                          solutions[0].weights, meta)
    return concat, record


def _overlap_stats(level: int, prev: SolutionGrid, cur: SolutionGrid,
                   tau_prev: np.ndarray, problem: Problem) -> OverlapStats:
    n_steps = problem.grid.n_steps
    steps_idx = np.arange(n_steps + 1)[None, :]
    mask = steps_idx >= tau_prev[:, None]          # [tau_{n-1}, T] per path
    diff = (cur.Y - prev.Y)[mask]
    imask = mask[:, :-1]                           # intervals inside the overlap
    dk_diff = (np.diff(cur.K, axis=1) - np.diff(prev.K, axis=1))[imask]
    cells = diff.size
    if cells:
        mean = float(diff.mean())
        se = float(diff.std(ddof=1) / np.sqrt(cells)) if cells > 1 else 0.0
        mx = float(np.max(np.abs(diff)))
    else:
        mean = se = mx = 0.0
    mdk = float(np.max(np.abs(dk_diff))) if dk_diff.size else 0.0
    return OverlapStats(level, cells, mean, se, mx, mdk)
