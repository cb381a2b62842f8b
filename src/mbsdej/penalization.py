"""Constrained (multivalued) BSDE solves by penalization.

:func:`solve_penalized` runs one penalization level (driver f - k_n plus the
increasing process K accumulated from the penalty), :func:`solve_mbsde`
iterates levels monotonically until the Y-deltas stall, and
:func:`solve_unbounded` lifts real-valued operator families to the
negative-valued setting by the clamp-and-shift transform, then glues each
level in along envelope stopping times as soon as it is solved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import artifacts
from .bsde import (CEBackend, DriverSpec, NodeColumns, SolutionGrid,
                   TerminalSpec, solve_bsde)
from .errors import (MbsdejError, MonotonicityBreach, SegmentMismatch,
                     ValidationError)
from .monotone import GrowthEnvelope, MonotoneFamily, PenalizedOperator, truncate_shift
from .scenario import MarkSpace, ScenarioTree, TimeGrid

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


_MONO_TOL = {"tree": 1e-9, "regression": 5e-2}   # largest Y decrease per level


def default_levels() -> tuple[int, ...]:
    return tuple(2**k for k in range(11))


@dataclass(frozen=True)
class PenalizationSchedule:
    """Level sequence and stopping tolerances for the penalization loop.

    ``stop_tolerance = 0`` runs every level; it also makes the default
    ``overlap_floor`` of :func:`solve_unbounded` 0.
    """

    levels: tuple = default_levels()
    stop_tolerance: float = 1e-4

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


@dataclass
class PenalizationReport:
    rows: list = field(default_factory=list)
    converged: bool = False
    reason: str = ""

    @property
    def levels(self) -> list:
        return [r.level for r in self.rows]

    def monitor_series(self) -> dict:
        return {name: [getattr(r, name) for r in self.rows]
                for name in ("sup_y_sq", "control_energy", "k_terminal_sq")}

    def to_dict(self) -> dict:
        return {"converged": self.converged, "reason": self.reason,
                "rows": [asdict(r) for r in self.rows]}

    def write_json(self, path) -> None:
        artifacts.write_json(path, self.to_dict())


def constraint_slack(solution: SolutionGrid,
                     family: MonotoneFamily) -> dict[int, np.ndarray]:
    """Slack Y_i - a_{t_i} on the entries of Y's column i (the level-i
    states of a solver output), keyed by the steps i < N with a finite
    barrier (Y_N == xi is data, not solver output)."""
    Y = solution.nodes("Y")
    barriers = family.barriers(solution.grid.times[:-1])
    return {int(i): Y[i] - barriers[i]
            for i in np.flatnonzero(np.isfinite(barriers))}


def _k_terminal_sq(K: NodeColumns) -> float:
    """E[K_T^2] by a backward recursion of R_i = K_T - K_i on the states:
    E[R_i^2] = E[R_{i+1}^2] + E[dK_i (dK_i + 2 E_i[R_{i+1}])]."""
    states, a, total = K.scenario, 0.0, 0.0      # a = E_i[R_{i+1}]; R_N = 0
    for i in reversed(range(len(K.columns) - 1)):   # column i+1 holds dK_i
        dk = K[i + 1]
        total += float(K.probs[i + 1] @ (dk * (dk + 2.0 * a)))
        a = states.branch_mean(i - 1, dk + a) if i else dk + a
    return total + float(K.probs[0] @ (K[0] * (K[0] + 2.0 * a)))


def _sup_y_sq(Y: NodeColumns) -> float:
    """E[sup_i |Y_i|^2] by a forward pass over (state, running max,
    probability) triples; on a recombining level the triples of one state
    and one running max merge, exactly, since a running max is one Y_i^2."""
    states, sq = Y.scenario, [y**2 for y in Y.columns]
    if not isinstance(states, ScenarioTree):     # a path is its own state
        return float(Y.probs[-1] @ np.maximum.reduce(sq))
    at, run, p = np.zeros(1, np.intp), sq[0], Y.probs[0]
    for i in range(len(sq) - 1):
        at = states.child[i][at].ravel()
        run = np.maximum(np.repeat(run, states.branching), sq[i + 1][at])
        p = (p[:, None] * states.probs[i]).ravel()
        if states.node_map(i + 1) is not None:
            key, inv = np.unique(at + 1j * run, return_inverse=True)
            at, run, p = key.real.astype(np.intp), key.imag, np.bincount(inv, p)
    return float(p @ run)


def _level_stats(problem: Problem, sol: SolutionGrid, level: int,
                 prev: SolutionGrid | None) -> LevelStats:
    """The level's monitors as expectations under the entries' probabilities,
    all on the states: E[K_T] and E[K_T^2] from K's increments, and
    E[sup_i |Y_i|^2] from (state, running max) pairs; nothing is gathered
    onto the nodes."""
    grid = problem.grid
    Y, Z, psi = (sol.nodes(name) for name in ("Y", "Z", "psi"))
    if prev is None:
        delta, viol = np.nan, 0.0
    else:
        diffs = [a - b for a, b in zip(Y.columns, prev.nodes("Y").columns)]
        delta = max(float(p @ np.abs(d)) for p, d in zip(Y.probs, diffs))
        viol = max(0.0, max(float(np.max(-d)) for d in diffs))
    min_slack = min((float(np.min(s)) for s in
                     constraint_slack(sol, problem.family).values()),
                    default=np.inf)
    energy = sum(float(dt * (Z.probs[i] @ (Z[i]**2
                                           + problem.marks.norm_pi_sq(psi[i]))))
                 for i, dt in enumerate(grid.steps))
    return LevelStats(
        level=level,
        y0=sol.y0(),
        delta_prev=delta,
        mono_violation=viol,
        min_constraint_slack=min_slack,
        k_terminal_mean=sol.k_terminal_mean(),
        sup_y_sq=_sup_y_sq(Y),
        control_energy=energy,
        k_terminal_sq=_k_terminal_sq(sol.nodes("K")),
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
        worst = float(np.min(sol.nodes("Y")[-1]))   # xi on the terminal nodes
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
    mono_tol = _MONO_TOL[backend.kind]

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

    A running minimum down the columns of Y of i where the condition holds,
    else N; the terminal index always meets it, since ell(T, .) = 0.
    """
    Y = solution.nodes("Y")
    n = grid.n_steps
    first = [Y.on_nodes(i, np.where(envelope(float(t), Y[i]) <= level, i, n))
             for i, t in enumerate(grid.times[:-1])]
    return Y.accumulate(np.minimum, [*first, np.full(1, n)])[-1]


@dataclass
class OverlapStats:
    level: int
    cells: int
    mean_y_diff: float
    se_y_diff: float
    max_y_diff: float
    max_dk_diff: float


@dataclass
class ConcatenationRecord:
    """Bookkeeping of the truncation-concatenation construction.

    ``tau`` has one row per level of ``levels`` (1 ... max_truncation)
    starting with the anchor tau_0 = T (index N); rows are per-path stopping
    indices, nonincreasing down the rows.  A level after the early stop of
    :func:`solve_unbounded` is not solved, and its row holds 0, the value a
    solved level gives once tau is 0 on every path.  ``level_reports``,
    ``level_y0`` and ``overlaps`` list the solved levels only.
    ``uncovered_cells`` counts the (path, interval) cells that no level's
    segment reaches; the last level fills them.
    """

    levels: list
    tau: np.ndarray               # (n_levels + 1, n_paths) int indices
    overlaps: list = field(default_factory=list)
    level_y0: list = field(default_factory=list)
    uncovered_cells: int = 0
    level_reports: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"levels": self.levels,
                "tau": self.tau.tolist(),
                "level_y0": self.level_y0,
                "uncovered_cells": self.uncovered_cells,
                "overlaps": [asdict(o) for o in self.overlaps]}

    def write_csv(self, path) -> None:
        """Rows (path, level, tau_index); level 0 is the tau_0 = T anchor."""
        def blocks():
            for lev, taus in zip([0, *self.levels], self.tau):
                for p in range(0, taus.size, artifacts.CHUNK_PATHS):
                    chunk = taus[p:p + artifacts.CHUNK_PATHS]
                    yield np.column_stack([np.arange(p, p + chunk.size),
                                           np.full(chunk.size, lev), chunk])

        artifacts.write_csv(path, ["path", "level", "tau_index"], blocks())


def solve_unbounded(problem: Problem, schedule: PenalizationSchedule, scenario,
                    backend: CEBackend, max_truncation: int = 16,
                    overlap_floor: float | None = None
                    ) -> tuple[SolutionGrid, ConcatenationRecord]:
    """Truncation-concatenation for real-valued operator families.

    For each truncation level n the family is clamped and shifted
    (k ^ n - n, graphs in R x R_-), the MBSDE with driver f - n is solved by
    penalization, and K is recovered as K-hat_t - n t, increment by
    increment (dK-hat_i - n dt_i on each state).  Stopping times
    tau_n = first time ell(t, Y^n_t) <= n cut the horizon into segments
    [tau_n, tau_{n-1}]; consecutive levels must agree on the overlap
    [tau_{n-1}, T].  Each level is glued in once solved: cell (path, i)
    takes level n's Y, Z, psi and dK when tau_n <= i and no earlier level
    claimed it, the last level takes the rest, and K sums the glued
    increments (K_0 = 0).  Only the previous level's solution is kept.

    Once a level leaves no cell unclaimed, no later level can supply one:
    the loop solves one more level, so that the overlap check runs over the
    whole horizon, and stops there.  ``max_truncation`` caps the loop; rows
    of ``record.tau`` for levels past the stop hold 0.  An error raised while
    solving a level is re-raised as the same type, prefixed with
    ``truncation level n``.
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
    n_paths = scenario.weights.size
    levels = list(range(1, max_truncation + 1))
    # indices 0..N in the smallest signed type, so row differences stay exact
    tau = np.zeros((max_truncation + 1, n_paths), np.min_scalar_type(-n_steps))
    tau[0] = n_steps
    record = ConcatenationRecord(levels=levels, tau=tau)

    # the glue follows the path-dependent tau: every component is on the
    # nodes, the node view's states, and K is held by its increments
    nodes = scenario.node_view
    Y = NodeColumns.empty(nodes, range(n_steps + 1))
    Z = NodeColumns.empty(nodes, range(n_steps))
    psi = NodeColumns.empty(nodes, range(n_steps), (problem.marks.n_marks,))
    K = NodeColumns.empty(nodes, [0, *range(n_steps)])
    K[0] = 0.0
    free = [np.ones(p.size, dtype=bool) for p in Z.probs]   # cells unclaimed
    last = max_truncation
    prev = None
    for n in levels:                                 # row n of tau is level n
        fam_n = truncate_shift(family, n)
        prob_n = replace(problem, family=fam_n, driver=problem.driver.shifted(n))
        try:
            sol, rep = solve_mbsde(prob_n, schedule, scenario, backend)
        except MbsdejError as exc:
            raise type(exc)(f"truncation level {n}: {exc}") from exc
        Y_n, Z_n, psi_n, K_n = map(sol.nodes, ("Y", "Z", "psi", "K"))
        # undo the shift K^n_t = K-hat^n_t - n t on the stored K_0 (by 0)
        # and increments (by n dt_i), each on its states
        shift = n * np.diff(grid.times, prepend=0.0)
        sol.K = K_n = NodeColumns([k - s for k, s in zip(K_n.columns, shift)],
                                  K_n.levels, K_n.scenario)
        tau[n] = stopping_times(sol, envelope, n, grid)
        record.level_reports.append(rep)
        record.level_y0.append(sol.y0())

        if prev is not None:
            stats = _overlap_stats(n, prev, sol, tau[n - 1], problem)
            record.overlaps.append(stats)
            tol = overlap_floor + 4.0 * stats.se_y_diff
            if stats.cells and abs(stats.mean_y_diff) > tol:
                raise SegmentMismatch(
                    f"levels {n - 1}/{n} disagree on the overlap: "
                    f"|mean dY| = {abs(stats.mean_y_diff):.3g} > {tol:.3g} "
                    f"(max |dY| = {stats.max_y_diff:.3g})")

        for i in range(n_steps):           # {tau_n <= i} is known at t_i
            claim = free[i] & Y_n.spread(n_steps, tau[n] <= i, i)
            if n == last:                  # the last level takes the rest
                record.uncovered_cells += (int(np.count_nonzero(free[i] & ~claim))
                                           * (n_paths // claim.size))
                claim = free[i]
            for glued, part, c in ((Y, Y_n, i), (Z, Z_n, i), (psi, psi_n, i),
                                   (K, K_n, i + 1)):
                glued[c][claim] = part.on_nodes(c)[claim]
            free[i] &= ~claim
        prev = sol
        if n == last:
            break
        if not any(f.any() for f in free):       # every cell is claimed
            last = n + 1

    Y[n_steps] = prev.nodes("Y").on_nodes(n_steps)   # xi, the same on every level

    meta = {"backend": backend.kind, "truncation_levels": levels[:last]}
    return SolutionGrid(grid, problem.marks, Y, Z, psi, K, prev.weights,
                        meta), record


def _overlap_stats(level: int, prev: SolutionGrid, cur: SolutionGrid,
                   tau_prev: np.ndarray, problem: Problem) -> OverlapStats:
    """Level differences on the overlap [tau_{n-1}, T], on the nodes: a
    level-i node counts as the leaf cells under it, and the mean weighs them
    by probability.  The levels are merged one at a time, as in Welford's
    update, so no level's differences outlive its turn."""
    n_steps = problem.grid.n_steps
    Y, K = cur.nodes("Y"), cur.nodes("K")
    Y_prev, K_prev = prev.nodes("Y"), prev.nodes("K")
    cells, u, ss, weighted, mass, mx, mdk = 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    for i in range(n_steps + 1):
        inside = Y.spread(n_steps, tau_prev <= i, i)
        d = Y.on_nodes(i, Y[i] - Y_prev[i])[inside]
        p = Y.scenario.node_view.level_probs(i)[inside]
        weighted, mass = weighted + float(p @ d), mass + float(p.sum())
        if d.size:        # each node counts as the k leaf cells under it
            k, centre = cur.n_paths // inside.size, float(d.mean())
            cells, step = cells + k * d.size, centre - u
            u += step * k * d.size / cells
            ss += (k * float(((d - centre)**2).sum())
                   + step**2 * k * d.size * (cells - k * d.size) / cells)
            mx = max(mx, float(np.max(np.abs(d))))
        if i < n_steps:
            dk = np.abs(K.on_nodes(i + 1) - K_prev.on_nodes(i + 1))[inside]
            mdk = max(mdk, float(np.max(dk, initial=0.0)))
    se = float(np.sqrt(ss / (cells - 1) / cells)) if cells > 1 else 0.0
    return OverlapStats(level, cells, weighted / mass if cells else 0.0, se, mx,
                        mdk)
