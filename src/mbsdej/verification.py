"""Executable checks of the solution properties.

Each check emits a :class:`CheckResult` with the measured statistic, the
tolerance it was held to, and a witness when it fails.  Most consume immutable
solver outputs on a shared scenario.  :func:`check_comparison`,
:func:`check_uniqueness` and :func:`oracle_compare` solve internally and run
every level of their ladder; :func:`lipschitz_remark_check` solves with the
schedule as given, early stop included.  Almost-sure statements are tested
pathwise at grid resolution; Monte Carlo quantities get 4-standard-error gates
and tree-exact quantities 1e-10 gates unless stated otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .bsde import CEBackend, SolutionGrid, solve_bsde
from .errors import HypothesisViolated, InvalidSelection
from .monotone import MonotoneFamily, _integrability_item
from .penalization import (PenalizationReport, PenalizationSchedule, Problem,
                           constraint_slack, solve_mbsde, solve_penalized)
from .scenario import PathEnsemble, ScenarioTree, TimeGrid

__all__ = [
    "CheckResult",
    "PropertyReport",
    "GraphSelection",
    "block_y0_se",
    "check_constraint",
    "check_skorokhod",
    "check_comparison",
    "check_uniqueness",
    "oracle_compare",
    "lipschitz_remark_check",
    "bounds_monitor",
    "lemma1_pairing_stat",
    "corollary1_ordering_stat",
]

_SELECTION_ATOL = 1e-9     # graph-membership slack of a selection
_MIDPOINT_OFFSET = 1e-6    # midpoint selection stays this far above a_t
_Y0_BLOCKS = 8             # path blocks of the batch-means Y_0 error
_ORACLE_BISECTIONS = 100   # per-node bisection steps of the tree oracle
_ORACLE_TOL_GAP = 2e-2     # last oracle level to projection value
_ORACLE_Z_GATE = 4.0       # MC level values against the tree oracle, in se
_LIPSCHITZ_RANGE = (-3.0, 3.0)   # where k is sampled for its Lipschitz bound
_BOUNDS_FACTOR = 10.0      # monitors may grow this much over the first level


@dataclass
class CheckResult:
    check: str
    passed: bool
    statistic: float | None = None
    tolerance: float | None = None
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {"check": self.check, "pass": self.passed,
                "statistic": self.statistic, "tolerance": self.tolerance,
                "witness": self.witness}


@dataclass
class PropertyReport:
    entries: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, entry: CheckResult) -> CheckResult:
        self.entries.append(entry)
        return entry

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {"pass": self.passed, "meta": self.meta,
                "checks": [e.to_dict() for e in self.entries]}

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)


# -- graph selections ---------------------------------------------------------


@dataclass
class GraphSelection:
    """Optional pair (alpha_t, beta_t) with values in Gr(k_t), per step."""

    name: str
    alpha: np.ndarray   # (n_paths or 1, N)
    beta: np.ndarray

    @classmethod
    def interior_constant(cls, family: MonotoneFamily, grid: TimeGrid,
                          x_star: float) -> "GraphSelection":
        n = grid.n_steps
        alpha = np.full((1, n), float(x_star))
        beta = np.array([[float(family.k(float(grid.times[i]), [x_star])[0])
                          for i in range(n)]])
        return cls(f"interior_constant({x_star:g})", alpha, beta)

    @classmethod
    def boundary_offset(cls, family: MonotoneFamily, grid: TimeGrid,
                        eps: float) -> "GraphSelection":
        n = grid.n_steps
        alpha = np.empty((1, n))
        beta = np.empty((1, n))
        for i, a in enumerate(family.barriers(grid.times[:-1])):
            if not np.isfinite(a):
                raise InvalidSelection("boundary strategy needs a finite barrier")
            alpha[0, i] = a + eps
            beta[0, i] = float(family.k(float(grid.times[i]), [a + eps])[0])
        return cls(f"boundary(a+{eps:g})", alpha, beta)

    @classmethod
    def midpoint(cls, family: MonotoneFamily, grid: TimeGrid,
                 sol1: SolutionGrid, sol2: SolutionGrid) -> "GraphSelection":
        """Lemma-1 style pairing (Y^1 + Y^2)/2 with boundary fallback."""
        n = grid.n_steps
        alpha = 0.5 * (sol1.Y[:, :n] + sol2.Y[:, :n])
        beta = np.empty_like(alpha)
        for i, a in enumerate(family.barriers(grid.times[:-1])):
            if np.isfinite(a):
                np.maximum(alpha[:, i], a + _MIDPOINT_OFFSET, out=alpha[:, i])
            beta[:, i] = family.k(float(grid.times[i]), alpha[:, i])
        return cls("midpoint", alpha, beta)

    def validate(self, family: MonotoneFamily, grid: TimeGrid) -> None:
        for i in range(grid.n_steps):
            ok = family.graph_contains_many(float(grid.times[i]),
                                            self.alpha[:, i], self.beta[:, i],
                                            atol=_SELECTION_ATOL)
            if not ok.all():
                p = int(np.argmin(ok))
                raise InvalidSelection(
                    f"selection '{self.name}' leaves the graph at step {i}, "
                    f"path {p}: ({self.alpha[p % self.alpha.shape[0], i]}, "
                    f"{self.beta[p % self.beta.shape[0], i]})")


# -- individual checks --------------------------------------------------------


def check_constraint(solution: SolutionGrid, family: MonotoneFamily,
                     tol: float) -> CheckResult:
    """Y_i >= a_{t_i} - tol on grid points before the terminal one."""
    slack, steps = constraint_slack(solution.Y, family, solution.grid)
    if not steps.size:
        return CheckResult("constraint", True, np.inf, tol)
    stat = float(slack.min())
    passed = stat >= -tol
    witness = None
    if not passed:
        p, i = np.unravel_index(int(np.argmin(slack)), slack.shape)
        witness = {"path": int(p), "step": int(steps[i]), "slack": stat}
    return CheckResult("constraint", passed, stat, tol, witness)


def check_skorokhod(solution: SolutionGrid, family: MonotoneFamily,
                    selections, tol: float) -> CheckResult:
    """All subinterval Riemann-Stieltjes sums of (Y-alpha)(dK + beta dt) <= tol.

    The measure statement is interval-wise, so negativity is checked on every
    contiguous grid span, not just [0, T].
    """
    grid = solution.grid
    n = grid.n_steps
    dt = grid.steps
    dK = np.diff(solution.K, axis=1)
    worst = -np.inf
    witness = None
    for sel in selections:
        sel.validate(family, grid)
        terms = (solution.Y[:, :n] - sel.alpha) * (dK + sel.beta * dt[None, :])
        prefix = np.zeros((terms.shape[0], n + 1))
        np.cumsum(terms, axis=1, out=prefix[:, 1:])
        run_min = np.minimum.accumulate(prefix[:, :-1], axis=1)
        spans = prefix[:, 1:] - run_min
        stat = float(spans.max())
        if stat > worst:
            worst = stat
            p, i = np.unravel_index(int(np.argmax(spans)), spans.shape)
            witness = {"selection": sel.name, "path": int(p),
                       "end_step": int(i) + 1, "sum": stat}
    passed = worst <= tol
    return CheckResult("skorokhod", passed, worst, tol,
                       None if passed else witness)


def _verify_comparison_hypotheses(p1: Problem, p2: Problem, scenario) -> None:
    grid = p1.grid
    state_T = scenario.state(grid.n_steps)
    xi1, xi2 = p1.terminal(state_T), p2.terminal(state_T)
    if np.any(xi1 > xi2 + 1e-10):
        j = int(np.argmax(xi1 - xi2))
        raise HypothesisViolated(
            f"terminal ordering fails: xi1={xi1[j]:.6g} > xi2={xi2[j]:.6g}")

    y_grid = (-2.0, -0.5, 0.0, 1.0, 3.0)
    z_grid = (-1.0, 0.0, 2.0)
    q_grid = (-1.0, 0.0, 1.0)
    for i in range(grid.n_steps):
        state = scenario.state(i)
        t = state.t
        ones = np.ones_like(state.w)
        for y in y_grid:
            for z in z_grid:
                for q in q_grid:
                    f1 = np.asarray(p1.driver.shape(t, state, y * ones,
                                                    z * ones, q * ones))
                    f2 = np.asarray(p2.driver.shape(t, state, y * ones,
                                                    z * ones, q * ones))
                    if np.any(f1 > f2 + 1e-10):
                        raise HypothesisViolated(
                            f"driver ordering fails at t={t:g}, "
                            f"(y,z,q)=({y},{z},{q})")

    if (p1.family is None) != (p2.family is None):
        raise HypothesisViolated("both problems must carry a family, or none")
    if p1.family is not None:
        for t, a1, a2 in zip(grid.times, p1.family.barriers(grid.times),
                             p2.family.barriers(grid.times)):
            if a1 > a2 + 1e-12:
                raise HypothesisViolated(f"barrier ordering fails at t={t:g}")
            base = a2 if np.isfinite(a2) else -3.0
            xs = base + np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 5.0])
            k1 = p1.family.k(float(t), xs)
            k2 = p2.family.k(float(t), xs)
            if np.any(k1 < k2 - 1e-10):
                j = int(np.argmin(k1 - k2))
                raise HypothesisViolated(
                    f"operator ordering fails at t={t:g}, x={xs[j]:g}")


def _solve_for_comparison(problem, scenario, backend, schedule):
    if problem.family is None:
        return solve_bsde(problem.driver, problem.terminal, scenario,
                          problem.grid, problem.marks, backend)
    # run the full level ladder: ordering statements pair solutions at the
    # same penalization level, so early stopping must not desynchronize them
    sol, _ = solve_mbsde(problem, replace(schedule, stop_tolerance=0.0),
                         scenario, backend)
    return sol


def check_comparison(problem1: Problem, problem2: Problem, scenario,
                     backend: CEBackend,
                     schedule: PenalizationSchedule = PenalizationSchedule(),
                     tol: float = 1e-8) -> CheckResult:
    """Ordered data must give ordered solutions on the shared scenario.

    The hypothesis triple (xi1 <= xi2, f1 <= f2, a1 <= a2 with k1 >= k2) is
    verified on samples first; a failure raises :class:`HypothesisViolated`.
    The pass gate is zero violating (path, step) cells for the exact tree
    backend and at most 1% for regression.
    """
    _verify_comparison_hypotheses(problem1, problem2, scenario)
    sol1 = _solve_for_comparison(problem1, scenario, backend, schedule)
    sol2 = _solve_for_comparison(problem2, scenario, backend, schedule)
    excess = sol1.Y - sol2.Y
    violating = excess > tol
    frac = float(violating.mean())
    limit = 0.0 if backend.kind == "tree" else 0.01
    passed = frac <= limit
    witness = None
    if not passed:
        p, i = np.unravel_index(int(np.argmax(excess)), excess.shape)
        witness = {"path": int(p), "step": int(i), "excess": float(excess[p, i]),
                   "fraction": frac}
    return CheckResult("comparison", passed, frac, limit, witness)


def block_y0_se(scenario, solve_fn) -> float:
    """Batch-means standard error of a Y_0 estimator.

    Re-runs the full solve on path blocks, so the estimate covers the
    regression-coefficient noise propagated through the backward recursion
    (which a per-path spread at the last step misses by a factor of a few).
    Exact scenarios return 0.
    """
    if not isinstance(scenario, PathEnsemble):
        return 0.0
    nb = min(_Y0_BLOCKS, scenario.n_paths)
    if nb < 2:
        return 0.0
    size = scenario.n_paths // nb
    y0s = [solve_fn(scenario.subset(slice(b * size, (b + 1) * size)))
           for b in range(nb)]
    return float(np.std(y0s, ddof=1) / np.sqrt(nb))


def check_uniqueness(problem: Problem, scenario_a, scenario_b,
                     backend_a: CEBackend, backend_b: CEBackend,
                     schedule: PenalizationSchedule = PenalizationSchedule(),
                     tol: float | None = None) -> CheckResult:
    """Two independent solves of the same problem must agree on Y_0.

    Default tolerance: 1e-10 for exact-vs-exact, otherwise 4 combined
    standard errors (batch means over path blocks).
    """
    sol_a = _solve_for_comparison(problem, scenario_a, backend_a, schedule)
    sol_b = _solve_for_comparison(problem, scenario_b, backend_b, schedule)
    diff = abs(sol_a.y0() - sol_b.y0())
    if tol is None:
        def y0_of(backend):
            return lambda sub: _solve_for_comparison(
                problem, sub, backend, schedule).y0()
        se = np.hypot(block_y0_se(scenario_a, y0_of(backend_a)),
                      block_y0_se(scenario_b, y0_of(backend_b)))
        tol = 1e-10 if se == 0.0 else 4.0 * se
    passed = diff <= tol
    witness = None if passed else {"y0_a": sol_a.y0(), "y0_b": sol_b.y0()}
    return CheckResult("uniqueness", passed, float(diff), float(tol), witness)


# -- independent tree oracle --------------------------------------------------


def _reflection_barrier(problem: Problem) -> float:
    """Barrier of a reflection-type family (k == 0 on [a, inf)), else raise."""
    family = problem.family
    if family is None:
        raise ValueError("oracle_compare needs a reflection family")
    grid = problem.grid
    a0 = family.boundary_at(0.0)[0]
    for t in grid.times:
        a, in_dom = family.boundary_at(float(t))
        if not np.isfinite(a) or abs(a - a0) > 1e-12 or not in_dom:
            raise ValueError("oracle_compare supports constant finite barriers")
        probe = family.k(float(t), a0 + np.array([0.0, 0.5, 2.0, 5.0]))
        if np.any(np.abs(probe) > 1e-12):
            raise ValueError("oracle_compare supports reflection families "
                             "(k identically 0 on the domain)")
    return float(a0)


def _oracle_implicit(c, fn):
    """Elementwise bisection for y - fn(y) = c, fn a contraction-ish map."""
    lo = np.array(c, dtype=float)
    hi = np.array(c, dtype=float)
    width = np.maximum(1.0, np.abs(c))
    for _ in range(80):
        glo = lo - fn(lo) - c
        ghi = hi - fn(hi) - c
        bad_lo = glo > 0
        bad_hi = ghi < 0
        if not (bad_lo.any() or bad_hi.any()):
            break
        lo = np.where(bad_lo, lo - width, lo)
        hi = np.where(bad_hi, hi + width, hi)
        width = width * 2.0
    for _ in range(_ORACLE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        gm = mid - fn(mid) - c
        lo = np.where(gm < 0, mid, lo)
        hi = np.where(gm < 0, hi, mid)
    return 0.5 * (lo + hi)


def _oracle_dp(tree: ScenarioTree, problem: Problem, barrier,
               level: int | None, project: bool) -> float:
    """Independent dynamic program on the tree (plain bisection per node).

    Per node, the conditional mean and the Brownian and jump projections
    z = E[V dW]/dt and psi_j = Cov(V, dN_j)/Var(dN_j) come from plain sums
    over the children.  The penalized step solves
    y = c + dt*(f(y) + level*(a - y)^+) and the projection step
    y = max(a, y*) with y* = c + dt*f(y*), its level -> infinity limit.
    """
    grid, marks = problem.grid, problem.marks
    n = grid.n_steps
    B = tree.branching
    qw = problem.driver.q_weights(marks)
    v = problem.terminal(tree.state(n))
    for i in reversed(range(n)):
        V = v.reshape(-1, B)
        p = tree.probs[i]
        dt = float(grid.steps[i])
        c = V @ p
        z = V @ (p * tree.dW[i]) / dt
        dn = tree.dN[i] - p @ tree.dN[i]                   # (B, m), centered
        psi = (V @ (p[:, None] * dn)) / (p @ dn**2)
        q = psi @ qw
        state = tree.state(i)

        def fval(y):
            return dt * np.asarray(problem.driver.shape(state.t, state, y, z, q))

        if project or level is None or barrier is None:
            v = _oracle_implicit(c, fval)
        else:
            v = _oracle_implicit(c, lambda y: fval(y)
                                 + dt * level * np.maximum(barrier - y, 0.0))
        if project and barrier is not None:
            v = np.maximum(barrier, v)
    return float(v[0])


def oracle_compare(problem: Problem, tree: ScenarioTree, levels,
                   mc_scenario=None,
                   mc_backend: CEBackend = CEBackend("regression")) -> CheckResult:
    """Brute-force tree oracle for the penalization convergence claims.

    Computes the exact penalized value per level by an independent dynamic
    program (plain per-node bisection, closed-form reflection penalty) and the
    constrained value by the projection recursion.  Passes iff the tree
    solver's Y_0 matches the oracle at every level within 1e-10, the level
    values increase to the projection value within 2e-2 and, when an MC
    scenario is supplied, the solver matches the tree per level within 4
    standard errors.
    """
    barrier = _reflection_barrier(problem)
    dp_values = [_oracle_dp(tree, problem, barrier, level=n, project=False)
                 for n in levels]
    projection = _oracle_dp(tree, problem, barrier, level=None, project=True)
    tree_backend = CEBackend(kind="tree")
    solver_gaps = [abs(solve_penalized(problem, n, tree, tree_backend).y0() - ref)
                   for n, ref in zip(levels, dp_values)]

    increases = np.diff(dp_values)
    monotone = bool(np.all(increases >= -1e-12))
    gap = abs(dp_values[-1] - projection)
    details = {"levels": list(map(int, levels)), "dp_values": dp_values,
               "solver_gaps": solver_gaps, "projection": projection,
               "final_gap": gap}

    mc_ok = True
    if mc_scenario is not None:
        mc_stats = []
        for n, ref in zip(levels, dp_values):
            sol = solve_penalized(problem, n, mc_scenario, mc_backend)
            se = block_y0_se(
                mc_scenario,
                lambda sub, _n=n: solve_penalized(problem, _n, sub,
                                                  mc_backend).y0())
            z = abs(sol.y0() - ref) / max(se, 1e-12)
            mc_stats.append({"level": int(n), "y0": sol.y0(), "z": z})
            mc_ok = mc_ok and z <= _ORACLE_Z_GATE
        details["mc"] = mc_stats

    passed = (max(solver_gaps) <= 1e-10 and monotone
              and gap <= _ORACLE_TOL_GAP and mc_ok)
    return CheckResult("oracle_compare", passed, gap, _ORACLE_TOL_GAP,
                       None if passed else details)


def lipschitz_remark_check(problem: Problem, schedule: PenalizationSchedule,
                           scenario, backend: CEBackend, tol: float) -> CheckResult:
    """Single-valued Lipschitz families reduce to a plain BSDE with driver f - k.

    Hypotheses (full-line domain, Lipschitz samples, square-integrable
    k(., 0)) are verified first and raise :class:`HypothesisViolated` on
    failure.
    """
    family = problem.family
    if family is None:
        raise ValueError("needs a problem with a family")
    grid = problem.grid
    if np.isfinite(family.barriers(grid.times)).any():
        raise HypothesisViolated("family must be defined on all of R")
    xs = np.linspace(*_LIPSCHITZ_RANGE, 41)
    lip = 0.0
    for t in grid.times:
        vals = family.k(float(t), xs)
        ratios = np.abs(np.diff(vals)) / np.diff(xs)
        if not np.all(np.isfinite(ratios)) or ratios.max() > 1e6:
            raise HypothesisViolated(f"Lipschitz sampling fails at t={t:g}")
        lip = max(lip, float(ratios.max()))
    item, _ = _integrability_item(
        "k0_sq", lambda s: float(family.k(s, [0.0])[0])**2, grid)
    if not item.passed:
        raise HypothesisViolated("integral of k(s,0)^2 looks divergent")

    base = problem.driver

    def shape(t, state, y, z, q, _b=base.shape, _f=family):
        return np.asarray(_b(t, state, y, z, q)) - _f.k(t, np.asarray(y, dtype=float))

    direct_driver = replace(base, shape=shape,
                            lipschitz_c=base.lipschitz_c + lip,
                            name=f"{base.name or 'driver'}-k")
    direct = solve_bsde(direct_driver, problem.terminal, scenario, grid,
                        problem.marks, backend)
    mb, _ = solve_mbsde(problem, schedule, scenario, backend)
    diff = abs(mb.y0() - direct.y0())
    passed = diff <= tol
    witness = None if passed else {"mbsde_y0": mb.y0(), "direct_y0": direct.y0()}
    return CheckResult("lipschitz_remark", passed, float(diff), tol, witness)


def bounds_monitor(report: PenalizationReport) -> CheckResult:
    """Uniform-in-level moment monitors must stay within 10x the first level."""
    worst_ratio = 0.0
    witness = None
    for name, series in report.monitor_series().items():
        first = series[0]
        for level, value in zip(report.levels, series):
            ratio = value / (first + 1e-12)
            if ratio > worst_ratio:
                worst_ratio = ratio
                witness = {"monitor": name, "level": int(level),
                           "value": value, "first": first}
    passed = worst_ratio <= _BOUNDS_FACTOR
    return CheckResult("bounds_monitor", passed, worst_ratio, _BOUNDS_FACTOR,
                       None if passed else witness)


# -- pairing statistics (Lemma-1 / Corollary-1 discrete forms) ----------------


def lemma1_pairing_stat(sol1: SolutionGrid, sol2: SolutionGrid) -> float:
    """Max over paths of sum_i (Y^1_i - Y^2_i)(dK^1_i - dK^2_i)."""
    n = sol1.grid.n_steps
    d_y = sol1.Y[:, :n] - sol2.Y[:, :n]
    d_k = np.diff(sol1.K, axis=1) - np.diff(sol2.K, axis=1)
    return float(np.max(np.sum(d_y * d_k, axis=1)))


def corollary1_ordering_stat(sol1: SolutionGrid, sol2: SolutionGrid) -> float:
    """Max over paths of sum_i 1{Y^1_i > Y^2_i}(dK^1_i - dK^2_i)."""
    n = sol1.grid.n_steps
    ind = (sol1.Y[:, :n] > sol2.Y[:, :n]).astype(float)
    d_k = np.diff(sol1.K, axis=1) - np.diff(sol2.K, axis=1)
    return float(np.max(np.sum(ind * d_k, axis=1)))
