"""Executable checks of the solution properties.

Each check emits a :class:`CheckResult` with the measured statistic, the
tolerance it was held to, and a witness when it fails.  Checks read solver
outputs on a shared scenario; only :func:`oracle_compare` and
:func:`lipschitz_remark_check` solve, as they compare the solver with an
independent computation.  Almost-sure statements are tested pathwise at grid
resolution, on the scenario's states: a cell count weighs each state by its
leaf paths, a largest sum over paths is a forward recursion over the states.
Monte Carlo quantities get 4-standard-error gates and tree-exact quantities
1e-10 gates unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import artifacts
from .bsde import CEBackend, NodeColumns, SolutionGrid, solve_bsde
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
# (y, z, q) samples of the driver ordering, y slowest and q fastest
_YZQ = [(y, z, q) for y in (-2.0, -0.5, 0.0, 1.0, 3.0)
        for z in (-1.0, 0.0, 2.0) for q in (-1.0, 0.0, 1.0)]


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
        artifacts.write_json(path, self.to_dict())


# -- graph selections ---------------------------------------------------------


@dataclass
class GraphSelection:
    """Optional pair (alpha_t, beta_t) with values in Gr(k_t), per step:
    ``alpha[i]`` holds one value, or one per level-i state of ``states``, the
    scenario a midpoint was formed on and the only one it is checked on."""

    name: str
    alpha: list
    beta: list
    states: object = field(default=None, init=False, repr=False)

    @classmethod
    def interior_constant(cls, family: MonotoneFamily, grid: TimeGrid,
                          x_star: float) -> "GraphSelection":
        alpha = [np.array([float(x_star)])] * grid.n_steps
        beta = [family.k(float(t), a) for t, a in zip(grid.times, alpha)]
        return cls(f"interior_constant({x_star:g})", alpha, beta)

    @classmethod
    def boundary_offset(cls, family: MonotoneFamily, grid: TimeGrid,
                        eps: float) -> "GraphSelection":
        alpha, beta = [], []
        for t, a in zip(grid.times, family.barriers(grid.times[:-1])):
            if not np.isfinite(a):
                raise InvalidSelection("boundary strategy needs a finite barrier")
            alpha.append(np.array([a + eps]))
            beta.append(family.k(float(t), alpha[-1]))
        return cls(f"boundary(a+{eps:g})", alpha, beta)

    @classmethod
    def midpoint(cls, family: MonotoneFamily, grid: TimeGrid,
                 sol1: SolutionGrid, sol2: SolutionGrid) -> "GraphSelection":
        """Lemma-1 style pairing (Y^1 + Y^2)/2 with boundary fallback, on
        the states of Y."""
        Y1, Y2 = _paired(sol1, sol2, "Y")
        alpha, beta = [], []
        for i, a in enumerate(family.barriers(grid.times[:-1])):
            mid = 0.5 * (Y1[i] + Y2[i])
            if np.isfinite(a):
                np.maximum(mid, a + _MIDPOINT_OFFSET, out=mid)
            alpha.append(mid)
            beta.append(family.k(float(grid.times[i]), mid))
        selection = cls("midpoint", alpha, beta)
        selection.states = Y1.scenario
        return selection

    def validate(self, family: MonotoneFamily, grid: TimeGrid) -> None:
        for i in range(grid.n_steps):
            alpha, beta = self.alpha[i], self.beta[i]
            ok = family.graph_contains_many(float(grid.times[i]), alpha, beta,
                                            atol=_SELECTION_ATOL)
            if not ok.all():
                k = int(np.argmin(ok))
                raise InvalidSelection(
                    f"selection '{self.name}' leaves the graph at step {i}, "
                    f"state {k}: ({alpha[k % alpha.size]}, {beta[k % beta.size]})")


# -- individual checks --------------------------------------------------------


def _paired(sol1: SolutionGrid, sol2: SolutionGrid, name: str):
    """Component ``name`` of two solutions on one scenario, else ValueError."""
    pair = getattr(sol1, name), getattr(sol2, name)
    if pair[0].scenario is not pair[1].scenario:
        raise ValueError(f"{name} of the two solutions is on different scenarios")
    return pair


def _worst_cell(columns, paths) -> tuple[float, int, int]:
    """(value, column, path) of the largest entry, ``paths[c]`` naming each
    entry's leaf path; ties go to the smallest path, then column, as in an
    argmax over the (path, column) leaf array."""
    tops = [float(np.max(col)) for col in columns]
    top = max(tops) + 0.0       # whichever zero max() met first, report 0.0
    path, c = min((int(np.min(p[col == t])), c) for c, (col, p, t)
                  in enumerate(zip(columns, paths, tops)) if t == top)
    return top, c, path


def _path_sums(part: NodeColumns, terms, reset: bool) -> tuple[list, list]:
    """(sums, paths): per state of each column of ``part``, the largest sum
    of ``terms`` along a history ending there and its smallest leaf path.
    Sums start at column 0, or with ``reset`` wherever the largest does
    (Kadane: a sum so far that is not positive is dropped)."""
    scenario, levels = part.scenario, part.levels
    sums, leads = [terms[0]], [scenario.paths(levels[0])[1]]
    for c in range(1, len(terms)):
        carry, lead = scenario.push_max(levels[c - 1], sums[-1], leads[-1])
        if reset:      # a restart may take any path: the state's first
            lead = np.where(carry > 0.0, lead, scenario.paths(levels[c])[1])
            carry = np.maximum(carry, 0.0)
        sums.append(terms[c] + carry)
        leads.append(lead)
    return sums, leads


def check_constraint(solution: SolutionGrid, family: MonotoneFamily,
                     tol: float) -> CheckResult:
    """Y_i >= a_{t_i} - tol on grid points before the terminal one."""
    slack = constraint_slack(solution, family)
    if not slack:
        return CheckResult("constraint", True, np.inf, tol)
    Y = solution.Y
    low, c, path = _worst_cell([-s for s in slack.values()],
                               [Y.scenario.paths(Y.levels[i])[1] for i in slack])
    stat = -low + 0.0       # a zero slack reads 0.0, not -0.0
    passed = stat >= -tol
    witness = None if passed else {"path": path, "step": list(slack)[c],
                                   "slack": stat}
    return CheckResult("constraint", passed, stat, tol, witness)


def check_skorokhod(solution: SolutionGrid, family: MonotoneFamily,
                    selections, tol: float) -> CheckResult:
    """All subinterval Riemann-Stieltjes sums of (Y-alpha)(dK + beta dt) <= tol.

    The measure statement is interval-wise, so negativity is checked on every
    contiguous grid span, not just [0, T]: the largest span sum that ends in
    each state comes from Kadane's recursion over the states.  A selection
    formed on other states (a midpoint of solutions on another scenario)
    raises ValueError.
    """
    grid = solution.grid
    worst = -np.inf
    witness = None
    Y, K = solution.Y, solution.K
    for sel in selections:
        sel.validate(family, grid)
        if sel.states is not None and sel.states is not Y.scenario:
            raise ValueError(f"selection '{sel.name}' is on another scenario")
        terms = [(Y[i] - a) * (K[i + 1] + b * dt) for i, (a, b, dt)
                 in enumerate(zip(sel.alpha, sel.beta, grid.steps))]
        stat, i, path = _worst_cell(*_path_sums(Y, terms, reset=True))
        if stat > worst:
            worst = stat
            witness = {"selection": sel.name, "path": path,
                       "end_step": i + 1, "sum": stat}
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

    for i in range(grid.n_steps):
        state = scenario.state(i)
        y, z, q = (np.array(c)[:, None] * np.ones_like(state.w)
                   for c in zip(*_YZQ))
        f1, f2 = (np.asarray(p.driver.shape(state.t, state, y, z, q))
                  for p in (p1, p2))
        bad = np.broadcast_to(f1 > f2 + 1e-10, y.shape).any(axis=1)
        if bad.any():
            raise HypothesisViolated(
                f"driver ordering fails at t={state.t:g}, "
                "(y,z,q)=({},{},{})".format(*_YZQ[int(np.argmax(bad))]))

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


def check_comparison(problem1: Problem, sol1: SolutionGrid, problem2: Problem,
                     sol2: SolutionGrid, scenario,
                     tol: float = 1e-8) -> CheckResult:
    """Ordered data must give ordered solutions on the shared scenario.

    The hypothesis triple (xi1 <= xi2, f1 <= f2, a1 <= a2 with k1 >= k2) is
    verified on samples first; a failure raises :class:`HypothesisViolated`
    before a solution is read.  Penalized solutions must share their levels
    (full ladders).  The pass gate is zero violating (path, step) cells on an
    exact tree and at most 1% on an ensemble.  The excess is read on the
    states of Y, each counting as the leaf paths through it.
    """
    _verify_comparison_hypotheses(problem1, problem2, scenario)
    Y1, Y2 = _paired(sol1, sol2, "Y")
    excess = [a - b for a, b in zip(Y1.columns, Y2.columns)]
    paths = [Y1.scenario.paths(level) for level in Y1.levels]
    violating = sum(int(count[e > tol].sum())
                    for (count, _), e in zip(paths, excess))
    frac = violating / (sol1.n_paths * len(excess))
    limit = 0.0 if isinstance(scenario, ScenarioTree) else 0.01
    passed = frac <= limit
    witness = None
    if not passed:
        top, i, path = _worst_cell(excess, [first for _, first in paths])
        witness = {"path": path, "step": i, "excess": top, "fraction": frac}
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


def check_uniqueness(sol_a: SolutionGrid, sol_b: SolutionGrid,
                     se: float) -> CheckResult:
    """Two independent solutions of the same problem must agree on Y_0 within
    4 combined standard errors ``se`` (:func:`block_y0_se`), or within 1e-10
    when ``se`` is 0 (exact solves)."""
    diff = abs(sol_a.y0() - sol_b.y0())
    tol = 1e-10 if se == 0.0 else 4.0 * float(se)
    passed = diff <= tol
    witness = None if passed else {"y0_a": sol_a.y0(), "y0_b": sol_b.y0()}
    return CheckResult("uniqueness", passed, float(diff), tol, witness)


# -- independent tree oracle --------------------------------------------------


def _reflection_barrier(problem: Problem) -> float:
    """Barrier of a reflection-type family (k == 0 on [a, inf)), else raise."""
    family = problem.family
    if family is None:
        raise ValueError("oracle_compare needs a reflection family")
    grid = problem.grid
    barriers = family.barriers(grid.times)
    a0 = barriers[0]
    for t, a in zip(grid.times, barriers):
        if not np.isfinite(a) or abs(a - a0) > 1e-12 or not family.closed:
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

    Per node of the tree's node view (no recombination), the conditional
    mean and the Brownian and jump projections z = E[V dW]/dt and
    psi_j = Cov(V, dN_j)/Var(dN_j) come from plain sums over the children.
    The penalized step solves
    y = c + dt*(f(y) + level*(a - y)^+) and the projection step
    y = max(a, y*) with y* = c + dt*f(y*), its level -> infinity limit.
    """
    grid, marks = problem.grid, problem.marks
    n = grid.n_steps
    B = tree.branching
    tree = tree.node_view
    v = problem.terminal(tree.state(n))
    for i in reversed(range(n)):
        V = v.reshape(-1, B)
        p = tree.probs[i]
        dt = float(grid.steps[i])
        c = V @ p
        z = V @ (p * tree.dW[i]) / dt
        dn = tree.dN[i] - p @ tree.dN[i]                   # (B, m), centered
        psi = (V @ (p[:, None] * dn)) / (p @ dn**2)
        q = problem.driver.q_of(psi, marks)
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


def _pairing_stat(sol1: SolutionGrid, sol2: SolutionGrid, weight) -> float:
    """Max over paths of sum_i weight(Y^1_i, Y^2_i)(dK^1_i - dK^2_i), forward
    over the states."""
    (Y1, Y2), (K1, K2) = _paired(sol1, sol2, "Y"), _paired(sol1, sol2, "K")
    terms = [weight(Y1[i], Y2[i]) * (K1[i + 1] - K2[i + 1])
             for i in range(sol1.grid.n_steps)]
    return float(np.max(_path_sums(Y1, terms, reset=False)[0][-1]))


def lemma1_pairing_stat(sol1: SolutionGrid, sol2: SolutionGrid) -> float:
    """Max over paths of sum_i (Y^1_i - Y^2_i)(dK^1_i - dK^2_i)."""
    return _pairing_stat(sol1, sol2, np.subtract)


def corollary1_ordering_stat(sol1: SolutionGrid, sol2: SolutionGrid) -> float:
    """Max over paths of sum_i 1{Y^1_i > Y^2_i}(dK^1_i - dK^2_i)."""
    return _pairing_stat(sol1, sol2, lambda y1, y2: (y1 > y2).astype(float))
