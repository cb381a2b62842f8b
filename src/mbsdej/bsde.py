"""Discrete backward solver for Lipschitz BSDEs with jumps.

The scheme is implicit in y and explicit in (z, psi).  One backward recursion
serves both scenario types; only the conditional projection of Y_{i+1} onto
(E_i[Y_{i+1}], Z_i, psi_i) depends on the backend: exact weighted sums over
the children of each node of a :class:`~mbsdej.scenario.ScenarioTree`, or
ridge-regularized polynomial least squares on a
:class:`~mbsdej.scenario.PathEnsemble` (Longstaff-Schwartz style).  The tree
recursion runs on node arrays and spreads each step's values onto the leaf
paths only when storing them.  An optional structured penalty term
-k_n(t, y) is integrated exactly through the resolvent identity, which keeps
the implicit step stable no matter how large the penalization level is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ContractionFailure, RegressionRankDeficiency
from .monotone import PenalizedOperator, resolvent_ordinate
from .scenario import (ForwardState, MarkSpace, PathEnsemble, ScenarioTree,
                       TimeGrid)

__all__ = [
    "ForwardState",
    "DriverSpec",
    "TerminalSpec",
    "CEBackend",
    "SolutionGrid",
    "ResidualReport",
    "solve_bsde",
    "condexp",
    "residual_check",
]


@dataclass(frozen=True)
class DriverSpec:
    """Structured driver f(t, x, y, z, psi) = h(t, x, y, z, q).

    psi enters only through the scalar aggregate
    q = sum_j psi(e_j) gamma_j lambda_j with gamma_j in [-1, vartheta_j] and h
    nondecreasing in q, which realizes the jump-monotonicity assumption and
    keeps the comparison theorem applicable.
    """

    shape: Callable
    gamma: np.ndarray
    lipschitz_c: float
    monotone_in_q: bool = True
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gamma",
                           np.atleast_1d(np.asarray(self.gamma, dtype=float)))
        if not self.monotone_in_q:
            raise ValueError("drivers must be nondecreasing in the jump aggregate")
        if self.lipschitz_c < 0:
            raise ValueError("lipschitz_c must be nonnegative")

    def check_against(self, marks: MarkSpace) -> None:
        if self.gamma.shape != (marks.n_marks,):
            raise ValueError("gamma needs one weight per mark")
        if np.any(self.gamma < -1.0):
            raise ValueError("gamma weights must be >= -1")
        if np.any(np.abs(self.gamma) > marks.vartheta + 1e-12):
            raise ValueError("|gamma_j| must not exceed vartheta_j")

    def q_weights(self, marks: MarkSpace) -> np.ndarray:
        return self.gamma * marks.intensities

    def q_of(self, psi: np.ndarray, marks: MarkSpace) -> np.ndarray:
        return psi @ self.q_weights(marks)

    def f(self, t, state, y, z, psi, marks) -> np.ndarray:
        """Full driver value from the per-mark control psi."""
        return self.shape(t, state, y, z, self.q_of(psi, marks))

    def shifted(self, amount: float) -> "DriverSpec":
        """Driver h - amount, used by the truncation-concatenation loop."""
        base = self.shape

        def shape(t, state, y, z, q, _b=base, _a=float(amount)):
            return _b(t, state, y, z, q) - _a

        return replace(self, shape=shape,
                       name=f"{self.name or 'driver'}-{amount:g}")


@dataclass(frozen=True)
class TerminalSpec:
    """Terminal condition xi as a function of the terminal forward state."""

    evaluator: Callable[[ForwardState], np.ndarray]
    lower_bound_check: bool = False
    name: str = ""

    def __call__(self, state: ForwardState) -> np.ndarray:
        xi = np.asarray(self.evaluator(state), dtype=float)
        xi = np.broadcast_to(xi, state.w.shape).astype(float)
        if not np.all(np.isfinite(xi)):
            raise ValueError("terminal condition produced non-finite values")
        return xi


@dataclass(frozen=True)
class CEBackend:
    """Conditional-expectation backend spec."""

    kind: str = "tree"
    degree: int = 2
    ridge: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("tree", "regression"):
            raise ValueError("backend kind must be 'tree' or 'regression'")
        if self.degree < 0 or self.ridge < 0:
            raise ValueError("degree and ridge must be nonnegative")


@dataclass
class SolutionGrid:
    """Discrete (Y, Z, psi, K) per path per grid time.

    Y and K have one column per grid point; Z and psi one column per step.
    ``weights`` are the path probabilities (uniform for ensembles, leaf
    probabilities for trees).
    """

    grid: TimeGrid
    marks: MarkSpace
    Y: np.ndarray
    Z: np.ndarray
    psi: np.ndarray
    K: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.Y.shape[0]

    def y0(self) -> float:
        return float(self.weights @ self.Y[:, 0])

    def k_terminal_mean(self) -> float:
        return float(self.weights @ self.K[:, -1])

    def validate(self, tol: float = 1e-12) -> None:
        if not (np.all(np.isfinite(self.Y)) and np.all(np.isfinite(self.Z))
                and np.all(np.isfinite(self.psi)) and np.all(np.isfinite(self.K))):
            raise ValueError("solution contains non-finite entries")
        if np.any(np.abs(self.K[:, 0]) > tol):
            raise ValueError("K must start at 0")
        if np.any(np.diff(self.K, axis=1) < -tol):
            raise ValueError("K must be nondecreasing per path")

    def write_csv(self, path) -> None:
        """One row per (path, step); terminal row pads controls with 0."""
        m = self.marks.n_marks
        n_steps = self.grid.n_steps
        with open(path, "w", newline="") as fh:
            cols = ["path", "step", "Y", "Z"] + \
                [f"psi_{j + 1}" for j in range(m)] + ["K"]
            fh.write(",".join(cols) + "\n")
            for p in range(self.n_paths):
                for i in range(n_steps + 1):
                    z = self.Z[p, i] if i < n_steps else 0.0
                    psis = self.psi[p, i] if i < n_steps else np.zeros(m)
                    cells = [str(p), str(i), f"{self.Y[p, i]:.17g}", f"{z:.17g}"]
                    cells += [f"{v:.17g}" for v in psis]
                    cells.append(f"{self.K[p, i]:.17g}")
                    fh.write(",".join(cells) + "\n")


# -- implicit step -----------------------------------------------------------

_MAX_SUBSTEPS = 4096  # sub-steps one grid step may be cut into
_FP_RTOL = 1e-13      # relative sup-norm change that ends the fixed-point sweeps
_FP_SWEEPS = 200      # sweeps per sub-step before ContractionFailure


def _implicit_step(driver, t, state, target, z, q, dt, penalty):
    """Solve y = target + dt*(h(t,x,y,z,q) - k_n(t,y)) vectorized over paths.

    The penalty is resolved exactly per fixed-point sweep via the identity
    (I + dt*k_n)^{-1}(w) = w - dt*k_{n'}(w) with n' = n/(1 + dt*n); only the
    driver's own y-dependence iterates, with contraction factor dt*L < 1
    enforced by automatic sub-stepping.  A sweep whose w is bit-equal to the
    previous sweep's ends the iteration without another resolvent call, so a
    y-independent driver costs one resolvent call per sub-step.

    Returns the solved y, the integral of k_n(t, y) over the step (zero
    without a penalty) and the number of sub-steps.
    """
    L = driver.lipschitz_c
    nsub = 1
    if dt * L >= 0.9:
        nsub = math.ceil(dt * L / 0.45)
        if nsub > _MAX_SUBSTEPS:
            raise ContractionFailure(
                f"dt*L = {dt * L:.3g} needs {nsub} substeps > budget {_MAX_SUBSTEPS}")
    dts = dt / nsub
    slope = None
    if penalty is not None:
        n = float(penalty.level)
        slope = n / (1.0 + dts * n)

    y = np.array(target, dtype=float, copy=True)
    pen_integral = np.zeros_like(y)
    for _ in range(nsub):
        right = y
        yy = np.array(right, copy=True)
        w_prev = None
        for _ in range(_FP_SWEEPS):
            w = right + dts * np.asarray(driver.shape(t, state, yy, z, q), dtype=float)
            w = np.broadcast_to(w, yy.shape).astype(float)
            if w_prev is not None and np.array_equal(w, w_prev):
                break   # the sweep would repeat the last one: yy is its fixed point
            w_prev = w
            y_new = w
            if penalty is not None:
                y_new = w - dts * resolvent_ordinate(penalty.family, t, w, slope)
            change = np.max(np.abs(y_new - yy))
            yy = y_new
            if change <= _FP_RTOL * (1.0 + np.max(np.abs(yy))):
                break
        else:
            raise ContractionFailure("implicit step did not converge")
        if penalty is not None:
            pen_integral += w - yy   # = dts * k_n(t, y*)
        y = yy
    return y, pen_integral, nsub


# -- regression machinery ----------------------------------------------------


def _monomial_exponents(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    exps = [()]
    for _ in range(n_vars):
        exps = [e + (d,) for e in exps for d in range(degree + 1)]
    return [e for e in exps if sum(e) <= degree]


def basis_size(n_vars: int, degree: int) -> int:
    return math.comb(n_vars + degree, degree)


def _design_matrix(w: np.ndarray, counts: np.ndarray, degree: int) -> np.ndarray:
    cols = [w] + [counts[:, j] for j in range(counts.shape[1])]
    exps = _monomial_exponents(len(cols), degree)
    A = np.empty((w.size, len(exps)))
    for k, e in enumerate(exps):
        col = np.ones_like(w)
        for v, d in zip(cols, e):
            if d:
                col = col * v**d
        A[:, k] = col
    return A


def _ridge_predict(A: np.ndarray, targets: np.ndarray, ridge: float) -> np.ndarray:
    """Fitted values of a ridge LS projection, one column per target."""
    scale = np.sqrt(np.mean(A**2, axis=0))
    scale[scale == 0] = 1.0
    As = A / scale
    G = As.T @ As
    lam = ridge * np.trace(G) / G.shape[0]
    M = G + lam * np.eye(G.shape[0])
    if np.linalg.cond(M) > 1e14:
        raise RegressionRankDeficiency(
            "normal equations numerically singular; raise ridge or shrink basis")
    try:
        coef = np.linalg.solve(M, As.T @ targets)
    except np.linalg.LinAlgError as exc:
        raise RegressionRankDeficiency(str(exc)) from exc
    return As @ coef


# -- conditional projections -------------------------------------------------


def _tree_projection(tree: ScenarioTree, i: int, y_next: np.ndarray):
    """Exact (E_i[Y_{i+1}], Z_i, psi_i) per level-i node from level-(i+1) values."""
    V = y_next.reshape(-1, tree.branching)
    p = tree.probs[i]
    ey = tree.condexp_level(i, y_next)
    z = V @ (p * tree.dW[i]) / tree.grid.steps[i]
    if tree.marks.n_marks:
        centered = tree.dN_tilde[i] - tree.bias[i]
        psi = (V @ (p[:, None] * centered)) / tree.var_dnt[i]
    else:
        psi = np.zeros((ey.size, 0))
    return ey, z, psi


def _regression_projection(ensemble: PathEnsemble, backend: CEBackend, i: int,
                           y_next: np.ndarray):
    """Ridge LS (E_i[Y_{i+1}], Z_i, psi_i) per path on the time-i basis."""
    n = ensemble.n_paths
    m = ensemble.marks.n_marks
    state = ensemble.state(i)
    A = _design_matrix(state.w, state.counts, backend.degree)
    targets = np.empty((n, 2 + m))
    targets[:, 0] = y_next
    targets[:, 1] = y_next * ensemble.dW[:, i]
    for j in range(m):
        targets[:, 2 + j] = y_next * ensemble.dN_tilde[:, i, j]
    preds = _ridge_predict(A, targets, backend.ridge)
    dt = ensemble.grid.steps[i]
    psi = preds[:, 2:] / (dt * ensemble.marks.intensities) if m else np.zeros((n, 0))
    return preds[:, 0], preds[:, 1] / dt, psi


def _projection(scenario, backend: CEBackend) -> Callable:
    """The backend's ``project(i, y_next) -> (E_i[y_next], Z_i, psi_i)``.

    Raises ValueError when the backend kind does not match the scenario type,
    or when an ensemble has fewer than 10 paths per regression basis function.
    """
    if isinstance(scenario, ScenarioTree) and backend.kind == "tree":
        return partial(_tree_projection, scenario)
    if isinstance(scenario, PathEnsemble) and backend.kind == "regression":
        p_basis = basis_size(1 + scenario.marks.n_marks, backend.degree)
        if scenario.n_paths < 10 * p_basis:
            raise ValueError(f"regression needs n_paths >= 10 x basis size "
                             f"({10 * p_basis}), got {scenario.n_paths}")
        return partial(_regression_projection, scenario, backend)
    raise ValueError("backend kind does not match the scenario type "
                     f"({backend.kind} vs {type(scenario).__name__})")


# -- main solver --------------------------------------------------------------


def solve_bsde(driver: DriverSpec, terminal: TerminalSpec, scenario,
               grid: TimeGrid, marks: MarkSpace, backend: CEBackend,
               penalty: Optional[PenalizedOperator] = None) -> SolutionGrid:
    """Backward recursion for the discrete BSDE with jumps.

    Y_N = xi; then per step the backend projects Y_{i+1} onto E_i[Y_{i+1}]
    and onto the Brownian and compensated jump increments (Z_i, psi_i), and
    Y_i solves the implicit-in-y equation with the driver (and, when given,
    the structured penalty -k_n, whose integral fills K by the left-endpoint
    rule).  Without a penalty K is identically zero.
    """
    driver.check_against(marks)
    project = _projection(scenario, backend)
    n_steps = grid.n_steps
    qw = driver.q_weights(marks)
    weights = scenario.weights
    n = weights.size

    Y = np.empty((n, n_steps + 1))
    Z = np.empty((n, n_steps))
    psi = np.empty((n, n_steps, marks.n_marks))
    y = terminal(scenario.state(n_steps))
    Y[:, n_steps] = scenario.expand_to_leaves(n_steps, y)
    pen = [None] * n_steps
    max_substeps = 1

    for i in reversed(range(n_steps)):
        ey, z, psi_i = project(i, y)
        y, pen[i], nsub = _implicit_step(driver, float(grid.times[i]),
                                         scenario.state(i), ey, z, psi_i @ qw,
                                         grid.steps[i], penalty)
        max_substeps = max(max_substeps, nsub)
        Y[:, i] = scenario.expand_to_leaves(i, y)
        Z[:, i] = scenario.expand_to_leaves(i, z)
        psi[:, i, :] = scenario.expand_to_leaves(i, psi_i)

    K = np.empty((n, n_steps + 1))
    k = np.zeros(n)               # K_{t_i} per path, K_0 = +0
    K[:, 0] = k
    for i in range(n_steps):
        k -= scenario.expand_to_leaves(i, pen[i])
        K[:, i + 1] = k
    meta = {"backend": backend.kind, "max_substeps": max_substeps,
            "penalty_level": None if penalty is None else penalty.level,
            "seed": getattr(scenario, "seed", None)}
    return SolutionGrid(grid, marks, Y, Z, psi, K, weights, meta)


def condexp(backend: CEBackend, scenario, i: int, values: np.ndarray) -> np.ndarray:
    """E[values | F_{t_i}] under the chosen backend, returned per path.

    Tree: exact probability-weighted sums over the subtree below each time-i
    node.  Regression: ridge LS projection onto the polynomial basis in the
    time-i forward state.
    """
    _projection(scenario, backend)   # rejects a backend/scenario mismatch
    values = np.asarray(values, dtype=float)
    if backend.kind == "tree":
        return scenario.condexp_leaves(i, values)
    state = scenario.state(i)
    A = _design_matrix(state.w, state.counts, backend.degree)
    return _ridge_predict(A, values[:, None], backend.ridge)[:, 0]


# -- residuals ----------------------------------------------------------------


@dataclass
class ResidualReport:
    """Per-step statistics of the discrete dynamics residual."""

    mean_abs: np.ndarray          # (N,) weighted mean |residual|
    max_abs: np.ndarray           # (N,)
    cond_mean_abs: np.ndarray     # (N,) worst conditional-mean residual
    kind: str                     # "tree" (exact) or "ensemble" (statistical)
    cond_mean_z: np.ndarray | None = None  # (N,) z-scores, ensemble only
    # (N,) worst |E_i[resid dW]| and |E_i[resid (dN_j - p_j)]|, tree only
    cond_cov_abs: np.ndarray | None = None

    def passed(self, tol: float = 1e-10, z_gate: float = 4.0) -> bool:
        if self.kind == "tree":
            return bool(np.all(self.cond_mean_abs <= tol)
                        and np.all(self.cond_cov_abs <= tol))
        return bool(np.all(np.abs(self.cond_mean_z) <= z_gate))


def residual_check(solution: SolutionGrid, driver: DriverSpec, scenario,
                   grid: TimeGrid, marks: MarkSpace) -> ResidualReport:
    """Check the discretized dynamics step by step.

    The jump increments are centered with the scenario's own compensator (the
    tree's two-point branch mean, or lambda*dt for a Poisson ensemble), so
    that on the exact tree the conditional-mean residual of a solver output is
    zero to machine precision.  On the tree the residual must also have zero
    conditional covariance with each step increment: that is what pins Z, psi.
    """
    n_steps = grid.n_steps
    m = marks.n_marks
    if isinstance(scenario, ScenarioTree):
        dW, dN = scenario.leaf_increments()
        # center with the tree's exact per-step jump probabilities
        pj = np.array([scenario.probs[i] @ scenario.dN[i] for i in range(n_steps)])
        centered = dN - pj[None, :, :]
        kind = "tree"
    else:
        dW = scenario.dW
        centered = scenario.dN_tilde
        kind = "ensemble"

    w = solution.weights
    mean_abs = np.empty(n_steps)
    max_abs = np.empty(n_steps)
    cond_mean = np.empty(n_steps)
    cond_cov = np.empty(n_steps)
    zscores = np.empty(n_steps)

    for i in range(n_steps):
        dt = grid.steps[i]
        node_state = scenario.state(i)
        state = replace(node_state,
                        w=scenario.expand_to_leaves(i, node_state.w),
                        counts=scenario.expand_to_leaves(i, node_state.counts))
        fval = driver.f(state.t, state, solution.Y[:, i], solution.Z[:, i],
                        solution.psi[:, i, :], marks)
        jump_part = np.einsum("pj,pj->p", solution.psi[:, i, :], centered[:, i, :]) \
            if m else 0.0
        resid = solution.Y[:, i] - (
            solution.Y[:, i + 1] + dt * np.asarray(fval)
            - solution.Z[:, i] * dW[:, i] - jump_part
            + (solution.K[:, i + 1] - solution.K[:, i]))
        mean_abs[i] = float(w @ np.abs(resid))
        max_abs[i] = float(np.max(np.abs(resid)))
        if kind == "tree":
            cond_mean[i] = float(np.max(np.abs(scenario.condexp_nodes(i, resid))))
            # E_i[resid * increment] from the conditional means at the
            # step-i children, weighted by the branch increments
            p = scenario.probs[i]
            child = scenario.condexp_nodes(i + 1, resid).reshape(
                -1, scenario.branching)
            cov = child @ np.column_stack(
                [p * scenario.dW[i], p[:, None] * (scenario.dN[i] - pj[i])])
            cond_cov[i] = float(np.max(np.abs(cov)))
        else:
            # The per-path residuals share the fitted regression functions, so
            # the naive std(resid)/sqrt(n) understates the fluctuation of the
            # mean; gauge it against the projected martingale increments.
            mu = float(resid.mean())
            mart = solution.Z[:, i] * dW[:, i] + jump_part
            scale = max(float(resid.std(ddof=1)), float(np.std(mart, ddof=1))) \
                if resid.size > 1 else 0.0
            se = scale / np.sqrt(resid.size)
            cond_mean[i] = abs(mu)
            zscores[i] = mu / se if se > 0 else 0.0

    tree = kind == "tree"
    return ResidualReport(mean_abs, max_abs, cond_mean, kind,
                          None if tree else zscores, cond_cov if tree else None)
