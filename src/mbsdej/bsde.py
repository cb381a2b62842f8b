"""Discrete backward solver for Lipschitz BSDEs with jumps.

The scheme is implicit in y and explicit in (z, psi).  One backward recursion
serves both scenario types; only the conditional projection of Y_{i+1} onto
(E_i[Y_{i+1}], Z_i, psi_i) depends on the backend: exact weighted sums over
the children of each node of a :class:`~mbsdej.scenario.ScenarioTree`, or
polynomial least squares with a fixed small ridge on a
:class:`~mbsdej.scenario.PathEnsemble` (Longstaff-Schwartz style).  The
recursion runs on the scenario's states: a level-i quantity is one value per
level-i state of a tree (a lattice point of a recombining tree), or one per
path of an ensemble.  Y, Z, psi and the penalty increments of K are stored
that way, in :class:`NodeColumns`, whose columns are all on the states of
one scenario.  K's moments and the verification checks are recursions and
counts on those states; only the truncation glue, which follows the paths,
gathers them onto the nodes.  Leaf paths see a tree's values only through
the read-only leaf view that :meth:`SolutionGrid.write_csv` builds.  An
optional structured penalty term -k_n(t, y) is integrated exactly through
the resolvent identity, which keeps the implicit step stable no matter how
large the penalization level is.
Each implicit step is a fixed point y = G(y) of a contraction, found per
point by a secant iteration whose slope is clipped to keep it contracting;
it is exact after two sweeps wherever G is affine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from . import artifacts
from .errors import ContractionFailure
from .monotone import PenalizedOperator, resolvent_ordinate
from .scenario import (ForwardState, MarkSpace, PathEnsemble, PathNodes,
                       ScenarioTree, TimeGrid)

__all__ = [
    "ForwardState",
    "DriverSpec",
    "TerminalSpec",
    "CEBackend",
    "SolutionGrid",
    "NodeColumns",
    "ResidualReport",
    "solve_bsde",
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
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gamma",
                           np.atleast_1d(np.asarray(self.gamma, dtype=float)))
        if self.lipschitz_c < 0:
            raise ValueError("lipschitz_c must be nonnegative")

    def check_against(self, marks: MarkSpace) -> None:
        if self.gamma.shape != (marks.n_marks,):
            raise ValueError("gamma needs one weight per mark")
        if np.any(self.gamma < -1.0):
            raise ValueError("gamma weights must be >= -1")
        if np.any(np.abs(self.gamma) > marks.vartheta + 1e-12):
            raise ValueError("|gamma_j| must not exceed vartheta_j")

    def q_of(self, psi: np.ndarray, marks: MarkSpace) -> np.ndarray:
        """q per row of psi, summed alone whatever the number of rows."""
        return (psi * (self.gamma * marks.intensities)).sum(axis=-1)

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
    """Conditional-expectation backend: exact sums on a tree, or least squares
    on the monomials of total degree <= ``degree`` in the forward state."""

    kind: str = "tree"
    degree: int = 2

    def __post_init__(self):
        if self.kind not in ("tree", "regression"):
            raise ValueError("backend kind must be 'tree' or 'regression'")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")

    def min_paths(self, n_marks: int) -> int:
        """Fewest paths a solve accepts: 10 per regression basis function."""
        if self.kind == "tree":
            return 1
        return 10 * basis_size(1 + n_marks, self.degree)


class NodeColumns:
    """One solution component: an array per grid column, on the states of
    one scenario.

    Column c holds one value per state of scenario level ``levels[c]``, and
    ``probs[c]`` their probabilities.  A solver output is on its scenario's
    states (a recombining tree's lattice points); a component that follows
    the paths, as the truncation glue's does, is on the tree's
    :attr:`~mbsdej.scenario.ScenarioTree.node_view`, whose states are the
    nodes.  Path readers run on the states through the scenario's ``paths``
    and ``push_max``.  The glue gathers states onto nodes (:meth:`on_nodes`)
    and works there (:meth:`spread`, :meth:`accumulate`).  On an ensemble the
    columns are views of one (n_paths, n_cols[, m]) array, which is also the
    leaf view.  On a tree :meth:`leaves` gathers and repeats each column
    onto the leaf paths on its first call and keeps the result, read-only:
    the columns stay the one store.
    """

    def __init__(self, columns, levels, scenario, leaves=None):
        self.columns = columns
        self.levels = levels
        self.scenario = scenario
        self.probs = [scenario.level_probs(i) for i in levels]
        self._leaves = leaves

    @classmethod
    def empty(cls, scenario, levels, trailing=()) -> "NodeColumns":
        """Uninitialized columns on the states of the given scenario levels."""
        out = cls(None, list(levels), scenario)
        n = scenario.weights.size
        if all(p.size == n for p in out.probs):     # the entries are the paths
            out._leaves = np.empty((n, len(out.levels), *trailing))
            out.columns = [out._leaves[:, c] for c in range(len(out.levels))]
        else:
            out.columns = [np.empty((p.size, *trailing)) for p in out.probs]
        return out

    def __getitem__(self, c: int) -> np.ndarray:
        return self.columns[c]

    def __setitem__(self, c: int, values) -> None:
        self.columns[c][...] = values

    def on_nodes(self, c: int, values: np.ndarray | None = None) -> np.ndarray:
        """Values on column c's states (the column itself by default) read on
        the nodes of its level."""
        values = self[c] if values is None else values
        m = self.scenario.node_map(self.levels[c])
        return values if m is None else values[m]

    def spread(self, c: int, values: np.ndarray, d: int) -> np.ndarray:
        """Values on the nodes of column c's level, read on column d's."""
        return self.scenario.to_level(self.levels[c], values, self.levels[d])

    def accumulate(self, op: Callable, terms) -> list:
        """Running reduction of ``terms[c]`` (on column c's nodes) down the
        columns: out[0] = terms[0], out[c] = op(spread(out[c-1]), terms[c])."""
        out = [terms[0]]
        for c in range(1, len(terms)):
            out.append(op(self.spread(c - 1, out[-1], c), terms[c]))
        return out

    @property
    def expanded(self) -> bool:
        """Whether the leaf view exists (always, on an ensemble)."""
        return self._leaves is not None

    def leaves(self) -> np.ndarray:
        """The (n_paths, n_cols[, m]) leaf view, built read-only on the first
        call."""
        if self._leaves is None:
            self._leaves = np.stack([self.scenario.to_level(level, self.on_nodes(c))
                                     for c, level in enumerate(self.levels)], axis=1)
            self._leaves.flags.writeable = False
        return self._leaves


class _LeafView:
    """A component field of :class:`SolutionGrid`: stored as given (node
    columns or a leaf array), read as the leaf array.  K's node columns hold
    its increments, so K is read as their running sums."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, sol, owner=None):
        if sol is None:
            raise AttributeError(self.key[1:])   # the field has no default
        stored = sol.__dict__[self.key]
        if not isinstance(stored, NodeColumns):
            return stored
        if self.key != "_K":
            return stored.leaves()
        sums = np.cumsum(stored.leaves(), axis=1)
        sums.flags.writeable = False
        return sums

    def __set__(self, sol, value):
        sol.__dict__[self.key] = value


_PARTS = ("Y", "Z", "psi", "K")


@dataclass
class SolutionGrid:
    """Discrete (Y, Z, psi, K) per path per grid time.

    Y and K have one column per grid point; Z and psi one column per step.
    ``weights`` are the path probabilities (uniform for ensembles, leaf
    probabilities for trees).

    The solver stores each component as :class:`NodeColumns`: Y_i, Z_i and
    psi_i are level-i state values.  K is stored by its increments: column
    0 holds K_0 and column i+1 the increment K_{i+1} - K_i, a level-i state
    value that the penalty at t_i fixes; :meth:`k_terminal_mean` sums their
    means.  Every reader in the package reads :meth:`nodes`.
    Reading ``Y``, ``Z``, ``psi`` or ``K`` gives the leaf view for
    :meth:`write_csv` and tests: an (n_paths, ...) array that on a tree is
    expanded on first read, kept and read-only (K's running sums are formed
    on each read); on an ensemble the leaf view of Y, Z and psi is the store
    itself.
    Assigning a component (``sol.K = ...``, ``dataclasses.replace``) stores
    it as given.  A solution with a component stored as a leaf array is read
    in leaf form throughout, with the paths as states.
    """

    grid: TimeGrid
    marks: MarkSpace
    Y: np.ndarray = _LeafView()
    Z: np.ndarray = _LeafView()
    psi: np.ndarray = _LeafView()
    K: np.ndarray = _LeafView()
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.weights.size

    def nodes(self, name: str) -> NodeColumns:
        """Component ``name`` on its states, or, once any component is
        stored as a leaf array, its leaf array with the paths as states: the
        columns of one solution always share their states."""
        if all(isinstance(self.__dict__["_" + n], NodeColumns) for n in _PARTS):
            return self.__dict__["_" + name]
        return self.on_paths(name)

    @cached_property
    def _paths(self) -> PathNodes:
        return PathNodes(self.weights)

    def on_paths(self, name: str) -> NodeColumns:
        """Component ``name`` column by column on its leaf array (K by its
        increments): each column's states are the paths, the nodes of the
        last grid level, held in one scenario per solution."""
        stored = self.__dict__["_" + name]
        if isinstance(stored, NodeColumns):
            leaves = stored.leaves()
        else:
            leaves = np.diff(stored, axis=1, prepend=0.0) if name == "K" else stored
        n_cols, level = leaves.shape[1], self.grid.n_steps
        return NodeColumns([leaves[:, c] for c in range(n_cols)],
                           [level] * n_cols, self._paths, leaves)

    def y0(self) -> float:
        Y = self.nodes("Y")
        return float(Y.probs[0] @ Y[0])

    def k_terminal_mean(self) -> float:
        """E[K_T], the sum of the stored increments' means (any layout)."""
        K = self.nodes("K")
        return sum(float(p @ k) for p, k in zip(K.probs, K.columns))

    def validate(self, tol: float = 1e-12) -> None:
        if not all(np.all(np.isfinite(col)) for name in _PARTS
                   for col in self.nodes(name).columns):
            raise ValueError("solution contains non-finite entries")
        K = self.nodes("K")
        if np.any(np.abs(K[0]) > tol):
            raise ValueError("K must start at 0")
        if any(np.any(K[c] < -tol) for c in range(1, len(K.columns))):
            raise ValueError("K must be nondecreasing per path")

    def write_csv(self, path) -> None:
        """One row per (path, step); terminal row pads controls with 0."""
        psis = [f"psi_{j + 1}" for j in range(self.marks.n_marks)]
        artifacts.write_csv(path, ["path", "step", "Y", "Z", *psis, "K"],
                            artifacts.path_step_rows(self.grid.n_steps + 1, self.Y,
                                                     self.Z, self.psi, self.K))


# -- implicit step -----------------------------------------------------------

_MAX_SUBSTEPS = 4096  # sub-steps one grid step may be cut into
_FP_RTOL = 1e-13      # relative sup-norm of G(y) - y that ends the sweeps
_FP_SWEEPS = 200      # sweeps per sub-step before ContractionFailure


def _implicit_step(driver, t, state, target, z, q, dt, penalty):
    """Solve y = target + dt*(h(t,x,y,z,q) - k_n(t,y)) vectorized over paths.

    The penalty is resolved exactly per sweep via the identity
    (I + dt*k_n)^{-1}(w) = w - dt*k_{n'}(w) with n' = n/(1 + dt*n), so a
    sweep evaluates G(y) = (I + dt*k_n)^{-1}(target + dt*h(y)) and only the
    driver's own y-dependence iterates.  Sub-stepping keeps q = dt*L at
    most 0.85, so G is a q-contraction and -F' lies in [1 - q, 1 + q] for
    F(y) = G(y) - y.  The first sweep moves to G(y); every later one takes
    the secant step y + F(y)/c per point, with c the chord slope -dF/dy of
    the last two iterates clipped to [1 - r, 1 + r], r = min(q, (1 - q)/3)
    (c = 1 where dy = 0).  Each step shrinks the error by at least
    (q + r)/(1 - r) < 1, and G is piecewise affine for an affine driver and
    a piecewise-linear k, where the secant is exact once both iterates lie
    on one piece.  With q = 0 (a driver declared y-independent) every sweep
    is the plain fixed-point update y = G(y).  The sweeps stop once
    sup |G(y) - y| <= _FP_RTOL * (1 + sup |G(y)|) and return G(y); a sweep
    whose w is bit-equal to the previous sweep's reuses its G without
    another resolvent call, so a y-independent driver costs one resolvent
    call per sub-step.

    Returns the solved y, the integral of k_n(t, y) over the step (zero
    without a penalty), the number of sub-steps and the number of sweeps
    (driver evaluations) over all sub-steps.
    """
    L = driver.lipschitz_c
    nsub = 1
    if dt * L > 0.85:
        nsub = math.ceil(dt * L / 0.45)
        if nsub > _MAX_SUBSTEPS:
            raise ContractionFailure(
                f"dt*L = {dt * L:.3g} needs {nsub} substeps > budget {_MAX_SUBSTEPS}")
    dts = dt / nsub
    r = min(dts * L, (1.0 - dts * L) / 3.0)
    slope = None
    if penalty is not None:
        n = float(penalty.level)
        slope = n / (1.0 + dts * n)

    y = np.array(target, dtype=float, copy=True)
    pen_integral = np.zeros_like(y)
    sweeps = 0
    for _ in range(nsub):
        right = y
        yy = np.array(right, copy=True)
        w_prev = None
        for sweep in range(_FP_SWEEPS):
            w = right + dts * np.asarray(driver.shape(t, state, yy, z, q), dtype=float)
            w = np.broadcast_to(w, yy.shape).astype(float)
            # a w bit-equal to the last sweep's keeps that sweep's G(y)
            if w_prev is None or not np.array_equal(w, w_prev):
                g = w
                if penalty is not None:
                    g = w - dts * resolvent_ordinate(penalty.family, t, w, slope)
            w_prev = w
            F = g - yy
            if np.max(np.abs(F)) <= _FP_RTOL * (1.0 + np.max(np.abs(g))):
                break
            step = g
            if sweep and r > 0:
                c = np.divide(F_prev - F, yy - y_prev, out=np.ones_like(F),
                              where=yy != y_prev)
                step = yy + F / np.clip(c, 1.0 - r, 1.0 + r, out=c)
            y_prev, F_prev, yy = yy, F, step
        else:
            worst = int(np.argmax(np.abs(F)))
            raise ContractionFailure(
                f"implicit step at t = {t:g} did not converge in {_FP_SWEEPS} "
                f"sweeps: |G(y) - y| = {abs(F[worst]):.3g} at point {worst}")
        sweeps += sweep + 1
        if penalty is not None:
            pen_integral += w - g    # = dts * k_n(t, y*)
        y = g
    return y, pen_integral, nsub, sweeps


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


_RIDGE = 1e-8   # ridge weight, relative to the mean eigenvalue of the Gram matrix


def _ridge_predict(A: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Fitted values of a ridge LS projection, one column per target.

    The constant column keeps tr(G) >= n, so M = G + lam I with lam > 0 has
    cond(M) <= 1 + p/_RIDGE, even at step 0 where every state column is 0.
    """
    scale = np.sqrt(np.mean(A**2, axis=0))
    scale[scale == 0] = 1.0
    As = A / scale
    G = As.T @ As
    lam = _RIDGE * np.trace(G) / G.shape[0]
    M = G + lam * np.eye(G.shape[0])
    return As @ np.linalg.solve(M, As.T @ targets)


# -- conditional projections -------------------------------------------------


def _tree_projection(tree: ScenarioTree, i: int, y_next: np.ndarray):
    """Exact (E_i[Y_{i+1}], Z_i, psi_i) per level-i state from the values of
    the level-(i+1) states, gathered onto each state's branches.

    Each sum runs over one row's branches alone (a BLAS matrix-vector product
    rounds a row differently depending on its place in the matrix), so a
    state and every node it stands for get the same bits."""
    V = y_next[tree.child[i]]
    p = tree.probs[i]
    ey = (V * p).sum(axis=1)
    z = (V * (p * tree.dW[i])).sum(axis=1) / tree.grid.steps[i]
    if tree.marks.n_marks:
        centered = tree.dN_tilde[i] - tree.bias[i]
        psi = (V[:, :, None] * (p[:, None] * centered)).sum(axis=1) / tree.var_dnt[i]
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
    preds = _ridge_predict(A, targets)
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
        fewest = backend.min_paths(scenario.marks.n_marks)
        if scenario.n_paths < fewest:
            raise ValueError(f"regression needs n_paths >= 10 x basis size "
                             f"({fewest}), got {scenario.n_paths}")
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
    rule).  Without a penalty K is identically zero.  Y, Z, psi and K's
    increments are computed and stored on the scenario's states; on a tree
    nothing is gathered onto the nodes or repeated onto the leaves here.
    """
    driver.check_against(marks)
    project = _projection(scenario, backend)
    n_steps = grid.n_steps

    Y = NodeColumns.empty(scenario, range(n_steps + 1))
    Z = NodeColumns.empty(scenario, range(n_steps))
    psi = NodeColumns.empty(scenario, range(n_steps), (marks.n_marks,))
    y = terminal(scenario.state(n_steps))
    Y[n_steps] = y
    pen = [None] * n_steps
    max_substeps = 1
    sweeps = 0

    for i in reversed(range(n_steps)):
        ey, z, psi_i = project(i, y)
        y, pen[i], nsub, n_sweeps = _implicit_step(driver, float(grid.times[i]),
                                                   scenario.state(i), ey, z,
                                                   driver.q_of(psi_i, marks),
                                                   grid.steps[i], penalty)
        max_substeps = max(max_substeps, nsub)
        sweeps += n_sweeps
        Y[i] = y
        Z[i] = z
        psi[i] = psi_i

    K = NodeColumns.empty(scenario, [0, *range(n_steps)])   # K_{i+1} known at t_i
    K[0] = 0.0
    for i, p in enumerate(pen):
        K[i + 1] = 0.0 - p      # no penalty reads +0.0, not -0.0
    meta = {"backend": backend.kind, "max_substeps": max_substeps,
            "sweeps": sweeps,
            "penalty_level": None if penalty is None else penalty.level,
            "seed": getattr(scenario, "seed", None)}
    return SolutionGrid(grid, marks, Y, Z, psi, K, scenario.weights, meta)


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

    def worst(self) -> tuple[float, int, str]:
        """The largest statistic the gate reads, with its step and moment:
        the conditional mean and covariances on a tree, |z| on an ensemble."""
        if self.kind == "tree":
            moments = {"mean": self.cond_mean_abs, "covariance": self.cond_cov_abs}
        else:
            moments = {"mean_z": np.abs(self.cond_mean_z)}
        table = np.vstack(list(moments.values()))
        row, step = np.unravel_index(int(np.argmax(table)), table.shape)
        return float(table[row, step]), int(step), list(moments)[row]

    def passed(self, tol: float = 1e-10, z_gate: float = 4.0) -> bool:
        """Whether :meth:`worst` is within ``tol`` (tree) or ``z_gate``."""
        return self.worst()[0] <= (tol if self.kind == "tree" else z_gate)


def residual_check(solution: SolutionGrid, driver: DriverSpec, scenario,
                   grid: TimeGrid, marks: MarkSpace) -> ResidualReport:
    """Check the discretized dynamics step by step, on the states.

    Step i's residual is one value per level-i state and branch:
    R = Y_i - (Y_{i+1} + dt*f - Z_i*dW - psi_i.(dN - c) + K_{i+1} - K_i) with
    f evaluated on ``scenario.state(i)``.  A tree state's branches lead to
    its children, and c is their exact mean jump count, so on the tree the
    conditional mean of R for a solver output is zero to machine precision;
    so are its conditional covariances with the increments, which pin Z and
    psi.  An ensemble state is a path with one branch, its own increment,
    and c = lambda*dt.  A solution off the tree's states (glued, so on the
    tree's :attr:`~mbsdej.scenario.ScenarioTree.node_view`, or stored as
    leaf arrays) is checked on the node view; leaf arrays are read on the
    nodes with ``scenario.to_level``, which raises ValueError on a tree
    column that is not measurable at its time.
    """
    tree = isinstance(scenario, ScenarioTree)
    Y, Z, psi, K = map(solution.nodes, _PARTS)    # on one scenario's states
    if Y.scenario is not scenario:
        scenario = scenario.node_view

    def at(part, c, level):    # column c on the level's states
        if part.scenario is scenario:
            return part[c]
        # a leaf array: on the node view (or an ensemble) the states are nodes
        return scenario.to_level(part.levels[c], part.on_nodes(c), level)

    n_steps = grid.n_steps
    mean_abs = np.empty(n_steps)
    max_abs = np.empty(n_steps)
    cond_mean = np.empty(n_steps)
    cond_cov = np.empty(n_steps)
    zscores = np.empty(n_steps)

    for i in range(n_steps):
        y, z, psi_i = at(Y, i, i), at(Z, i, i), at(psi, i, i)
        if tree:     # increments (B,) and (B, m), branch probabilities p
            p, dN = scenario.probs[i], scenario.dN[i]
            dW, centered = scenario.dW[i], dN - p @ dN
            y_next = at(Y, i + 1, i + 1)[scenario.child[i]]
        else:        # increments (n, 1) and (n, 1, m), one sure branch
            p, dW = np.ones(1), scenario.dW[:, i, None]
            centered = scenario.dN_tilde[:, i, None, :]
            y_next = at(Y, i + 1, i + 1)[:, None]
        state = scenario.state(i)
        fval = driver.f(state.t, state, y, z, psi_i, marks)
        drift = grid.steps[i] * np.broadcast_to(fval, y.shape)
        jump = (psi_i[:, None, :] * centered).sum(axis=-1)
        dk = at(K, i + 1, i)
        R = y[:, None] - (y_next + drift[:, None] - z[:, None] * dW - jump
                          + dk[:, None])
        mean_abs[i] = float(scenario.level_probs(i) @ (np.abs(R) @ p))
        max_abs[i] = float(np.max(np.abs(R)))
        if tree:
            cond_mean[i] = float(np.max(np.abs(R @ p)))
            cov = R @ np.column_stack([p * dW, p[:, None] * centered])
            cond_cov[i] = float(np.max(np.abs(cov)))
        else:
            # The per-path residuals share the fitted regression functions, so
            # the naive std(resid)/sqrt(n) understates the fluctuation of the
            # mean; gauge it against the projected martingale increments.
            resid = R[:, 0]
            mu = float(resid.mean())
            mart = (z[:, None] * dW + jump)[:, 0]
            scale = max(float(resid.std(ddof=1)), float(np.std(mart, ddof=1))) \
                if resid.size > 1 else 0.0
            se = scale / np.sqrt(resid.size)
            cond_mean[i] = abs(mu)
            zscores[i] = mu / se if se > 0 else 0.0

    return ResidualReport(mean_abs, max_abs, cond_mean,
                          "tree" if tree else "ensemble",
                          None if tree else zscores, cond_cov if tree else None)
