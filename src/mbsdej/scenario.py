"""Stochastic inputs on a time grid.

Two interchangeable noise models:

* :func:`simulate_paths` draws a Monte Carlo :class:`PathEnsemble` of Brownian
  increments and Poisson jump counts, from counter-based RNG streams keyed by
  (seed, block of paths, kind of draw).
* :func:`build_tree` builds an exact finite :class:`ScenarioTree` whose
  conditional expectations are plain weighted sums, usable as a brute-force
  oracle at desk scale.  On a uniform grid the tree recombines: its nodes
  share a few lattice states, one per (W_{t_i}, N_{t_i}), and a solver works
  on those states.

Both expose one interface to the solver and its readers.  A level's *states*
carry the forward state (:meth:`state`, :meth:`level_probs`); its *nodes*
are the histories that lead there (:attr:`node_view`, :meth:`to_level`),
and ``node_map(i)`` sends each level-i node to its state, None where every
node is its own state.  Path readers run on the states (:meth:`paths`,
:meth:`push_max`).  On an ensemble the states and the nodes of every level
are the paths.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import artifacts
from .errors import BudgetExceeded

__all__ = [
    "TimeGrid",
    "MarkSpace",
    "ForwardState",
    "PathEnsemble",
    "ScenarioTree",
    "MartingaleReport",
    "simulate_paths",
    "build_tree",
    "martingale_check",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid t_0 = 0 < ... < t_N = T."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("grid needs at least two time points")
        if times[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if not np.all(np.diff(times) > 0):
            raise ValueError("grid times must be strictly increasing")

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimeGrid":
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return cls(np.linspace(0.0, float(horizon), n_steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.times)

    def refined(self) -> "TimeGrid":
        """Grid with each step split into two equal substeps."""
        fine = np.empty(2 * self.n_steps + 1)
        fine[::2] = self.times
        fine[1::2] = self.times[:-1] + self.steps / 2
        return TimeGrid(fine)


@dataclass(frozen=True)
class MarkSpace:
    """Finite jump-mark set with intensities.

    ``values`` are the numeric mark values, ``intensities`` the point masses
    lambda_j = pi({e_j}) > 0, and ``vartheta`` the per-mark bounds used by the
    driver's jump-monotonicity structure.  An empty mark space (m = 0) models
    the no-jump case.
    """

    values: np.ndarray
    intensities: np.ndarray
    vartheta: np.ndarray | None = None

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        lam = np.atleast_1d(np.asarray(self.intensities, dtype=float))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "intensities", lam)
        if values.shape != lam.shape:
            raise ValueError("values and intensities must have equal length")
        if values.size and len(set(values.tolist())) != values.size:
            raise ValueError("mark values must be distinct")
        if np.any(lam <= 0):
            raise ValueError("intensities must be positive")
        if self.vartheta is None:
            vt = np.abs(values) + 1.0
        else:
            vt = np.atleast_1d(np.asarray(self.vartheta, dtype=float))
        object.__setattr__(self, "vartheta", vt)
        if vt.shape != values.shape or np.any(vt < 0):
            raise ValueError("vartheta must be nonnegative, one per mark")

    @classmethod
    def empty(cls) -> "MarkSpace":
        return cls(np.empty(0), np.empty(0), np.empty(0))

    @property
    def n_marks(self) -> int:
        return self.values.size

    def norm_pi_sq(self, phi: np.ndarray) -> np.ndarray:
        """||phi||_pi^2 = sum_j phi(e_j)^2 lambda_j along the last axis."""
        phi = np.asarray(phi, dtype=float)
        if phi.shape[-1] != self.n_marks:
            raise ValueError("phi must have one entry per mark")
        return phi**2 @ self.intensities


@dataclass(frozen=True)
class ForwardState:
    """Markov state carried by the regression basis and user evaluators."""

    t: float
    w: np.ndarray              # (n,) Brownian level
    counts: np.ndarray         # (n, m) cumulative jump counts per mark
    marks: MarkSpace
    grid: TimeGrid

    @property
    def ntilde(self) -> np.ndarray:
        """Compensated jump levels N_j(t) - lambda_j * t."""
        return self.counts - self.marks.intensities * self.t


_BLOCK_PATHS = 4096   # paths per RNG block; a block is always drawn whole
_BROWNIAN, _JUMPS = 0, 1


def _block_generator(seed: int, block: int, kind: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block, kind))
    return np.random.Generator(np.random.Philox(ss))


class PathNodes:
    """Levels whose nodes are the paths, each its own state: the layout of
    an ensemble, and of any array with one row per path."""

    def __init__(self, weights: np.ndarray):
        self.weights = weights

    def level_probs(self, i: int) -> np.ndarray:
        """Every level's states are the paths: their weights."""
        return self.weights

    def node_map(self, i: int) -> None:
        """Every path is its own state: the identity."""
        return None

    def branch_mean(self, i: int, values: np.ndarray) -> np.ndarray:
        """A path is its own one sure child: the values."""
        return values

    def to_level(self, i: int, values: np.ndarray,
                 level: int | None = None) -> np.ndarray:
        """Every level's nodes are the paths: the identity."""
        return values

    @property
    def node_view(self) -> "PathNodes":
        """Every path is its own node already: these levels."""
        return self

    def paths(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Each path is one path through itself, and the first."""
        return np.ones(self.weights.size, np.int64), np.arange(self.weights.size)

    def push_max(self, i: int, values: np.ndarray,
                 first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A path's one branch leads to itself: the values and their paths."""
        return values, first


class PathEnsemble(PathNodes):
    """Monte Carlo increments: dW (n_paths, N) and dN (n_paths, N, m)."""

    def __init__(self, grid: TimeGrid, marks: MarkSpace, dW: np.ndarray,
                 dN: np.ndarray, seed: int):
        self.grid = grid
        self.marks = marks
        self.dW = dW
        self.dN = dN
        self.seed = seed
        self.n_paths = dW.shape[0]

    @cached_property
    def dN_tilde(self) -> np.ndarray:
        """Compensated increments dN_i(e_j) - lambda_j * dt_i."""
        comp = np.outer(self.grid.steps, self.marks.intensities)
        return self.dN - comp[None, :, :]

    @cached_property
    def w_levels(self) -> np.ndarray:
        """Brownian levels W_{t_i}, shape (n_paths, N+1), W_0 = 0."""
        levels = np.zeros((self.n_paths, self.grid.n_steps + 1))
        np.cumsum(self.dW, axis=1, out=levels[:, 1:])
        return levels

    @cached_property
    def count_levels(self) -> np.ndarray:
        """Cumulative jump counts per mark, shape (n_paths, N+1, m)."""
        m = self.marks.n_marks
        levels = np.zeros((self.n_paths, self.grid.n_steps + 1, m))
        if m:
            np.cumsum(self.dN, axis=1, out=levels[:, 1:, :])
        return levels

    @cached_property
    def weights(self) -> np.ndarray:
        return np.full(self.n_paths, 1.0 / self.n_paths)

    def state(self, i: int) -> ForwardState:
        """Forward state at grid time t_i, one entry per path."""
        return ForwardState(float(self.grid.times[i]), self.w_levels[:, i],
                            self.count_levels[:, i], self.marks, self.grid)

    def subset(self, rows) -> "PathEnsemble":
        """Ensemble restricted to a slice or index array of paths."""
        return PathEnsemble(self.grid, self.marks, self.dW[rows],
                            self.dN[rows], self.seed)

    def write_csv(self, path) -> None:
        """Debug export: one row per (path, step) with dW and dN_1..dN_m."""
        dns = [f"dN_{j + 1}" for j in range(self.marks.n_marks)]
        artifacts.write_csv(path, ["path", "step", "dW", *dns],
                            artifacts.path_step_rows(self.grid.n_steps, self.dW,
                                                     self.dN))


def simulate_paths(grid: TimeGrid, marks: MarkSpace, n_paths: int,
                   seed: int) -> PathEnsemble:
    """Draw an ensemble of Brownian and Poisson increments.

    dW_i ~ Gaussian(0, dt_i) and dN_i(e_j) ~ Poisson(lambda_j dt_i), mutually
    independent across steps, marks and paths.  Paths come in fixed blocks of
    ``_BLOCK_PATHS``; block b draws dW from a Philox stream keyed by (seed, b,
    Brownian) and dN from one keyed by (seed, b, jumps), so dW does not depend
    on the mark space.  Every block draws all of its rows and keeps the ones
    it needs, so the draws are bit-identical for a fixed seed, and the first k
    paths are the same whatever ``n_paths`` >= k is.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_steps = grid.n_steps
    m = marks.n_marks
    dt = grid.steps
    sqrt_dt = np.sqrt(dt)
    lam_dt = np.outer(dt, marks.intensities)  # (N, m)

    dW = np.empty((n_paths, n_steps))
    dN = np.zeros((n_paths, n_steps, m))

    for b, start in enumerate(range(0, n_paths, _BLOCK_PATHS)):
        k = min(_BLOCK_PATHS, n_paths - start)
        normals = _block_generator(seed, b, _BROWNIAN).standard_normal(
            (_BLOCK_PATHS, n_steps))
        np.multiply(normals[:k], sqrt_dt, out=dW[start:start + k])
        if m:
            dN[start:start + k] = _block_generator(seed, b, _JUMPS).poisson(
                lam_dt, (_BLOCK_PATHS, n_steps, m))[:k]
    return PathEnsemble(grid, marks, dW, dN, seed)


class ScenarioTree:
    """Full tree over the grid with exact transition probabilities.

    Per step i each node has B = 2 * 2^m children: a two-point Brownian
    branch +-sqrt(dt_i) (probability 1/2 each), crossed with an independent
    {0,1} jump count per mark (count 1 with probability p_j = 1-exp(-lam_j
    dt_i)).  Compensated jump values carry dN - lam_j dt_i; their conditional
    mean p_j - lam_j dt_i <= 0 is the tree's compensator bias, reported via
    :attr:`bias`.

    Branch index layout: b = w_branch * 2^m + jump bits, where bit j of the
    jump part is mark j's count.  Node k of level i+1 is branch k % B of node
    k // B of level i.

    Every driver and terminal reads a node only through (t_i, W_{t_i},
    N_{t_i}), so the solver works on *states*, not nodes.  When the grid's
    times equal ``TimeGrid.uniform(T, N).times`` the tree recombines: a
    level-i state is the lattice point (u, c_1, ..., c_m) of u Brownian
    up-moves and c_j jumps of mark j, with W = (2u - i) sqrt(T/N); the
    (i+1)^(1+m) points are numbered in mixed radix i+1, u first.  On any
    other grid every node is its own state.  Two index maps tie the levels
    together:

    * ``child[i]``, per step: the (states_i, B) level-(i+1) state that each
      branch of each level-i state leads to;
    * ``node_map(i)``, per level: the state of each level-i node, in the
      smallest unsigned integer dtype that holds it, or None where every
      node is its own state.

    A state's probability is the sum of its nodes'.  Path readers run
    forward over ``child`` (:meth:`paths`, :meth:`push_max`).  The
    truncation glue gathers states onto nodes through ``node_map`` and
    moves node values between levels with :meth:`to_level`; ``w_nodes``,
    ``count_nodes`` and :attr:`node_view` give the tree node by node.
    """

    def __init__(self, grid: TimeGrid, marks: MarkSpace):
        self.grid = grid
        self.marks = marks
        m = marks.n_marks
        self.branching = 2 * (1 << m)
        n = grid.n_steps
        B = self.branching

        self.probs = np.empty((n, B))        # per-step branch probabilities
        self.dW = np.empty((n, B))           # branch Brownian increments
        self.dN = np.zeros((n, B, m))        # branch jump counts in {0,1}
        self.dN_tilde = np.zeros((n, B, m))  # dN - lam*dt
        self.bias = np.zeros((n, m))         # E[dN_tilde] = p - lam*dt
        self.var_dnt = np.zeros((n, m))      # Var[dN_tilde]

        jump_bits = (np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1
        for i in range(n):
            dt = grid.steps[i]
            p_jump = -np.expm1(-marks.intensities * dt)  # 1 - exp(-lam dt)
            w_sign = np.repeat([1.0, -1.0], 1 << m)
            self.dW[i] = w_sign * np.sqrt(dt)
            bits = np.tile(jump_bits, (2, 1)).astype(float)
            self.dN[i] = bits
            self.dN_tilde[i] = bits - marks.intensities * dt
            pj = np.where(jump_bits == 1, p_jump, 1.0 - p_jump)
            self.probs[i] = 0.5 * np.tile(np.prod(pj, axis=1), 2)
            self.bias[i] = p_jump - marks.intensities * dt
            # exact two-point variance of dN (shift-invariant for dN_tilde)
            self.var_dnt[i] = p_jump * (1.0 - p_jump)

        if not np.array_equal(grid.times, TimeGrid.uniform(grid.horizon, n).times):
            w, counts = [np.zeros(1)], [np.zeros((1, m))]
            for i in range(n):       # one state per node, built forward
                w.append((w[i][:, None] + self.dW[i][None, :]).ravel())
                c = counts[i][:, None, :] + self.dN[i][None, :, :]
                counts.append(c.reshape(w[-1].size, m))
            self._one_state_per_node(w, counts)
            return
        # the lattice: a branch adds (1 - w_branch, jump bits) to the digits
        moves = np.column_stack([np.repeat([1, 0], 1 << m),
                                 np.tile(jump_bits, (2, 1))])
        digits = [np.indices((i + 1,) * (1 + m)).reshape(1 + m, -1).T
                  for i in range(n + 1)]
        self._w = [(2.0 * d[:, 0] - i) * np.sqrt(grid.horizon / n)
                   for i, d in enumerate(digits)]
        self._counts = [d[:, 1:].astype(float) for d in digits]
        # C order, so that a gathered (states, B) block is laid out as a
        # reshaped node array is, and projects with the same arithmetic
        self.child = [np.ascontiguousarray(np.ravel_multi_index(
            np.moveaxis(d[:, None, :] + moves, -1, 0), (i + 2,) * (1 + m)))
            for i, d in enumerate(digits[:-1])]
        self._node_map = [np.zeros(1, np.uint8)]
        for i in range(n):
            nodes = self.child[i][self._node_map[i]].ravel()
            self._node_map.append(
                nodes.astype(np.min_scalar_type(self._w[i + 1].size - 1)))

    def _one_state_per_node(self, w: list, counts: list) -> None:
        """States of the given per-node (W, N): identity maps."""
        self._w, self._counts = w, counts
        self.child = [np.arange(v.size).reshape(-1, self.branching)
                      for v in w[1:]]
        self._node_map = [None] * len(w)

    @property
    def n_leaves(self) -> int:
        return self.branching**self.grid.n_steps

    def level_size(self, i: int) -> int:
        """The number of level-i nodes."""
        return self.branching**i

    def node_map(self, i: int) -> np.ndarray | None:
        """The state of each level-i node, or None where they coincide."""
        return self._node_map[i]

    def branch_mean(self, i: int, values: np.ndarray) -> np.ndarray:
        """Per level-i state, the mean of its level-(i+1) children's values."""
        return (values[self.child[i]] * self.probs[i]).sum(axis=1)

    @cached_property
    def _paths(self) -> list:
        """(leaf paths through, first of them) per state of each level; more
        than 2^63 - 1 leaf paths raise OverflowError."""
        out = [(np.full(1, self.n_leaves, np.int64), np.zeros(1, np.int64))]
        for i, child in enumerate(self.child):
            count, first = out[i]
            through = np.zeros(self._w[i + 1].size, np.int64)
            np.add.at(through, child, count[:, None] // self.branching)
            out.append((through, self.push_max(i, np.zeros(first.size), first)[1]))
        return out

    def paths(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Per level-i state, the number of leaf paths through it, the first."""
        return self._paths[i]

    def push_max(self, i: int, values: np.ndarray,
                 first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per level-(i+1) state, the largest of ``values`` (per level-i
        state) over the branches into it, and the smallest leaf path that
        attains it, where ``first`` is the first leaf path of a history
        ending in each level-i state and branch b adds b * B^(N-i-1)."""
        child, size = self.child[i], self._w[i + 1].size
        top = np.full(size, -np.inf)
        np.maximum.at(top, child, values[:, None])
        hit = values[:, None] == top[child]
        leads = first[:, None] + self.branching**(self.grid.n_steps - i - 1) \
            * np.arange(self.branching)
        lead = np.full(size, np.iinfo(np.int64).max)
        np.minimum.at(lead, child[hit], leads[hit])
        return top, lead

    @cached_property
    def _node_probs(self) -> list:
        probs = [np.ones(1)]
        for i in range(self.grid.n_steps):
            probs.append((probs[i][:, None] * self.probs[i][None, :]).ravel())
        return probs

    @cached_property
    def _state_probs(self) -> list:
        return [p if m is None else np.bincount(m, weights=p, minlength=w.size)
                for p, m, w in zip(self._node_probs, self._node_map, self._w)]

    def level_probs(self, i: int) -> np.ndarray:
        """Probabilities of the level-i states: sums over their nodes."""
        return self._state_probs[i]

    @property
    def leaf_probs(self) -> np.ndarray:
        return self._node_probs[-1]

    weights = leaf_probs       # path probabilities: those of the leaves

    def state(self, i: int) -> ForwardState:
        """Forward state at grid time t_i, one entry per level-i state."""
        return ForwardState(float(self.grid.times[i]), self._w[i],
                            self._counts[i], self.marks, self.grid)

    @cached_property
    def w_nodes(self) -> list:
        """W_{t_i} per level-i node, one array per level."""
        return [w if m is None else w[m] for w, m in zip(self._w, self._node_map)]

    @cached_property
    def count_nodes(self) -> list:
        """Jump counts N_{t_i} per level-i node, one (nodes, m) array per level."""
        return [c if m is None else c[m]
                for c, m in zip(self._counts, self._node_map)]

    @cached_property
    def node_view(self) -> "ScenarioTree":
        """This tree with one state per node, which carries the node's (W, N):
        the tree a solver would walk without recombination.  A tree where no
        level recombines is its own node view."""
        if all(m is None for m in self._node_map):
            return self
        view = copy.copy(self)
        for key in ("_state_probs", "_paths"):
            view.__dict__.pop(key, None)
        view._one_state_per_node(self.w_nodes, self.count_nodes)
        return view

    def to_level(self, i: int, values: np.ndarray,
                 level: int | None = None) -> np.ndarray:
        """Level-i node values read on the nodes of ``level`` (the leaves by
        default).

        A finer level repeats each value onto the node's descendants.  A
        coarser level reads back the value its nodes carry, which needs the
        values to be F_{t_level}-measurable: values that differ under one
        level-``level`` node raise ValueError.
        """
        level = self.grid.n_steps if level is None else level
        if level >= i:
            return np.repeat(values, self.branching ** (level - i), axis=0)
        under = values.reshape(self.level_size(level), self.branching ** (i - level),
                               *values.shape[1:])
        if not np.all(under == under[:, :1]):
            raise ValueError(f"values differ under one level-{level} node: "
                             f"they are not F_{{t_{level}}}-measurable")
        return under[:, 0]


def build_tree(grid: TimeGrid, marks: MarkSpace,
               node_budget: int = 10**6) -> ScenarioTree:
    """Build the exact scenario tree, guarding the total node count."""
    B = 2 * (1 << marks.n_marks)
    total = 1
    level = 1
    for _ in range(grid.n_steps):
        level *= B
        total += level
        if total > node_budget:
            raise BudgetExceeded(
                f"tree needs > {node_budget} nodes "
                f"(branching {B}, {grid.n_steps} steps)")
    return ScenarioTree(grid, marks)


_MARTINGALE_Z = 4.0   # largest |z-score| martingale_check passes


@dataclass
class MartingaleReport:
    """z-scores of the means of dW and dN_tilde and of the variance of dW."""

    z_brownian: np.ndarray          # (N,)
    z_jumps: np.ndarray             # (N, m)
    z_variance: np.ndarray          # (N,)

    @property
    def passed(self) -> bool:
        return bool(self.worst_abs_z <= _MARTINGALE_Z)

    @property
    def worst_abs_z(self) -> float:
        zs = [np.abs(self.z_brownian), np.abs(self.z_variance),
              np.abs(self.z_jumps).ravel()]
        return float(max(z.max(initial=0.0) for z in zs))


def martingale_check(ensemble: PathEnsemble) -> MartingaleReport:
    """Sanity gate: per step and mark, mean increments should be ~0, and the
    sample variance of dW per step should be dt.

    Standard errors use the model values (sd(dW_i) = sqrt(dt_i),
    sd(dNtilde_ij) = sqrt(lambda_j dt_i)), so the check stays meaningful when
    the empirical spread degenerates (e.g. a single path, or no observed
    jumps).  With one path the z-scores are 0 by convention.
    """
    n = ensemble.n_paths
    dt = ensemble.grid.steps
    if n < 2:
        m = ensemble.marks.n_marks
        zeros = np.zeros_like(dt)
        return MartingaleReport(zeros, np.zeros((dt.size, m)), zeros)

    se_w = np.sqrt(dt / n)
    z_w = ensemble.dW.mean(axis=0) / se_w
    lam_dt = np.outer(dt, ensemble.marks.intensities)
    if ensemble.marks.n_marks:
        se_n = np.sqrt(lam_dt / n)
        z_n = ensemble.dN_tilde.mean(axis=0) / se_n
    else:
        z_n = np.zeros((dt.size, 0))
    # variance gate: Var(dW_i) should be dt_i; se of the sample variance of a
    # Gaussian sample is dt*sqrt(2/(n-1))
    var_w = ensemble.dW.var(axis=0, ddof=1)
    z_var = (var_w - dt) / (dt * np.sqrt(2.0 / (n - 1)))
    return MartingaleReport(z_w, z_n, z_var)
