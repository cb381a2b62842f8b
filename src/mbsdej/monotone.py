"""Time-indexed increasing families and their penalization approximants.

A :class:`MonotoneFamily` wraps pointwise evaluators of an increasing,
right-continuous map x -> k(t, x) on a moving domain with lower boundary a_t.
The associated set-valued operator fills jumps with vertical segments and, when
the boundary point belongs to the domain, attaches the ray ]-inf, k(t, a_t)] at
x = a_t.  :class:`PenalizedOperator` produces the n-Lipschitz approximants
k_n(t, .) (Yosida approximations) by intersecting that graph with lines of
slope -n: a bracket walk and a safeguarded Illinois (regula falsi) search for
the root of the strictly increasing map u -> u + k(t, u)/n, both as
whole-array ``np.where`` updates that neither gather nor scatter the points
still moving.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainViolation, NoBracket
from .scenario import TimeGrid

__all__ = [
    "MonotoneFamily",
    "GrowthEnvelope",
    "PenalizedOperator",
    "ValidationItem",
    "ValidationReport",
    "resolvent_ordinate",
    "truncate_shift",
    "validate_assumptions",
    "default_probes",
]

_NEG_INF_CUTOFF = -1e12  # body values at or below this count as -inf limits


@dataclass(frozen=True)
class MonotoneFamily:
    """Evaluators for k(t, .), its left limits and its moving boundary.

    Parameters
    ----------
    body : callable
        ``body(t, x)`` with ``x`` a float ndarray, vectorized in x; must be
        nondecreasing and right-continuous in x for each t.
    boundary : callable
        ``boundary(t)`` -> a_t, may return ``-inf`` for full-line domains.
    left_body : callable, optional
        ``left_body(t, x)`` -> k_-(t, x).  When omitted, left limits are
        approximated by k(t, x - delta) with a shrinking-delta refinement.
    boundary_in_domain : callable, optional
        ``boundary_in_domain(t)`` -> bool.  When omitted the membership
        criterion (a_t finite and lim k(t, a_t + 0) finite) is probed
        numerically.
    sign : str
        ``"negative"`` for graphs in R x R_- (penalization setting) or
        ``"real"`` for the general truncation-concatenation setting.
    """

    body: Callable[[float, np.ndarray], np.ndarray]
    boundary: Callable[[float], float]
    left_body: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    boundary_in_domain: Optional[Callable[[float], bool]] = None
    sign: str = "negative"
    name: str = ""

    def __post_init__(self):
        if self.sign not in ("negative", "real"):
            raise ValueError("sign must be 'negative' or 'real'")

    # -- evaluation ---------------------------------------------------------

    def k(self, t: float, x) -> np.ndarray:
        return np.asarray(self.body(t, np.asarray(x, dtype=float)), dtype=float)

    def barriers(self, times) -> np.ndarray:
        """Boundary points a_t per time, -inf where a_t is not finite.

        Unlike :meth:`boundary_at` this does not probe whether a_t belongs to
        the domain.
        """
        a = np.array([float(self.boundary(float(t))) for t in np.atleast_1d(times)])
        a[~np.isfinite(a)] = -np.inf
        return a

    def boundary_at(self, t: float) -> tuple[float, bool]:
        """Boundary point a_t and whether it belongs to the domain."""
        a = float(self.boundary(t))
        if not np.isfinite(a):
            return -np.inf, False
        if self.boundary_in_domain is not None:
            return a, bool(self.boundary_in_domain(t))
        # probe the limit from inside the domain at two offsets: a diverging
        # magnitude ratio or a huge value means lim k = -inf
        scale = max(1.0, abs(a))
        v1 = float(self.k(t, [a + 1e-8 * scale])[0])
        v2 = float(self.k(t, [a + 1e-10 * scale])[0])
        finite = (np.isfinite(v2) and v2 > _NEG_INF_CUTOFF
                  and abs(v2) <= 4.0 * abs(v1) + 1.0)
        return a, bool(finite)

    def eval(self, t: float, x: float, side: str = "right") -> float:
        """k(t, x) or its left limit k_-(t, x).

        Raises
        ------
        DomainViolation
            If x < a_t, if x = a_t with a_t outside the domain, or on a
            left-eval at x = a_t (no left limit exists at the boundary).
        """
        a, in_dom = self.boundary_at(t)
        if x < a:
            raise DomainViolation(f"x={x} below boundary a_t={a}")
        if x == a and not in_dom:
            raise DomainViolation(f"boundary point a_t={a} not in the domain")
        if side == "right":
            return float(self.k(t, [x])[0])
        if side != "left":
            raise ValueError("side must be 'right' or 'left'")
        if x == a:
            raise DomainViolation("no left limit at the boundary point")
        return float(self.left(t, np.array([x]), boundary=a)[0])

    def left(self, t: float, x: np.ndarray, boundary: float | None = None) -> np.ndarray:
        """Vectorized left limits at interior points."""
        x = np.asarray(x, dtype=float)
        if self.left_body is not None:
            return np.asarray(self.left_body(t, x), dtype=float)
        a = self.boundary_at(t)[0] if boundary is None else boundary
        scale = np.maximum(1.0, np.abs(x))
        delta = 1e-4 * scale
        if np.isfinite(a):
            delta = np.minimum(delta, 0.5 * (x - a))
        val = self.k(t, x - delta)
        for _ in range(12):
            delta = delta / 8.0
            new = self.k(t, x - delta)
            if np.all(np.abs(new - val) <= 1e-10 * (1.0 + np.abs(new))):
                return new
            val = new
        return val

    def graph_contains(self, t: float, x: float, y: float, atol: float = 1e-12) -> bool:
        """Whether (x, y) lies in Gr(k_t), including fill-ins and boundary ray."""
        return bool(self.graph_contains_many(t, np.array([x]), np.array([y]), atol)[0])

    def graph_contains_many(self, t: float, x: np.ndarray, y: np.ndarray,
                            atol: float = 1e-12) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        a, in_dom = self.boundary_at(t)
        out = np.zeros(x.shape, dtype=bool)
        interior = x > a
        if interior.any():
            xi = x[interior]
            hi = self.k(t, xi)
            lo = self.left(t, xi, boundary=a)
            out[interior] = (y[interior] >= lo - atol) & (y[interior] <= hi + atol)
        if np.isfinite(a) and in_dom:
            at_boundary = x == a
            if at_boundary.any():
                cap = float(self.k(t, [a])[0])
                out[at_boundary] = y[at_boundary] <= cap + atol
        return out


@dataclass(frozen=True)
class GrowthEnvelope:
    """Dominating function ell for the truncation-concatenation setting.

    ell is nonnegative, increasing and right-continuous in each variable,
    positive before the terminal time, zero at it, and of linear growth
    ell(t, x) <= C (1 + |x|).
    """

    evaluator: Callable[[float, np.ndarray], np.ndarray]
    linear_growth_constant: float
    name: str = ""

    def __call__(self, t: float, x) -> np.ndarray:
        return np.asarray(self.evaluator(t, np.asarray(x, dtype=float)), dtype=float)


# -- resolvent-line intersection ------------------------------------------

_ROOT_WIDTH = 1e-10       # the root search stops once the bracket is this narrow
_BRACKET_RADIUS = 1e6     # farthest the bracket search moves from x
_DOUBLINGS = int(np.log2(_BRACKET_RADIUS))   # bracket widths 1, 2, ..., 2^19
_HALVINGS = 200           # steps towards an open boundary; root-search steps
                          # before NoBracket (the bracket halves every 3 steps)
_K_FLOOR = 2 * _NEG_INF_CUTOFF   # stands in for a non-finite k value


def _floored(kv: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(kv), kv, _K_FLOOR)


def _walk(k, x, slope, candidate, steps, upper, a=None):
    """Move each point along candidate(0), candidate(1), ... until it brackets x.

    A point stops once g(u) = u + k(u)/slope >= x (``upper``) or g(u) < x, and
    keeps its position after that, so k only sees candidates a point visits.
    A moving point whose candidate reaches the open boundary ``a`` raises.
    """
    u = candidate(0)
    ku = k(u)
    for j in range(1, steps + 2):
        g = u + ku / slope
        need = g < x if upper else g >= x
        if not need.any():
            return u, ku
        if j > steps:
            raise NoBracket(f"no {'upper' if upper else 'lower'} bracket "
                            "within the search range; is k monotone?")
        cand = candidate(j)
        if a is not None and np.any(need & (cand <= a)):
            raise NoBracket("boundary limit of k appears finite although "
                            "the boundary point is outside the domain")
        u = np.where(need, cand, u)
        ku = np.where(need, k(u), ku)


def _bracket(family: MonotoneFamily, t: float, x: np.ndarray, slope: float,
             a: float, in_dom: bool):
    """Find lo < hi with g(lo) < x <= g(hi) for g(u) = u + k(t,u)/slope."""
    def k(u):
        return family.k(t, u)

    # upper end: k is nondecreasing, so g(u) -> +inf; start inside the domain
    base = np.maximum(x, a)
    hi, khi = _walk(k, x, slope, lambda j: base + 2.0**j, _DOUBLINGS, True)
    if not np.isfinite(a):
        lo, klo = _walk(k, x, slope, lambda j: x - 2.0**j, _DOUBLINGS, False)
    elif in_dom:
        # callers exclude the vertical segment, so g(a) < x holds here
        lo, klo = np.full_like(x, a), k(np.full_like(x, a))
    else:
        # k -> -inf at the open boundary; slide down towards it
        gap = np.maximum(1.0, x - a)
        lo, klo = _walk(lambda u: _floored(k(u)), x, slope,
                        lambda j: a + gap / 2.0**j, _HALVINGS, False, a)
    return lo, klo, hi, khi


def resolvent_ordinate(family: MonotoneFamily, t: float, x, slope: float):
    """Ordinate of Gr(k_t) intersected with the line of slope -`slope` through (x, 0).

    This is the Lipschitz approximant value k_n(t, x) for slope = n.  The
    intersection abscissa u solves u + k_t(u)/slope = x.  When the line passes
    below the graph's lower end at an attained boundary, the intersection lies
    on the vertical segment: v = slope*(x - a_t).  Other points are bracketed
    by :func:`_walk`, and the bracket lo < hi with g(lo) < x <= g(hi) shrinks
    by masked whole-array updates.  Each step evaluates the regula falsi point
    of the residuals g - x at the ends, with the Illinois rule (Dowell and
    Jarratt 1971) and clipped _ROOT_WIDTH/2 inside the bracket, or the
    midpoint wherever the last two steps did not halve the bracket, so the
    bracket halves at least every third step.  On piecewise-linear k the
    secant lands on the root.  The ordinate is pinned by the intersection of
    the line interval [slope*(x-hi), slope*(x-lo)] with the graph interval
    [k(t,lo), k(t,hi)], which the brackets shrink around.

    Raises
    ------
    NoBracket
        If no bracket exists within the search range, if a point is still
        unresolved after _HALVINGS steps, or if the final intervals are
        inconsistent (a non-monotone evaluator).
    """
    if slope <= 0:
        raise ValueError("slope must be positive")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xs = np.atleast_1d(arr).astype(float)
    v = np.empty_like(xs)

    a, in_dom = family.boundary_at(t)
    todo = np.ones(xs.shape, dtype=bool)
    if np.isfinite(a) and in_dom:
        k_at_a = float(family.k(t, [a])[0])
        on_segment = xs <= a + k_at_a / slope
        v[on_segment] = slope * (xs[on_segment] - a)
        todo &= ~on_segment

    if todo.any():
        xi = xs[todo]
        lo, klo, hi, khi = _bracket(family, t, xi, slope, a, in_dom)
        for step in range(_HALVINGS + 1):
            lower = np.maximum(slope * (xi - hi), klo)
            upper = np.minimum(slope * (xi - lo), khi)
            active = (hi - lo > _ROOT_WIDTH) & \
                (upper - lower > 1e-14 * (1 + np.abs(lower)))
            if step == _HALVINGS:
                # a bracket one float apart is as narrow as it can get
                ulp = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
                unresolved = active & (hi - lo > ulp)
                if unresolved.any():
                    gap = np.where(unresolved, upper - lower, -np.inf)
                    worst = int(np.argmax(gap))
                    raise NoBracket(
                        f"root search did not converge in {_HALVINGS} steps "
                        f"at t={t:g}, slope={slope:g}, x={xi[worst]:.17g}")
                break
            if not active.any():
                break
            if step == 0:
                # secant state: residuals f = g - x at the ends (f_lo < 0 <=
                # f_hi), which end moved last, and the widths one and two
                # steps back
                f_lo = lo + klo / slope - xi
                f_hi = hi + khi / slope - xi
                moved = np.zeros(xi.shape, dtype=np.int8)
                width_1 = width_2 = np.full_like(xi, np.inf)
            width = hi - lo
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                secant = lo - f_lo * (width / (f_hi - f_lo))
            # fmax/fmin also replace a nan secant by a clip bound
            secant = np.fmin(np.fmax(secant, lo + 0.5 * _ROOT_WIDTH),
                             hi - 0.5 * _ROOT_WIDTH)
            # a midpoint wherever the last two steps did not halve the bracket
            bisect = width > 0.5 * width_2
            mid = np.where(bisect, 0.5 * (lo + hi), secant)
            width_2, width_1 = width_1, width
            kmid = _floored(family.k(t, mid))
            f_mid = mid + kmid / slope - xi
            below = f_mid < 0
            up, down = active & below, active & ~below
            # Illinois: halve the residual of an end kept twice in a row;
            # midpoint steps leave the memory of the last secant step alone
            f_hi = np.where(up & (moved == 1), 0.5 * f_hi, f_hi)
            f_lo = np.where(down & (moved == -1), 0.5 * f_lo, f_lo)
            moved = np.where(active & ~bisect, np.where(below, 1, -1), moved)
            lo, klo = np.where(up, mid, lo), np.where(up, kmid, klo)
            hi, khi = np.where(down, mid, hi), np.where(down, kmid, khi)
            f_lo = np.where(up, f_mid, f_lo)
            f_hi = np.where(down, f_mid, f_hi)
        if np.any(upper < lower - 1e-6 * (1.0 + np.abs(lower))):
            raise NoBracket("inconsistent root-search state; "
                            "family evaluator is likely non-monotone")
        v[todo] = 0.5 * (lower + upper)

    if family.sign == "negative":
        np.minimum(v, 0.0, out=v)
    return float(v[0]) if scalar else v.reshape(arr.shape)


@dataclass(frozen=True)
class PenalizedOperator:
    """n-Lipschitz approximant k_n(t, .) of a monotone family."""

    family: MonotoneFamily
    level: int

    def __post_init__(self):
        if int(self.level) < 1:
            raise ValueError("penalization level must be >= 1")
        object.__setattr__(self, "level", int(self.level))

    def eval(self, t: float, x):
        return resolvent_ordinate(self.family, t, x, float(self.level))

    __call__ = eval


def truncate_shift(family: MonotoneFamily, n: int) -> MonotoneFamily:
    """Clamp-and-shift transform k(t, .) ^ n - n, graphs moved into R x R_-."""
    if family.sign != "real":
        raise ValueError("truncate_shift applies to real-valued families")
    if n < 1:
        raise ValueError("truncation level must be >= 1")
    body = family.body
    left = family.left_body

    def trunc_body(t, x, _b=body, _n=float(n)):
        return np.minimum(_b(t, x), _n) - _n

    trunc_left = None
    if left is not None:
        def trunc_left(t, x, _l=left, _n=float(n)):
            return np.minimum(_l(t, x), _n) - _n

    return replace(family, body=trunc_body, left_body=trunc_left,
                   sign="negative",
                   name=f"{family.name or 'family'}^min{n}-{n}")


# -- assumption validation --------------------------------------------------


@dataclass
class ValidationItem:
    name: str
    passed: bool
    statistic: float | None = None
    witness: tuple | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "statistic": self.statistic,
                "witness": list(self.witness) if self.witness else None}


@dataclass
class ValidationReport:
    items: list

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def item(self, name: str) -> ValidationItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "items": [it.to_dict() for it in self.items]}


def _midpoint_estimate(fn, grid: TimeGrid) -> tuple[float, tuple]:
    mids = 0.5 * (grid.times[:-1] + grid.times[1:])
    vals = np.array([fn(float(t)) for t in mids])
    est = float(np.sum(vals * grid.steps))
    worst = int(np.argmax(np.abs(vals))) if vals.size else 0
    return est, (float(mids[worst]), float(vals[worst]))


def _integrability_item(name, fn, grid, cap=1e12, ratio_cap=1.5):
    """Midpoint estimate plus a grid-doubling divergence test."""
    coarse, _ = _midpoint_estimate(fn, grid)
    fine, witness = _midpoint_estimate(fn, grid.refined(2))
    finite = np.isfinite(coarse) and np.isfinite(fine) and abs(fine) <= cap
    stable = fine <= ratio_cap * max(coarse, 1e-12) + 1e-9
    return ValidationItem(name, bool(finite and stable), fine,
                          None if (finite and stable) else witness), fine


def validate_assumptions(family: MonotoneFamily,
                         envelope: GrowthEnvelope | None,
                         grid: TimeGrid,
                         probe_points: Sequence[float]) -> ValidationReport:
    """Diagnostic checks of the local integrability and envelope assumptions.

    Probes must satisfy y > sup_t a_t so that k(., y) is defined along the
    whole grid.  Every item is flagged pass/fail with the offending sample;
    nothing is raised (diagnostic operation).
    """
    probes = np.atleast_1d(np.asarray(probe_points, dtype=float))
    check_times = np.union1d(grid.times, 0.5 * (grid.times[:-1] + grid.times[1:]))
    sup_a = float(family.barriers(check_times).max())
    if np.isfinite(sup_a) and np.any(probes <= sup_a):
        raise ValueError(f"probe points must exceed sup_t a_t = {sup_a}")

    items = []
    # (B.1): integral of |k(s, y)| ds for each probe
    for y in probes:
        item, _ = _integrability_item(
            f"B1[y={y:g}]",
            lambda s, _y=y: abs(float(family.k(s, [_y])[0])),
            grid)
        items.append(item)

    # (B.2): some probe z with finite integral of k(s, z)^2
    best = None
    b2_ok = False
    for z in probes:
        item, est = _integrability_item(
            f"_b2[z={z:g}]",
            lambda s, _z=z: float(family.k(s, [_z])[0])**2,
            grid)
        if best is None or est < best[1]:
            best = (item, est, z)
        b2_ok = b2_ok or item.passed
    items.append(ValidationItem("B2", b2_ok, best[1] if best else None,
                                None if b2_ok else best[0].witness))

    if family.sign == "negative":
        worst = -np.inf
        witness = None
        for t in grid.times:
            vals = family.k(float(t), probes)
            j = int(np.argmax(vals))
            if vals[j] > worst:
                worst, witness = float(vals[j]), (float(t), float(probes[j]))
        items.append(ValidationItem("negative_values", worst <= 1e-12, worst,
                                    None if worst <= 1e-12 else witness))

    if envelope is not None:
        items.extend(_envelope_items(family, envelope, grid, probes))
    return ValidationReport(items)


def default_probes(family: MonotoneFamily, grid: TimeGrid) -> np.ndarray:
    """Probe points 0.5, 1 and 2 above sup_t a_t (above 0 without a barrier)."""
    sup_a = family.barriers(grid.times).max()
    base = sup_a if np.isfinite(sup_a) else 0.0
    return base + np.array([0.5, 1.0, 2.0])


def _envelope_items(family, envelope, grid, probes):
    xs = np.unique(np.concatenate([probes, -probes, [0.0]]))
    times = grid.times
    ell = np.array([envelope(float(t), xs) for t in times])  # (T, X)

    items = []

    def add(name, ok, stat, witness):
        items.append(ValidationItem(name, bool(ok), stat,
                                    None if ok else witness))

    bad = np.argwhere(ell < -1e-12)
    add("C.nonnegative", bad.size == 0, float(ell.min()),
        None if bad.size == 0 else (float(times[bad[0][0]]), float(xs[bad[0][1]])))

    term = ell[-1]
    j = int(np.argmax(np.abs(term)))
    add("C.terminal_zero", np.all(np.abs(term) <= 1e-12), float(term[j]),
        (float(times[-1]), float(xs[j])))

    pre = ell[:-1]
    bad = np.argwhere(pre <= 0)
    add("C.positive_before_terminal", bad.size == 0, float(pre.min()),
        None if bad.size == 0 else (float(times[bad[0][0]]), float(xs[bad[0][1]])))

    dt_viol = ell[1:] - ell[:-1]  # ell increasing in t
    bad = np.argwhere(dt_viol > 1e-12)
    add("C.increasing_in_t", bad.size == 0, float(-dt_viol.max()),
        None if bad.size == 0 else (float(times[bad[0][0] + 1]), float(xs[bad[0][1]])))

    dx_viol = ell[:, 1:] - ell[:, :-1]  # ell increasing in x
    bad = np.argwhere(dx_viol < -1e-12)
    add("C.increasing_in_x", bad.size == 0, float(dx_viol.min()),
        None if bad.size == 0 else (float(times[bad[0][0]]), float(xs[bad[0][1] + 1])))

    growth = envelope.linear_growth_constant * (1.0 + np.abs(xs))
    excess = ell - growth[None, :]
    bad = np.argwhere(excess > 1e-9)
    add("C.linear_growth", bad.size == 0, float(excess.max()),
        None if bad.size == 0 else (float(times[bad[0][0]]), float(xs[bad[0][1]])))

    worst = -np.inf
    witness = None
    for t, a in zip(times, family.barriers(times)):
        mask = probes > a
        if not mask.any():
            continue
        kp = np.maximum(family.k(float(t), probes[mask]), 0.0)
        gap = kp - envelope(float(t), probes[mask])
        j = int(np.argmax(gap))
        if gap[j] > worst:
            worst, witness = float(gap[j]), (float(t), float(probes[mask][j]))
    add("C.dominates_k_plus", worst <= 1e-9, worst, witness)
    return items
