"""Time-indexed increasing families and their penalization approximants.

A :class:`MonotoneFamily` wraps pointwise evaluators of an increasing,
right-continuous map x -> k(t, x) on a moving domain with lower boundary a_t.
The associated set-valued operator fills jumps with vertical segments and, when
the boundary point belongs to the domain, attaches the ray ]-inf, k(t, a_t)] at
x = a_t.  :class:`PenalizedOperator` produces the n-Lipschitz approximants
k_n(t, .) by intersecting that graph with lines of slope -n, computed by
bisection on the strictly increasing map u -> u + k(t, u)/n.
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

_ROOT_WIDTH = 1e-10       # bisection stops once the bracket is this narrow
_BRACKET_RADIUS = 1e6     # farthest the bracket search moves from x


def _bracket(family: MonotoneFamily, t: float, x: np.ndarray, slope: float,
             a: float, in_dom: bool):
    """Find lo < hi with g(lo) < x <= g(hi) for g(u) = u + k(t,u)/slope."""
    # upper end: since k is нondecreasing, g(u) >= u + k(x0)/slope -> +inf
    hi = x + 1.0
    khi = family.k(t, hi)
    need = hi + khi / slope < x
    width = 1.0
    while need.any():
        width *= 2.0
        if width > _BRACKET_RADIUS:
            raise NoBracket("no upper bracket within the search radius; "
                            "is the family evaluator monotone?")
        hi_new = x[need] + width
        k_new = family.k(t, hi_new)
        hi[need], khi[need] = hi_new, k_new
        need = hi + khi / slope < x

    lo = np.empty_like(x)
    klo = np.empty_like(x)
    if not np.isfinite(a):
        lo = x - 1.0
        klo = family.k(t, lo)
        need = lo + klo / slope >= x
        width = 1.0
        while need.any():
            width *= 2.0
            if width > _BRACKET_RADIUS:
                raise NoBracket("no lower bracket within the search radius")
            lo_new = x[need] - width
            k_new = family.k(t, lo_new)
            lo[need], klo[need] = lo_new, k_new
            need = lo + klo / slope >= x
    elif in_dom:
        # callers exclude the vertical segment, so g(a) < x holds here
        lo.fill(a)
        klo[:] = family.k(t, np.full_like(x, a))
    else:
        # k -> -inf at the open boundary; slide down towards it
        gap = np.maximum(1.0, x - a)
        lo = a + gap
        klo = family.k(t, lo)
        bad = ~np.isfinite(klo)
        klo[bad] = _NEG_INF_CUTOFF * 2
        need = lo + klo / slope >= x
        for _ in range(200):
            if not need.any():
                break
            gap = gap / 2.0
            lo_new = a + gap[need]
            if np.any(lo_new <= a):
                raise NoBracket("boundary limit of k appears finite although "
                                "the boundary point is outside the domain")
            k_new = family.k(t, lo_new)
            k_new[~np.isfinite(k_new)] = _NEG_INF_CUTOFF * 2
            lo[need], klo[need] = lo_new, k_new
            need = lo + klo / slope >= x
        if need.any():
            raise NoBracket("no lower bracket above the open boundary")
    return lo, klo, hi, khi


def resolvent_ordinate(family: MonotoneFamily, t: float, x, slope: float):
    """Ordinate of Gr(k_t) intersected with the line of slope -`slope` through (x, 0).

    This is the Lipschitz approximant value k_n(t, x) for slope = n.  The
    intersection abscissa u solves u + k_t(u)/slope = x; it is found by
    bisection, and the ordinate is pinned by the intersection of the line
    interval [slope*(x-hi), slope*(x-lo)] with the graph interval
    [k(t,lo), k(t,hi)], which brackets shrink around.  When the line passes
    below the graph's lower end at an attained boundary, the intersection lies
    on the vertical segment: v = slope*(x - a_t).
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

    idx = np.nonzero(todo)[0]
    if idx.size:
        xi = xs[idx]
        lo, klo, hi, khi = _bracket(family, t, xi, slope, a, in_dom)
        lower = np.maximum(slope * (xi - hi), klo)
        upper = np.minimum(slope * (xi - lo), khi)
        active = (hi - lo > _ROOT_WIDTH) & (upper - lower > 1e-14 * (1 + np.abs(lower)))
        for _ in range(200):
            if not active.any():
                break
            mid = 0.5 * (lo[active] + hi[active])
            kmid = family.k(t, mid)
            kmid[~np.isfinite(kmid)] = _NEG_INF_CUTOFF * 2
            below = mid + kmid / slope < xi[active]
            sel = np.nonzero(active)[0]
            up, down = sel[below], sel[~below]
            lo[up], klo[up] = mid[below], kmid[below]
            hi[down], khi[down] = mid[~below], kmid[~below]
            lower = np.maximum(slope * (xi - hi), klo)
            upper = np.minimum(slope * (xi - lo), khi)
            active = (hi - lo > _ROOT_WIDTH) & \
                (upper - lower > 1e-14 * (1 + np.abs(lower)))
        if np.any(upper < lower - 1e-6 * (1.0 + np.abs(lower))):
            raise NoBracket("inconsistent bisection state; "
                            "family evaluator is likely non-monotone")
        v[idx] = 0.5 * (lower + upper)

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
