"""Time-indexed increasing families and their penalization approximants.

A :class:`MonotoneFamily` wraps pointwise evaluators of an increasing,
right-continuous map x -> k(t, x) on a moving domain with lower boundary a_t,
and declares its left limits and whether a_t is attained.  A piecewise-affine
k(t, .) is described once, by its pieces (:meth:`MonotoneFamily.piecewise`);
evaluators that disagree with declared pieces are refused.  The set-valued
operator fills jumps with vertical segments and, at a closed boundary,
attaches the ray ]-inf, k(t, a_t)] at x = a_t; at an open one k tends to -inf
and k is never evaluated at a_t.  :class:`PenalizedOperator` produces the
n-Lipschitz approximants k_n(t, .) (Yosida approximations) by intersecting
that graph with lines of slope -n.  On declared pieces the resolvent
(I + k/n)^-1 has a closed form (Brezis 1973, ch. II): one count of x against
the values of u + k(t, u)/n at the breaks and one affine solve, with no
evaluation of k.  Other families take a bracket walk and a safeguarded
Illinois (regula falsi) search for the root of the strictly increasing map
u -> u + k(t, u)/n, as whole-array ``np.where`` updates.
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


@dataclass(frozen=True)
class MonotoneFamily:
    """Evaluators for k(t, .), its left limits and its moving boundary.

    The family declares the facts of the operator that no finite number of
    evaluations can settle: where k(t, .) jumps (through ``left_body``),
    whether a_t is attained (``closed``) and, optionally, the affine pieces of
    k(t, .) (``pieces``), on which k_n needs no evaluation of k.
    :meth:`piecewise` derives ``body`` and ``left_body`` from the pieces.

    Parameters
    ----------
    body : callable
        ``body(t, x)`` with ``x`` a float ndarray, vectorized in x; must be
        nondecreasing and right-continuous in x for each t.
    boundary : callable
        ``boundary(t)`` -> a_t, may return ``-inf`` for full-line domains.
        Only :meth:`barriers` calls it.
    left_body : callable, optional
        ``left_body(t, x)`` -> k_-(t, x) at interior points.  None declares
        k(t, .) continuous, so that k_- = k.
    pieces : callable, optional
        ``pieces(t)`` -> ``(breaks, k_left, k_right, slopes)``, float arrays
        that declare k(t, .) piecewise affine on the domain: increasing
        breaks b_j (at least one; a constant k uses one as its anchor),
        k_-(t, b_j) and k(t, b_j), and the slope of k on each of the
        intervals between and beyond the breaks (one more than the breaks).
        :meth:`check_pieces` checks them against ``body`` and ``left_body``
        at each break, inside each interior piece and one beyond each end,
        within the domain, to 1e-12 relative and absolute, at t = 0 and at a
        ``Problem``'s horizon.  A mismatch, such as a ``dataclasses.replace``
        of one of the three alone, raises ValueError.
        None (the default) leaves k_n to the numeric root search.
    closed : bool
        True declares a finite a_t part of the domain: k(t, a_t) is finite
        and the ray ]-inf, k(t, a_t)] is attached at x = a_t.  False declares
        the boundary open: k(t, x) -> -inf as x decreases to a_t, and k is
        never evaluated at a_t.
    sign : str
        ``"negative"`` for graphs in R x R_- (penalization setting) or
        ``"real"`` for the general truncation-concatenation setting.
    """

    body: Callable[[float, np.ndarray], np.ndarray]
    boundary: Callable[[float], float]
    left_body: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    pieces: Optional[Callable[[float], tuple]] = None
    closed: bool = False
    sign: str = "negative"
    name: str = ""

    def __post_init__(self):
        if self.sign not in ("negative", "real"):
            raise ValueError("sign must be 'negative' or 'real'")
        self.check_pieces(0.0)

    def check_pieces(self, t: float) -> None:
        """Refuse a body or left_body that leaves the pieces at time t."""
        if self.pieces is None:
            return
        pieces, a = self.pieces(t), float(self.barriers(t)[0])
        b = np.asarray(pieces[0], dtype=float)
        xs = np.concatenate([b, 0.5 * (b[:-1] + b[1:]), [b[0] - 1, b[-1] + 1]])
        right, left = xs[(xs > a) | ((xs == a) & self.closed)], xs[xs > a]
        got = np.append(self.k(t, right), self.left(t, left))
        want = np.append(_piece_values(pieces, right),
                         _piece_values(pieces, left, True))
        bad = np.flatnonzero(~np.isclose(got, want, rtol=1e-12, atol=1e-12))
        if bad.size:
            j, x = bad[0], np.append(right, left)[bad[0]]
            raise ValueError(
                f"{'body' if j < right.size else 'left_body'} of family '{self.name}' "
                f"disagrees with its pieces at t={t:g}, x={x:.17g}: {got[j]:.17g} "
                f"against {want[j]:.17g}")

    @classmethod
    def piecewise(cls, pieces, boundary, closed: bool = False,
                  sign: str = "negative", name: str = "") -> "MonotoneFamily":
        """The family whose k(t, .) is the piecewise-affine map declared by
        ``pieces(t)``; ``body`` and ``left_body`` read it off the pieces."""
        def reader(left):
            return lambda t, x: _piece_values(pieces(t), x, left)
        return cls(reader(False), boundary, reader(True), pieces, closed, sign, name)

    # -- evaluation ---------------------------------------------------------

    def k(self, t: float, x) -> np.ndarray:
        return np.asarray(self.body(t, np.asarray(x, dtype=float)), dtype=float)

    def barriers(self, times) -> np.ndarray:
        """Boundary points a_t per time, -inf where a_t is not finite."""
        a = np.array([float(self.boundary(float(t))) for t in np.atleast_1d(times)])
        a[~np.isfinite(a)] = -np.inf
        return a

    def eval(self, t: float, x: float, side: str = "right") -> float:
        """k(t, x) or its left limit k_-(t, x).

        Raises
        ------
        DomainViolation
            If x < a_t, if x = a_t with an open boundary, or on a left-eval
            at x = a_t (no left limit exists at the boundary).
        """
        a = float(self.barriers(t)[0])
        if x < a:
            raise DomainViolation(f"x={x} below boundary a_t={a}")
        if x == a and not self.closed:
            raise DomainViolation(f"boundary point a_t={a} not in the domain")
        if side == "right":
            return float(self.k(t, [x])[0])
        if side != "left":
            raise ValueError("side must be 'right' or 'left'")
        if x == a:
            raise DomainViolation("no left limit at the boundary point")
        return float(self.left(t, np.array([x]))[0])

    def left(self, t: float, x: np.ndarray) -> np.ndarray:
        """Vectorized left limits at interior points."""
        body = self.body if self.left_body is None else self.left_body
        return np.asarray(body(t, np.asarray(x, dtype=float)), dtype=float)

    def map_values(self, cap: float = np.inf, shift: float = 0.0,
                   **changes) -> "MonotoneFamily":
        """This family with every value v of k and k_- mapped to
        min(v, cap) + shift; ``changes`` replace other fields.  A family
        with pieces maps only them, with a break where a piece reaches the
        cap, and is rebuilt by :meth:`piecewise`."""
        if self.pieces is not None:
            pieces = self.pieces
            return MonotoneFamily.piecewise(
                lambda t: _capped(pieces(t), cap, shift), **{
                    "boundary": self.boundary, "closed": self.closed,
                    "sign": self.sign, "name": self.name, **changes})
        body, left = self.body, self.left_body

        def fn(v):
            return np.minimum(v, cap) + shift

        return replace(
            self, body=lambda t, x: fn(body(t, x)),
            left_body=None if left is None else lambda t, x: fn(left(t, x)),
            **changes)

    def graph_contains(self, t: float, x: float, y: float, atol: float = 1e-12) -> bool:
        """Whether (x, y) lies in Gr(k_t), including fill-ins and boundary ray."""
        return bool(self.graph_contains_many(t, np.array([x]), np.array([y]), atol)[0])

    def graph_contains_many(self, t: float, x: np.ndarray, y: np.ndarray,
                            atol: float = 1e-12) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        a = float(self.barriers(t)[0])
        out = np.zeros(x.shape, dtype=bool)
        interior = x > a
        if interior.any():
            xi = x[interior]
            hi = self.k(t, xi)
            lo = self.left(t, xi)
            out[interior] = (y[interior] >= lo - atol) & (y[interior] <= hi + atol)
        if np.isfinite(a) and self.closed:
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
_K_FLOOR = -2e12          # stands in for a non-finite k value


def _floored(kv: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(kv), kv, _K_FLOOR)


def _floored_k(family: MonotoneFamily, t: float, a: float):
    """u -> k(t, u) with non-finite values floored.

    At an open boundary the floor also stands in for k at and below a_t,
    where k is never evaluated: k -> -inf there.
    """
    if not np.isfinite(a) or family.closed:
        return lambda u: _floored(family.k(t, u))

    def k(u):
        inside = u > a
        kv = family.k(t, np.where(inside, u, a + 1.0))
        return np.where(inside, _floored(kv), _K_FLOOR)

    return k


def _walk(k, t, x, slope, candidate, steps, upper):
    """Move each point along candidate(0), candidate(1), ... until it brackets x.

    A point stops once g(u) = u + k(u)/slope >= x (``upper``) or g(u) < x, and
    keeps its position after that, so k only sees candidates a point visits.
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
                            f"within the search range at t={t:g}, "
                            f"slope={slope:g}, x={x[np.argmax(need)]:.17g}; "
                            "is k monotone?")
        u = np.where(need, candidate(j), u)
        ku = np.where(need, k(u), ku)


def _bracket(family: MonotoneFamily, t: float, x: np.ndarray, slope: float,
             a: float, k_floored):
    """Find lo < hi with g(lo) < x <= g(hi) for g(u) = u + k(t,u)/slope."""
    def k(u):
        return family.k(t, u)

    # upper end: k is nondecreasing, so g(u) -> +inf; start inside the domain
    base = np.maximum(x, a)
    hi, khi = _walk(k, t, x, slope, lambda j: base + 2.0**j, _DOUBLINGS, True)
    if not np.isfinite(a):
        lo, klo = _walk(k, t, x, slope, lambda j: x - 2.0**j, _DOUBLINGS,
                        False)
    elif family.closed:
        # callers exclude the vertical segment, so g(a) < x holds here
        lo, klo = np.full_like(x, a), k(np.full_like(x, a))
    else:
        # k -> -inf at the open boundary; slide down towards it.  Where the
        # root lies within one float of a_t, a candidate rounds onto a_t and
        # ends the walk there with k = _K_FLOOR; the ordinate is then
        # slope*(x - a_t), up to the root search's width
        gap = np.maximum(1.0, x - a)
        lo, klo = _walk(k_floored, t, x, slope, lambda j: a + gap / 2.0**j,
                        _HALVINGS, False)
    return lo, klo, hi, khi


def _region(edges: np.ndarray, x: np.ndarray, side: str = "left"):
    """``np.searchsorted(edges, x, side)``, by one comparison per edge."""
    return sum(x > e if side == "left" else x >= e for e in edges)


def _piece_values(pieces, x, left: bool = False) -> np.ndarray:
    """k(t, x) read off the pieces of k(t, .), or with ``left`` k_-(t, x).
    Region j of x follows break j - 1 and is anchored there, region 0 at the
    first break; x is its region's anchor only at a break, where k_- differs."""
    b, k_left, k_right, slopes = (np.asarray(p, dtype=float) for p in pieces)
    x = np.asarray(x, dtype=float)
    j = _region(b, x, "right")
    at = np.concatenate([b[:1], b])[j]
    v = np.concatenate([k_left[:1], k_right])[j] + slopes[j] * (x - at)
    if left:
        v = np.where(x == at, np.concatenate([k_left[:1], k_left])[j], v)
    return v


def _affine_ordinate(pieces, x: np.ndarray, slope: float) -> np.ndarray:
    """k_n at x in closed form on the pieces (see :func:`resolvent_ordinate`).

    Region 2j of x is the piece up to break j, anchored there; region 2j+1
    the jump at break j; region 2m the piece after the last break, anchored
    at it.  Each region's ordinate is the line v0 + c (x - x0).
    """
    b, k_left, k_right, slopes = pieces
    m = b.size
    g_left, g_right = b + k_left / slope, b + k_right / slope
    edges = np.empty(2 * m)
    edges[0::2], edges[1::2] = g_left, g_right
    x0, v0, c = np.empty((3, 2 * m + 1))
    x0[0:-1:2], x0[1::2], x0[-1] = g_left, b, g_right[-1]
    v0[0:-1:2], v0[1::2], v0[-1] = k_left, 0.0, k_right[-1]
    c[0::2], c[1::2] = slopes / (1.0 + slopes / slope), slope
    j = _region(edges, x)
    return v0[j] + (x - x0[j]) * c[j]


def _capped(pieces, cap: float, shift: float) -> tuple:
    """The pieces of min(k, cap) + shift, given those of k.

    k is flat from the first point where it reaches the cap: a break is put
    there when the point lies inside a piece, and later breaks go.
    """
    b, k_left, k_right, slopes = (np.asarray(p, dtype=float) for p in pieces)
    if cap < np.inf:
        # k at the right end of each piece, the last one's as its limit
        end = np.append(k_left, k_right[-1] if slopes[-1] == 0 else np.inf)
        i = int(np.searchsorted(end, cap))   # the first piece to reach it
        if i <= b.size:
            start = k_right[i - 1] if i else \
                (k_left[0] if slopes[0] == 0 else -np.inf)
            if start < cap:                   # inside piece i
                at, k_at = (b[i - 1], k_right[i - 1]) if i else \
                    (b[0], k_left[0])
                b = np.append(b[:i], at + (cap - k_at) / slopes[i])
                k_left = np.append(k_left[:i], cap)
                k_right = np.append(k_right[:i], cap)
            else:                             # at the break before it
                keep = max(i, 1)
                b, k_left, k_right = b[:keep], k_left[:keep], k_right[:keep]
            slopes = np.append(slopes[:b.size], 0.0)
    return (b, np.minimum(k_left, cap) + shift,
            np.minimum(k_right, cap) + shift, slopes)


def _root_ordinate(family: MonotoneFamily, t: float, x: np.ndarray,
                   slope: float, a: float) -> np.ndarray:
    """k_n at points off the closed boundary's segment by the root search."""
    # a resolved point's midpoint may round onto lo = a_t
    k_floored = _floored_k(family, t, a)
    lo, klo, hi, khi = _bracket(family, t, x, slope, a, k_floored)
    for step in range(_HALVINGS + 1):
        lower = np.maximum(slope * (x - hi), klo)
        upper = np.minimum(slope * (x - lo), khi)
        # no float lies inside a bracket whose midpoint rounds onto an end
        mid = 0.5 * (lo + hi)
        active = (hi - lo > _ROOT_WIDTH) & (lo < mid) & (mid < hi) & \
            (upper - lower > 1e-14 * (1 + np.abs(lower)))
        if not active.any():
            break
        if step == _HALVINGS:
            gap = np.where(active, upper - lower, -np.inf)
            worst = int(np.argmax(gap))
            raise NoBracket(
                f"root search did not converge in {_HALVINGS} steps "
                f"at t={t:g}, slope={slope:g}, x={x[worst]:.17g}")
        if step == 0:
            # secant state: residuals f = g - x at the ends (f_lo < 0 <=
            # f_hi), which end moved last, and the widths one and two
            # steps back
            f_lo = lo + klo / slope - x
            f_hi = hi + khi / slope - x
            moved = np.zeros(x.shape, dtype=np.int8)
            width_1 = width_2 = np.full_like(x, np.inf)
        width = hi - lo
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = lo - f_lo * (width / (f_hi - f_lo))
        # fmax/fmin also replace a nan secant by a clip bound
        secant = np.fmin(np.fmax(secant, lo + 0.5 * _ROOT_WIDTH),
                         hi - 0.5 * _ROOT_WIDTH)
        # where floats are wider apart than the clip, one float inside
        at_lo, at_hi = active & (secant <= lo), active & (secant >= hi)
        if at_lo.any() or at_hi.any():
            secant = np.where(at_lo, np.nextafter(lo, hi), np.where(
                at_hi, np.nextafter(hi, lo), secant))
        # a midpoint wherever the last two steps did not halve the bracket
        bisect = width > 0.5 * width_2
        mid = np.where(bisect, mid, secant)
        width_2, width_1 = width_1, width
        kmid = k_floored(mid)
        f_mid = mid + kmid / slope - x
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
    # u is resolved to about one float spacing, which slope scales
    if np.any(upper < lower - 1e-6 * (1.0 + np.abs(lower)) - 4 * slope
              * np.spacing(np.fmax(np.abs(x), np.abs(hi)))):
        raise NoBracket("inconsistent root-search state; "
                        "family evaluator is likely non-monotone")
    return 0.5 * (lower + upper)


def resolvent_ordinate(family: MonotoneFamily, t: float, x, slope: float):
    """Ordinate of Gr(k_t) intersected with the line of slope -`slope` through (x, 0).

    This is the Lipschitz approximant value k_n(t, x) for slope = n.  The
    intersection abscissa u solves u + k_t(u)/slope = x.  When the line passes
    below the graph's lower end at an attained boundary, the intersection lies
    on the vertical segment: v = slope*(x - a_t).

    Where the family declares ``pieces``, g(u) = u + k_t(u)/slope is affine
    between the breaks b_j and jumps from g(b_j-) to g(b_j) at them.  A
    count of x against those values places each point on a piece or
    on a jump, and one affine solve gives the ordinate: on a piece with slope
    beta anchored at a break b, k(b) + (x - g(b)) beta/(1 + beta/slope); on a
    jump at b_j, u = b_j exactly and v = slope*(x - b_j).  k(t, a_t) comes
    from the pieces too, so k is never evaluated.

    Other points are bracketed by :func:`_walk`, and the bracket lo < hi with
    g(lo) < x <= g(hi) shrinks by masked whole-array updates.  Each step
    evaluates the regula falsi point of the residuals g - x at the ends, with
    the Illinois rule (Dowell and Jarratt 1971) and clipped _ROOT_WIDTH/2,
    and at least one float, inside the bracket, or the midpoint wherever the
    last two steps did not halve the bracket, so the bracket halves at least
    every third step.  On piecewise-linear k the secant lands on the root.  A
    point is resolved once its bracket is _ROOT_WIDTH narrow or holds no
    float.  The ordinate is pinned by the intersection of the line interval
    [slope*(x-hi), slope*(x-lo)] with the graph interval [k(t,lo), k(t,hi)],
    which the brackets shrink around.  a_t is read once per call, and k is
    evaluated at a_t only when the family declares it ``closed``.

    Raises
    ------
    NoBracket
        Without pieces: if no bracket exists within the search range, if a
        point is still unresolved after _HALVINGS steps, or if the final
        intervals are inconsistent (a non-monotone evaluator).
    """
    if slope <= 0:
        raise ValueError("slope must be positive")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xs = np.atleast_1d(arr).astype(float)
    v = np.empty_like(xs)

    a = float(family.barriers(t)[0])
    pieces = None if family.pieces is None else \
        [np.asarray(p, dtype=float) for p in family.pieces(t)]
    todo = np.ones(xs.shape, dtype=bool)
    if np.isfinite(a) and family.closed:
        k_at_a = float((family.k(t, [a]) if pieces is None
                        else _piece_values(pieces, [a]))[0])
        on_segment = xs <= a + k_at_a / slope
        v[on_segment] = slope * (xs[on_segment] - a)
        todo &= ~on_segment

    if todo.any():
        xi = xs[todo]
        v[todo] = (_root_ordinate(family, t, xi, slope, a) if pieces is None
                   else _affine_ordinate(pieces, xi, slope))

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
    return family.map_values(cap=float(n), shift=-float(n), sign="negative",
                             name=f"{family.name or 'family'}^min{n}-{n}")


# -- assumption validation --------------------------------------------------


@dataclass
class ValidationItem:
    name: str
    passed: bool
    statistic: float | None = None
    witness: tuple | None = None


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


def _midpoint_estimate(fn, grid: TimeGrid) -> tuple[float, tuple]:
    mids = 0.5 * (grid.times[:-1] + grid.times[1:])
    vals = np.array([fn(float(t)) for t in mids])
    est = float(np.sum(vals * grid.steps))
    worst = int(np.argmax(np.abs(vals))) if vals.size else 0
    return est, (float(mids[worst]), float(vals[worst]))


def _integrability_item(name, fn, grid, cap=1e12, ratio_cap=1.5):
    """Midpoint estimate plus a grid-doubling divergence test."""
    coarse, _ = _midpoint_estimate(fn, grid)
    fine, witness = _midpoint_estimate(fn, grid.refined())
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
