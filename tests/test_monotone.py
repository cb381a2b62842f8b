import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsdej import (DomainViolation, GrowthEnvelope, MarkSpace, MonotoneFamily,
                    NoBracket, PenalizedOperator, Problem, TimeGrid,
                    resolvent_ordinate, truncate_shift, validate_assumptions)
from mbsdej import monotone
from mbsdej.registry import (FAMILIES, make_driver, make_envelope, make_family,
                             make_terminal)


def constant_family(c=-1.0):
    return MonotoneFamily(body=lambda t, x: np.full_like(x, c),
                          boundary=lambda t: -np.inf, sign="negative")


def step_family():
    """k = -1 for x < 1, 0 for x >= 1, on all of R."""
    return MonotoneFamily(body=lambda t, x: np.where(x < 1.0, -1.0, 0.0),
                          left_body=lambda t, x: np.where(x <= 1.0, -1.0, 0.0),
                          boundary=lambda t: -np.inf, sign="negative")


def a_t(t):
    """A moving boundary, below 0 before t = 0.5 and above it after."""
    return 0.6 * t - 0.3


# open moving boundaries: k -> -inf as x decreases to a_t
LOG_OPEN = MonotoneFamily(
    body=lambda t, x: np.minimum(np.log(x - a_t(t)), 0.0), boundary=a_t)
INVERSE_OPEN = MonotoneFamily(body=lambda t, x: -1.0 / (x - a_t(t)),
                              boundary=a_t)

GRID = TimeGrid.uniform(1.0, 4)
REFLECT = make_family("reflect_at", {"a": 0.0}, GRID)
MIN_ZERO = make_family("min_zero", {}, GRID)
NEG_EXP = make_family("neg_exp", {}, GRID)


class TestEval:
    def test_constant(self):
        assert constant_family().eval(0.5, 2.0, "right") == -1.0

    def test_step_left_right(self):
        fam = step_family()
        assert fam.eval(0.0, 1.0, "left") == -1.0
        assert fam.eval(0.0, 1.0, "right") == 0.0

    def test_min_zero_identity_on_negatives(self):
        assert MIN_ZERO.eval(0.0, -0.3, "right") == pytest.approx(-0.3)

    def test_below_boundary_raises(self):
        with pytest.raises(DomainViolation):
            REFLECT.eval(0.0, -0.1, "right")

    def test_left_eval_at_boundary_raises(self):
        with pytest.raises(DomainViolation):
            REFLECT.eval(0.0, 0.0, "left")

    def test_boundary_point_outside_domain_raises(self):
        fam = MonotoneFamily(body=lambda t, x: -1.0 / x,
                             boundary=lambda t: 0.0, sign="negative")
        with pytest.raises(DomainViolation):
            fam.eval(0.3, 0.0, "right")

    def test_continuous_family_left_limit_is_k(self):
        # no left_body declares k continuous: k_- is k, at one evaluation
        fam, calls = _counted(NEG_EXP)
        xs = np.linspace(-2.0, 2.0, 9)
        assert fam.left_body is None
        assert np.array_equal(fam.left(0.0, xs), fam.k(0.0, xs))
        assert len(calls) == 2

    @pytest.mark.parametrize("t", [0.0, 0.5, 0.9])
    def test_open_moving_boundary_is_never_evaluated(self, t):
        # log 0 would raise under errstate(all="raise")
        a = a_t(t)
        with np.errstate(all="raise"):
            with pytest.raises(DomainViolation):
                LOG_OPEN.eval(t, a)
            assert not LOG_OPEN.graph_contains(t, a, -1.0)
            assert not LOG_OPEN.graph_contains(t, a, -1e300)
            assert LOG_OPEN.graph_contains(t, a + 0.5, np.log(0.5))


class TestBoundary:
    def test_reflection_boundary_in_domain(self):
        assert REFLECT.closed and REFLECT.barriers(0.3)[0] == 0.0
        assert REFLECT.graph_contains(0.3, 0.0, -5.0)

    def test_infinite_limit_excludes_boundary(self):
        fam = MonotoneFamily(body=lambda t, x: -1.0 / x,
                             boundary=lambda t: 0.0, sign="negative")
        assert not fam.closed and fam.barriers(0.3)[0] == 0.0
        assert not fam.graph_contains(0.3, 0.0, -5.0)

    def test_full_line(self):
        assert MIN_ZERO.barriers(0.3)[0] == -np.inf and not MIN_ZERO.closed


class TestGraphContains:
    def test_step_fill_in_segment(self):
        assert step_family().graph_contains(0.0, 1.0, -0.5)

    def test_boundary_ray(self):
        assert REFLECT.graph_contains(0.0, 0.0, -7.0)

    def test_below_domain(self):
        assert not REFLECT.graph_contains(0.0, -0.1, 0.0)

    def test_above_graph(self):
        assert not step_family().graph_contains(0.0, 1.0, 0.5)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 1),
           st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_operator_monotonicity(self, x, u, fy, fv):
        """Any two graph points (x,y), (u,v) satisfy (y-v)(x-u) >= 0."""
        fam = step_family()
        # pick y, v inside the respective graph intervals
        def point(a, frac):
            hi = float(fam.k(0.0, [a])[0])
            lo = float(fam.left(0.0, np.array([a]))[0])
            return lo + frac * (hi - lo)
        y, v = point(x, fy), point(u, fv)
        assert fam.graph_contains(0.0, x, y)
        assert (y - v) * (x - u) >= -1e-12


class TestPenalizedEval:
    def test_reflection_closed_form(self):
        op = PenalizedOperator(REFLECT, 4)
        assert op.eval(0.5, -0.5) == pytest.approx(-2.0, abs=1e-12)
        assert op.eval(0.5, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_constant_graph(self):
        op = PenalizedOperator(constant_family(), 7)
        assert op.eval(0.0, 0.7) == pytest.approx(-1.0, abs=1e-10)

    def test_neg_exp_against_brute_force(self):
        # independent oracle: scan u + k(u)/n = x on a fine grid, refine twice
        def brute(n, x):
            lo, hi = x - 3.0, x + 3.0
            for _ in range(3):
                us = np.linspace(lo, hi, 20001)
                g = us - np.exp(-us) / n
                j = int(np.searchsorted(g, x))
                lo, hi = us[max(j - 1, 0)], us[min(j, us.size - 1)]
            u = 0.5 * (lo + hi)
            return n * (x - u)

        op = PenalizedOperator(NEG_EXP, 1)
        assert op.eval(0.0, 0.0) == pytest.approx(brute(1, 0.0), abs=1e-7)
        assert op.eval(0.0, 0.0) == pytest.approx(-0.567143, abs=1e-6)
        op3 = PenalizedOperator(NEG_EXP, 3)
        assert op3.eval(0.0, 1.2) == pytest.approx(brute(3, 1.2), abs=1e-7)

    def test_step_family_jump_segment(self):
        # slope-n line through (1, 0) hits the vertical fill-in at x = 1
        op = PenalizedOperator(step_family(), 2)
        assert op.eval(0.0, 1.0) == pytest.approx(0.0, abs=1e-9)
        v = op.eval(0.0, 0.9)
        assert -1.0 - 1e-9 <= v <= 0.0

    def test_open_boundary_family(self):
        fam = MonotoneFamily(body=lambda t, x: -1.0 / x,
                             boundary=lambda t: 0.0, sign="negative")
        v = resolvent_ordinate(fam, 0.0, 0.5, 2.0)
        # intersection solves u - 1/(2u) = 1/2 on (0, inf)
        u = np.roots([2.0, -1.0, -1.0])
        u = float(u[u > 0][0])
        assert v == pytest.approx(2.0 * (0.5 - u), abs=1e-8)

    def test_non_monotone_body_raises(self):
        bad = MonotoneFamily(body=lambda t, x: -x**2,
                             boundary=lambda t: -np.inf, sign="negative")
        with pytest.raises(NoBracket):
            resolvent_ordinate(bad, 0.0, np.linspace(-3, 3, 7), 1.0)

    def test_no_bracket_names_its_witness(self):
        # g(u) = u - u^2/2 never reaches x = 1 or more, so the upper walk
        # stops at the first of those points
        bad = MonotoneFamily(body=lambda t, x: -x**2,
                             boundary=lambda t: -np.inf, sign="negative")
        with pytest.raises(NoBracket, match=r"^no upper bracket within the "
                           r"search range at t=0\.25, slope=2, x=1; "):
            resolvent_ordinate(bad, 0.25, np.linspace(-3, 3, 7), 2.0)

    @given(st.integers(1, 12), st.floats(-2, 2))
    @settings(max_examples=150, deadline=None)
    def test_decreasing_in_level(self, exponent, x):
        lo = PenalizedOperator(MIN_ZERO, 2**(exponent - 1)).eval(0.0, x)
        hi = PenalizedOperator(MIN_ZERO, 2**exponent).eval(0.0, x)
        assert hi <= lo + 2e-10

    @given(st.integers(1, 64), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=150, deadline=None)
    def test_lipschitz_n(self, n, x, x2):
        op = PenalizedOperator(NEG_EXP, n)
        assert abs(op.eval(0.0, x) - op.eval(0.0, x2)) <= n * abs(x - x2) + 2e-10

    def test_negative_mode_stays_negative(self):
        for fam in (REFLECT, MIN_ZERO, NEG_EXP, step_family()):
            vals = resolvent_ordinate(fam, 0.0, np.linspace(-2, 3, 11), 5.0)
            assert np.all(vals <= 0.0)

    def test_divergence_off_domain(self):
        op = PenalizedOperator(REFLECT, 2**20)
        assert op.eval(0.0, -2.0) <= -1e6


class TestTruncateShift:
    def test_paper_example_values(self):
        fam = make_family("linear_decay", {}, GRID)  # k = (T - t) x, T = 1
        hat = truncate_shift(fam, 2)
        assert hat.k(0.0, [1.0])[0] == pytest.approx(-1.0)   # min(1,2)-2
        assert hat.k(0.0, [5.0])[0] == pytest.approx(0.0)    # clamp active
        assert hat.sign == "negative"

    def test_round_trip_below_clamp(self):
        fam = make_family("linear_decay", {}, GRID)
        hat = truncate_shift(fam, 3)
        xs = np.linspace(-4.0, 2.9, 10)  # k(0, x) = x < 3 here
        assert np.allclose(hat.k(0.0, xs) + 3, fam.k(0.0, xs))

    def test_requires_real_sign(self):
        with pytest.raises(ValueError):
            truncate_shift(MIN_ZERO, 2)


class TestValidateAssumptions:
    def test_reflection_all_pass(self):
        report = validate_assumptions(REFLECT, None, GRID, [1.0])
        assert report.passed
        assert report.item("B1[y=1]").statistic == pytest.approx(0.0)
        assert report.item("B2").passed

    def test_paper_envelope_dominates(self):
        fam = make_family("linear_decay", {}, GRID)
        env = make_envelope("linear_decay", {}, GRID)
        report = validate_assumptions(fam, env, GRID, [0.5, 1.0, 2.0])
        assert report.item("C.dominates_k_plus").passed
        assert report.passed

    def test_nonzero_terminal_envelope_fails_with_witness(self):
        fam = make_family("linear_decay", {}, GRID)
        env = GrowthEnvelope(lambda t, x: np.full_like(x, 0.1),
                             linear_growth_constant=1.0)
        report = validate_assumptions(fam, env, GRID, [1.0])
        item = report.item("C.terminal_zero")
        assert not item.passed
        assert item.witness[0] == pytest.approx(GRID.horizon)

    def test_b2_violation_flagged(self):
        bad = make_family("blowup_near_terminal", {}, GRID)
        report = validate_assumptions(bad, None, GRID, [1.0, 2.0])
        assert not report.item("B2").passed

    def test_probe_below_barrier_rejected(self):
        with pytest.raises(ValueError):
            validate_assumptions(REFLECT, None, GRID, [-0.5])


T = GRID.horizon
# k and k_- of each registry family that declares pieces, written out by
# hand: a reference that does not read the pieces
HAND_WRITTEN = {
    "reflect_at": lambda p: (lambda t, x: np.zeros_like(x), None),
    "constant": lambda p: (lambda t, x: np.full_like(x, p.get("c", -1.0)),
                           None),
    "min_zero": lambda p: (lambda t, x: np.minimum(x, 0.0), None),
    "step": lambda p: (lambda t, x: np.where(x < 1.0, -1.0, p.get("hi", 0.0)),
                       lambda t, x: np.where(x <= 1.0, -1.0,
                                             p.get("hi", 0.0))),
    "linear_decay": lambda p: (lambda t, x: (T - t) * x, None),
    "blowup_near_terminal": lambda p: (
        lambda t, x: np.full_like(x, -1.0 / max(T - t, 1e-300)), None),
}


def _hand_written(name, params):
    """The registry family ``name`` with its hand-written k and k_- and no
    pieces, so that ``map_values`` composes the evaluators."""
    fam = make_family(name, params, GRID)
    body, left = HAND_WRITTEN[name](params)
    return MonotoneFamily(body=body, left_body=left, boundary=fam.boundary,
                          closed=fam.closed, sign=fam.sign)


def _resolvent_cases():
    """The resolvent's test families, and for each one that declares pieces
    the same family from the hand-written evaluators."""
    cases = {name: make_family(name, {}, GRID) for name in FAMILIES}
    refs = {name: _hand_written(name, {}) for name in HAND_WRITTEN}
    real = {"linear_decay": {}, "constant": {"c": 0.5}, "step": {"hi": 1.0}}
    for name, params in real.items():
        fam, ref = make_family(name, params, GRID), _hand_written(name, params)
        assert fam.sign == "real"
        cases[f"{name}[real]"], refs[f"{name}[real]"] = fam, ref
        for n in (1, 4, 8):
            cases[f"{name}[real]^min{n}-{n}"] = truncate_shift(fam, n)
            refs[f"{name}[real]^min{n}-{n}"] = truncate_shift(ref, n)
    # the shift of the comparison check's lowered family
    for name in HAND_WRITTEN:
        cases[f"{name}-0.5"] = cases[name].map_values(shift=-0.5)
        refs[f"{name}-0.5"] = refs[name].map_values(shift=-0.5)
    cases["open_inverse"] = MonotoneFamily(body=lambda t, x: -1.0 / x,
                                           boundary=lambda t: 0.0)
    cases["open_inverse_moving"] = INVERSE_OPEN
    # many jumps, and a root where g'(u) = 1 + 3u^2/slope tends to 1
    cases["staircase"] = MonotoneFamily(
        body=lambda t, x: np.minimum(np.floor(4.0 * x) / 4.0, 0.0),
        boundary=lambda t: -np.inf)
    cases["cube"] = MonotoneFamily(body=lambda t, x: np.minimum(x**3, 0.0),
                                   boundary=lambda t: -np.inf)
    # a jump far taller than the bracket: the secant steps alone stall on it
    # and reach the step cap; the midpoint safeguard does not
    cases["cliff"] = MonotoneFamily(
        body=lambda t, x: np.where(x < 0.0, -1e6, 0.0),
        boundary=lambda t: -np.inf)
    return cases, refs


RESOLVENT_CASES, HAND_WRITTEN_CASES = _resolvent_cases()


def reference_ordinate(fam, t, x, slope):
    """Per-point v = slope*(x - u), u = inf{u >= a : g(u) >= x}, by bisection."""
    def g(u):
        return u + float(fam.k(t, np.array([u]))[0]) / slope

    a = float(fam.barriers(t)[0])
    if np.isfinite(a) and fam.closed and g(a) >= x:
        u = a
    else:
        start = max(x, a)
        hi = start + 1.0
        while g(hi) < x:
            hi = start + 2.0 * (hi - start)
        if np.isfinite(a):
            lo = a          # g(lo) < x, or lo is the open boundary itself
        else:
            lo = x - 1.0
            while g(lo) >= x:
                lo = x - 2.0 * (x - lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if g(mid) >= x:
                hi = mid
            else:
                lo = mid
        u = hi
    v = slope * (x - u)
    return min(v, 0.0) if fam.sign == "negative" else v


def break_abscissas(fam, t, slope):
    """g(b_j-) and g(b_j) for g(u) = u + k(t, u)/slope at the declared
    breaks, and the floats on either side of each."""
    b, k_left, k_right, _ = fam.pieces(t)
    g = np.concatenate([b + k_left / slope, b + k_right / slope])
    return np.concatenate([g, np.nextafter(g, -np.inf),
                           np.nextafter(g, np.inf)])


def piece_values(pieces, u):
    """(k_-(u), k(u)) read off the pieces, independently of the package."""
    b, k_left, k_right, slopes = pieces
    right, left = np.empty_like(u), np.empty_like(u)
    for n, x in enumerate(u):
        j = int(np.sum(b <= x))         # breaks at or left of x
        right[n] = (k_left[0] + slopes[0] * (x - b[0]) if j == 0 else
                    k_right[j - 1] + slopes[j] * (x - b[j - 1]))
        j = int(np.sum(b < x))          # breaks strictly left of x
        left[n] = (k_left[j] + slopes[j] * (x - b[j]) if j < b.size else
                   k_right[-1] + slopes[-1] * (x - b[-1]))
    return left, right


PIECES_CASES = sorted(n for n, f in RESOLVENT_CASES.items()
                      if f.pieces is not None)
assert PIECES_CASES == sorted(HAND_WRITTEN_CASES)


# edge values that tie often (a continuous break has g_left == g_right)
_EDGE = st.one_of(st.sampled_from([-np.inf, -1.0, 0.0, 0.5, np.inf]),
                  st.floats(-5.0, 5.0))


@given(st.lists(_EDGE, min_size=1, max_size=8).map(sorted),
       st.lists(st.floats(allow_nan=False), max_size=8))
@settings(max_examples=200, deadline=None)
def test_region_counts_match_searchsorted(edges, points):
    # every edge is a point too, and so are both infinities
    edges = np.array(edges)
    x = np.concatenate([edges, [-np.inf, np.inf], points])
    for side in ("left", "right"):
        assert np.array_equal(monotone._region(edges, x, side),
                              np.searchsorted(edges, x, side))


class TestResolventProperty:
    # t <= 0.9 keeps blowup_near_terminal's k = -1/(T - t) inside the
    # bracket radius.  ``search`` sets declared pieces aside, so the root
    # search stays pinned on the same families; the declared breaks add
    # points on the jumps and at the caps.  The reference bisects the
    # hand-written k where there is one
    @given(st.sampled_from(sorted(RESOLVENT_CASES)), st.floats(0.0, 0.9),
           st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8),
           st.floats(0.5, 4096.0), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_bisection(self, name, t, xs, slope, search):
        fam = RESOLVENT_CASES[name]
        if fam.pieces is not None:
            xs = np.concatenate([xs, break_abscissas(fam, t, slope)])
        if search:
            fam = replace(fam, pieces=None)
        got = resolvent_ordinate(fam, t, np.array(xs), slope)
        ref = HAND_WRITTEN_CASES.get(name, fam)
        want = [reference_ordinate(ref, t, x, slope) for x in xs]
        assert np.all(np.abs(got - want) <= slope * 2e-10 + 1e-12)

    @pytest.mark.parametrize("name", PIECES_CASES)
    def test_pieces_describe_the_body(self, name):
        # the pieces, read independently, and the evaluators derived from
        # them both match the hand-written k and k_-
        fam, ref = RESOLVENT_CASES[name], HAND_WRITTEN_CASES[name]
        rng = np.random.default_rng(11)
        for t in (0.0, 0.3, 0.9, 1.0):
            if name.startswith("blowup") and t == 1.0:
                continue       # k = -1/(T - t) has no value at T
            pieces = fam.pieces(t)
            b = pieces[0]
            assert np.all(np.diff(b) > 0) and pieces[3].size == b.size + 1
            a = fam.barriers(t)[0]
            u = np.concatenate([rng.uniform(-6.0, 6.0, 200), b,
                                np.nextafter(b, -np.inf),
                                np.nextafter(b, np.inf)])
            u = u[u > a]
            left, right = piece_values(pieces, u)
            for got, want in ((right, ref.k(t, u)), (left, ref.left(t, u)),
                              (fam.k(t, u), ref.k(t, u)),
                              (fam.left(t, u), ref.left(t, u))):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", PIECES_CASES)
    def test_declared_pieces_evaluate_no_k(self, name):
        base = RESOLVENT_CASES[name]
        variants = [base]
        if base.sign == "real":
            variants += [truncate_shift(base, n) for n in (1, 4, 8)]
        xs = np.linspace(-5.0, 5.0, 41)
        for variant in variants:
            fam, calls = _counted(variant, raising=True)
            for t in (0.0, 0.5, 0.9):
                for slope in (0.5, 16.0, 2.0**20):
                    resolvent_ordinate(fam, t, xs, slope)
            assert calls == []


class TestStalePieces:
    # pieces and evaluators that disagree are refused at construction, so
    # the closed-form resolvent cannot solve a family other than the one
    # the evaluators describe

    def test_replaced_body_is_refused(self):
        with pytest.raises(ValueError, match=r"body .* at t=0, x=0: -1 "
                                             r"against 0"):
            replace(REFLECT, body=lambda t, x: np.full_like(x, -1.0))

    def test_replaced_pieces_are_refused(self):
        decay = make_family("linear_decay", {}, GRID)
        with pytest.raises(ValueError, match=r"at t=0, x=1: 1 against 0"):
            replace(decay, pieces=MIN_ZERO.pieces)

    def test_replaced_left_limits_are_refused(self):
        step = make_family("step", {}, GRID)
        with pytest.raises(ValueError, match=r"left_body .* at t=0, x=1:"):
            replace(step, left_body=None)

    def test_pieces_are_checked_at_the_horizon(self):
        # k = -1 declared, but the body drifts to -1 - t: it agrees at t = 0
        # and the Problem refuses it at T = 1
        fam = MonotoneFamily(lambda t, x: np.full_like(x, -1.0 - t),
                             lambda t: -np.inf,
                             pieces=lambda t: ([0.0], [-1.0], [-1.0],
                                               [0.0, 0.0]),
                             name="drift")
        marks = MarkSpace.empty()
        with pytest.raises(ValueError, match=r"'drift' disagrees with its "
                                             r"pieces at t=1, x=0: -2 "
                                             r"against -1"):
            Problem(GRID, marks, make_driver("zero", {}, marks),
                    make_terminal("zero", {}, marks, GRID), family=fam)

    def test_pieces_beyond_the_domain_are_not_checked(self):
        # x = -1 lies below a_t = 0, where body and pieces may differ
        fam = replace(REFLECT, body=lambda t, x: np.where(x < 0, -9.0, 0.0))
        assert fam.k(0.0, [0.0, 1.0]).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_counting_wrappers_pass(self, name):
        # the shape of a tracer's patch: evaluators wrapped, values unchanged
        calls = []

        def wrap(fn):
            @functools.wraps(fn)
            def counted(t, x):
                calls.append(t)
                return fn(t, x)
            return counted

        fam = make_family(name, {}, GRID)
        left = fam.left_body
        wrapped = replace(fam, body=wrap(fam.body),
                          left_body=None if left is None else wrap(left))
        xs = np.random.default_rng(5).uniform(-4.0, 4.0, 64)
        xs = xs[xs > fam.barriers(0.0)[0]]
        for t in (0.0, 0.5, 0.9):
            assert np.array_equal(wrapped.k(t, xs), fam.k(t, xs))
            assert np.array_equal(wrapped.left(t, xs), fam.left(t, xs))
            assert np.array_equal(resolvent_ordinate(wrapped, t, xs, 4.0),
                                  resolvent_ordinate(fam, t, xs, 4.0))
        assert calls


class TestOpenMovingBoundary:
    # the root lies about exp(-slope (a_t - x)) above a_t; at slope 16 and
    # x = a_t - 1 that is 1e-7, well inside the open-boundary walk
    @pytest.mark.parametrize("t", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("slope", [0.5, 16.0])
    def test_log_family_matches_scalar_bisection(self, t, slope):
        xs = a_t(t) + np.array([-1.0, 0.0, 2.0])
        with np.errstate(all="raise"):
            got = resolvent_ordinate(LOG_OPEN, t, xs, slope)
            want = [reference_ordinate(LOG_OPEN, t, x, slope) for x in xs]
        assert np.all(np.abs(got - want) <= slope * 2e-10 + 1e-12)

    # here the root is within one float spacing of a_t, so the walk's
    # candidates round onto it; the ordinate is then slope*(x - a_t), up to
    # the root search's width
    @pytest.mark.parametrize("slope, offsets", [(16.0, [3.0, 5.0]),
                                                (48.0, [1.0, 3.0, 5.0]),
                                                (128.0, [1.0, 3.0, 5.0])])
    def test_root_within_a_float_of_the_boundary(self, slope, offsets):
        t = 0.2
        xs = a_t(t) - np.array(offsets)
        with np.errstate(all="raise"):
            got = resolvent_ordinate(LOG_OPEN, t, xs, slope)
            want = [reference_ordinate(LOG_OPEN, t, x, slope) for x in xs]
        assert np.all(np.abs(got - want) <= slope * 2e-10 + 1e-12)
        assert np.all(np.abs(got - slope * (xs - a_t(t))) <= slope * 2e-10)


def _counted(fam, raising=False):
    """The family with a counter of the k-evaluations (calls of ``body``)
    made after it is built; with ``raising``, each of them also raises.  The
    construction's check of declared pieces is not counted."""
    calls, armed = [], []

    def body(t, x, _b=fam.body):
        if armed:
            calls.append(t)
            if raising:
                raise AssertionError(f"k evaluated at t={t}")
        return _b(t, x)

    counted = replace(fam, body=body)
    armed.append(True)
    return counted, calls


class TestResolventRootSearch:
    # fixed inputs: 2,000 points, four times in [0, 0.9], slopes 0.5 ... 2^20
    # (every third power of two)
    XS = np.random.default_rng(7).uniform(-5.0, 5.0, 2000)
    TIMES = (0.0, 0.3, 0.6, 0.9)
    SLOPES = 2.0 ** np.arange(-1, 21, 3)

    def evaluations_per_call(self, fam):
        # the root search's evaluations: declared pieces are set aside
        counted, calls = _counted(replace(fam, pieces=None))
        counts = []
        for t in self.TIMES:
            for slope in self.SLOPES:
                before = len(calls)
                resolvent_ordinate(counted, t, self.XS, slope)
                counts.append(len(calls) - before)
        return np.array(counts)

    @pytest.mark.parametrize("name", ["min_zero", "linear_decay[real]^min1-1",
                                      "linear_decay[real]^min4-4"])
    def test_piecewise_linear_families_take_few_evaluations(self, name):
        # bisection takes about 37 k-evaluations per call here
        assert self.evaluations_per_call(RESOLVENT_CASES[name]).mean() <= 10

    @pytest.mark.parametrize("name", sorted(RESOLVENT_CASES))
    def test_no_case_reaches_the_step_cap(self, name):
        # a call at the cap raises NoBracket; even with the bracket walk
        # counted, every call stays under it
        counts = self.evaluations_per_call(RESOLVENT_CASES[name])
        assert counts.max() < monotone._HALVINGS

    def test_bracket_at_float_resolution_is_converged(self):
        # near u = 1e6 two floats are 1.16e-10 apart, wider than the root
        # width, so only the step cap can end the search there
        fam = MonotoneFamily(body=lambda t, x: np.minimum(x - 1e6, 0.0),
                             boundary=lambda t: -np.inf)
        v = resolvent_ordinate(fam, 0.0, 1e6 - 1e-3, 1.0)
        assert v == pytest.approx(-5e-4, abs=1e-9)

    def test_bracket_one_float_apart_ends_the_search(self):
        # the same root: the search stops once no float lies inside the
        # bracket, not at the step cap
        fam, calls = _counted(MonotoneFamily(
            body=lambda t, x: np.minimum(x - 1e6, 0.0),
            boundary=lambda t: -np.inf))
        v = resolvent_ordinate(fam, 0.0, 1e6 - 1e-3, 1.0)
        assert v == pytest.approx(-5e-4, abs=np.spacing(1e6))
        assert len(calls) <= 10

    @pytest.mark.parametrize("exponent", [14, 17, 20])
    def test_large_slope_near_a_large_root(self, exponent):
        # u is resolved to about one float spacing near 1e6, and the line
        # interval scales that by the slope (1.5e-5 at 2^17)
        fam = MonotoneFamily(body=lambda t, x: np.minimum(x - 1e6, 0.0),
                             boundary=lambda t: -np.inf)
        slope = 2.0**exponent
        x = 1e6 + self.XS
        v = resolvent_ordinate(fam, 0.0, x, slope)
        want = np.minimum(x - 1e6, 0.0) * slope / (slope + 1.0)
        assert np.abs(v - want).max() <= 2 * slope * np.spacing(1e6)

    def test_step_cap_raises_instead_of_returning(self, monkeypatch):
        monkeypatch.setattr(monotone, "_HALVINGS", 2)
        with pytest.raises(NoBracket, match="did not converge"):
            resolvent_ordinate(replace(MIN_ZERO, pieces=None), 0.5,
                               np.linspace(-3.0, 3.0, 13), 8.0)
