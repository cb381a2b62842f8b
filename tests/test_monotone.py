from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsdej import (DomainViolation, GrowthEnvelope, MonotoneFamily, NoBracket,
                    PenalizedOperator, TimeGrid, resolvent_ordinate,
                    truncate_shift, validate_assumptions)
from mbsdej import monotone
from mbsdej.registry import FAMILIES, make_envelope, make_family


def constant_family(c=-1.0):
    return MonotoneFamily(body=lambda t, x: np.full_like(x, c),
                          boundary=lambda t: -np.inf, sign="negative")


def step_family():
    """k = -1 for x < 1, 0 for x >= 1, on all of R."""
    return MonotoneFamily(body=lambda t, x: np.where(x < 1.0, -1.0, 0.0),
                          boundary=lambda t: -np.inf, sign="negative")


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

    def test_left_limit_refinement_matches_supplied(self):
        # same step family with and without an explicit left evaluator
        fam = step_family()
        explicit = make_family("step", {"at": 1.0, "lo": -1.0, "hi": 0.0}, GRID)
        for x in (0.3, 1.0, 1.7):
            assert fam.eval(0.0, x, "left") == explicit.eval(0.0, x, "left")


class TestBoundary:
    def test_reflection_boundary_in_domain(self):
        assert REFLECT.boundary_at(0.3) == (0.0, True)

    def test_infinite_limit_excludes_boundary(self):
        fam = MonotoneFamily(body=lambda t, x: -1.0 / x,
                             boundary=lambda t: 0.0, sign="negative")
        a, in_dom = fam.boundary_at(0.3)
        assert a == 0.0 and not in_dom

    def test_full_line(self):
        a, in_dom = MIN_ZERO.boundary_at(0.3)
        assert a == -np.inf and not in_dom


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


def _resolvent_cases():
    cases = {name: make_family(name, {}, GRID) for name in FAMILIES}
    real = {"linear_decay": {}, "constant": {"c": 0.5}, "step": {"hi": 1.0}}
    for name, params in real.items():
        fam = make_family(name, params, GRID)
        assert fam.sign == "real"
        cases[f"{name}[real]"] = fam
        for n in (1, 4):
            cases[f"{name}[real]^min{n}-{n}"] = truncate_shift(fam, n)
    cases["open_inverse"] = MonotoneFamily(body=lambda t, x: -1.0 / x,
                                           boundary=lambda t: 0.0)
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
    return cases


RESOLVENT_CASES = _resolvent_cases()


def reference_ordinate(fam, t, x, slope):
    """Per-point v = slope*(x - u), u = inf{u >= a : g(u) >= x}, by bisection."""
    def g(u):
        return u + float(fam.k(t, np.array([u]))[0]) / slope

    a, in_dom = fam.boundary_at(t)
    if np.isfinite(a) and in_dom and g(a) >= x:
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


class TestResolventProperty:
    # t <= 0.9 keeps blowup_near_terminal's k = -1/(T - t) inside the
    # bracket radius
    @given(st.sampled_from(sorted(RESOLVENT_CASES)), st.floats(0.0, 0.9),
           st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8),
           st.floats(0.5, 4096.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_bisection(self, name, t, xs, slope):
        fam = RESOLVENT_CASES[name]
        got = resolvent_ordinate(fam, t, np.array(xs), slope)
        want = [reference_ordinate(fam, t, x, slope) for x in xs]
        assert np.all(np.abs(got - want) <= slope * 2e-10 + 1e-12)


def _counted(fam):
    """The family with a counter of its k-evaluations (calls of ``body``)."""
    calls = []

    def body(t, x, _b=fam.body):
        calls.append(t)
        return _b(t, x)

    return replace(fam, body=body), calls


class TestResolventRootSearch:
    # fixed inputs: 2,000 points, four times in [0, 0.9], slopes 0.5 ... 2^20
    # (every third power of two)
    XS = np.random.default_rng(7).uniform(-5.0, 5.0, 2000)
    TIMES = (0.0, 0.3, 0.6, 0.9)
    SLOPES = 2.0 ** np.arange(-1, 21, 3)

    def evaluations_per_call(self, fam):
        counted, calls = _counted(fam)
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

    def test_step_cap_raises_instead_of_returning(self, monkeypatch):
        monkeypatch.setattr(monotone, "_HALVINGS", 2)
        with pytest.raises(NoBracket, match="did not converge"):
            resolvent_ordinate(MIN_ZERO, 0.5, np.linspace(-3.0, 3.0, 13), 8.0)
