"""Named building blocks selectable from config files.

Every entry is a builder taking a parameter dict (already typed) plus the
context it needs (grid or mark space) and returning the constructed object.
It pops each parameter it reads; ``make_*`` passes it a copy and refuses any
key left over, so a misspelt parameter cannot fall back to its default.
Registered items carry the Lipschitz/monotonicity metadata the validators
need, which is why the config layer points at this registry instead of
parsing expressions.
"""

from __future__ import annotations

import numpy as np

from .bsde import DriverSpec, TerminalSpec
from .errors import UnknownName, ValidationError
from .monotone import GrowthEnvelope, MonotoneFamily
from .scenario import MarkSpace, TimeGrid

__all__ = [
    "FAMILIES", "ENVELOPES", "DRIVERS", "TERMINALS",
    "make_family", "make_envelope", "make_driver", "make_terminal",
]


def _real(value, key: str) -> float:
    """A number as float; true/false raise ValueError instead of reading as
    1.0/0.0."""
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {str(value).lower()}")
    return float(value)


def _reals(value, key: str) -> np.ndarray:
    """A number or a list of numbers as a 1-D float array, read by _real."""
    items = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
    return np.array([_real(v, key) for v in items], dtype=float)


def _per_mark(params, key: str, default: float, marks) -> np.ndarray:
    """One value per mark from ``key``; a single number serves every mark."""
    if key not in params:
        return np.full(marks.n_marks, default)
    values = _reals(params.pop(key), key)
    if values.size == 1 and marks.n_marks > 1:
        values = np.full(marks.n_marks, values[0])
    return values


def _flag(params, key: str) -> bool:
    """``key`` as true/false (default false); other values raise ValueError."""
    value = params.pop(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


# -- families -----------------------------------------------------------------


def _pieces(at: float, left: float, right: float, slopes) -> tuple:
    """The pieces of a family with one break (``MonotoneFamily.pieces``)."""
    return (np.array([at]), np.array([left]), np.array([right]),
            np.array(slopes, dtype=float))


def _family_reflect_at(params: dict, grid: TimeGrid) -> MonotoneFamily:
    a = _real(params.pop("a", 0.0), "a")
    return MonotoneFamily.piecewise(
        lambda t: _pieces(a, 0.0, 0.0, (0.0, 0.0)), lambda t: a, closed=True,
        name=f"reflect_at(a={a:g})")


def _family_constant(params: dict, grid: TimeGrid) -> MonotoneFamily:
    c = _real(params.pop("c", -1.0), "c")
    return MonotoneFamily.piecewise(
        lambda t: _pieces(0.0, c, c, (0.0, 0.0)), lambda t: -np.inf,
        sign="negative" if c <= 0 else "real", name=f"constant(c={c:g})")


def _family_min_zero(params: dict, grid: TimeGrid) -> MonotoneFamily:
    return MonotoneFamily.piecewise(
        lambda t: _pieces(0.0, 0.0, 0.0, (1.0, 0.0)), lambda t: -np.inf,
        name="min_zero")


def _family_neg_exp(params: dict, grid: TimeGrid) -> MonotoneFamily:
    return MonotoneFamily(body=lambda t, x: -np.exp(-x),
                          boundary=lambda t: -np.inf, name="neg_exp")


def _family_step(params: dict, grid: TimeGrid) -> MonotoneFamily:
    at = _real(params.pop("at", 1.0), "at")
    lo = _real(params.pop("lo", -1.0), "lo")
    hi = _real(params.pop("hi", 0.0), "hi")
    if lo > hi:
        raise ValueError("step family needs lo <= hi")
    return MonotoneFamily.piecewise(
        lambda t: _pieces(at, lo, hi, (0.0, 0.0)), lambda t: -np.inf,
        sign="negative" if hi <= 0 else "real", name=f"step(at={at:g})")


def _family_linear_decay(params: dict, grid: TimeGrid) -> MonotoneFamily:
    """k(t, x) = (T - t) x, the real-valued example with envelope (T-t)(1+x+)."""
    horizon = grid.horizon
    scale = _real(params.pop("scale", 1.0), "scale")

    return MonotoneFamily.piecewise(
        lambda t: _pieces(0.0, 0.0, 0.0, [scale * (horizon - t)] * 2),
        lambda t: -np.inf, sign="real", name=f"linear_decay(scale={scale:g})")


def _family_blowup_near_terminal(params: dict, grid: TimeGrid) -> MonotoneFamily:
    """Negative control: k(t, x) = -1/(T-t), violating (B.2) at every z."""
    horizon = grid.horizon

    def pieces(t):
        value = -1.0 / max(horizon - t, 1e-300)
        return _pieces(0.0, value, value, (0.0, 0.0))

    return MonotoneFamily.piecewise(pieces, lambda t: -np.inf,
                                    name="blowup_near_terminal")


FAMILIES = {
    "reflect_at": _family_reflect_at,
    "constant": _family_constant,
    "min_zero": _family_min_zero,
    "neg_exp": _family_neg_exp,
    "step": _family_step,
    "linear_decay": _family_linear_decay,
    "blowup_near_terminal": _family_blowup_near_terminal,
}


# -- envelopes ----------------------------------------------------------------


def _envelope_linear_decay(params: dict, grid: TimeGrid) -> GrowthEnvelope:
    """ell(t, x) = (T - t)(1 + x+)."""
    horizon = grid.horizon
    scale = _real(params.pop("scale", 1.0), "scale")

    def ell(t, x):
        return scale * (horizon - t) * (1.0 + np.maximum(x, 0.0))

    return GrowthEnvelope(ell, linear_growth_constant=scale * max(horizon, 1.0),
                          name="linear_decay")


def _envelope_bad_terminal(params: dict, grid: TimeGrid) -> GrowthEnvelope:
    """Negative control: ell(T, .) = 0.1 != 0."""
    return GrowthEnvelope(lambda t, x: np.full_like(x, 0.1),
                          linear_growth_constant=1.0, name="bad_terminal")


ENVELOPES = {
    "linear_decay": _envelope_linear_decay,
    "bad_terminal": _envelope_bad_terminal,
}


# -- drivers ------------------------------------------------------------------


def _driver_zero(params: dict, marks: MarkSpace) -> DriverSpec:
    return DriverSpec(shape=lambda t, s, y, z, q: np.zeros_like(y),
                      gamma=_per_mark(params, "gamma", 0.0, marks),
                      lipschitz_c=0.0, name="zero")


def _driver_constant(params: dict, marks: MarkSpace) -> DriverSpec:
    c = _real(params.pop("c", 1.0), "c")
    return DriverSpec(shape=lambda t, s, y, z, q: np.full_like(y, c),
                      gamma=_per_mark(params, "gamma", 0.0, marks),
                      lipschitz_c=0.0, name=f"constant(c={c:g})")


def _driver_linear(params: dict, marks: MarkSpace) -> DriverSpec:
    a = _real(params.pop("a", 0.0), "a")
    b = _real(params.pop("b", 0.0), "b")
    return DriverSpec(shape=lambda t, s, y, z, q: a * y + b,
                      gamma=_per_mark(params, "gamma", 0.0, marks),
                      lipschitz_c=abs(a), name=f"linear(a={a:g},b={b:g})")


def _driver_mixed(params: dict, marks: MarkSpace) -> DriverSpec:
    """h = a y + bz z + qc q with qc >= 0 (nondecreasing in the aggregate)."""
    a = _real(params.pop("a", 0.0), "a")
    bz = _real(params.pop("bz", 0.0), "bz")
    qc = _real(params.pop("qc", 1.0), "qc")
    if qc < 0:
        raise ValueError("mixed driver needs qc >= 0 for monotonicity in q")

    def shape(t, s, y, z, q):
        return a * y + bz * z + qc * q

    return DriverSpec(shape=shape,
                      gamma=_per_mark(params, "gamma", 0.0, marks),
                      lipschitz_c=abs(a) + abs(bz),
                      name=f"mixed(a={a:g},bz={bz:g},qc={qc:g})")


DRIVERS = {
    "zero": _driver_zero,
    "constant": _driver_constant,
    "linear": _driver_linear,
    "mixed": _driver_mixed,
}


# -- terminals ----------------------------------------------------------------


def _terminal_brownian(params, marks, grid) -> TerminalSpec:
    shift = _real(params.pop("shift", 0.0), "shift")
    return TerminalSpec(lambda state: state.w + shift,
                        lower_bound_check=_flag(params, "lower_bound_check"),
                        name=f"brownian(shift={shift:g})")


def _terminal_brownian_positive(params, marks, grid) -> TerminalSpec:
    """(W_T)+ + shift; with shift >= 1 the reflected-at-0 constraint is slack."""
    shift = _real(params.pop("shift", 1.0), "shift")
    return TerminalSpec(lambda state: np.maximum(state.w, 0.0) + shift,
                        lower_bound_check=_flag(params, "lower_bound_check"),
                        name=f"brownian_positive(shift={shift:g})")


def _terminal_compensated_jumps(params, marks, grid) -> TerminalSpec:
    """xi = sum_j weight_j * (N_T(e_j) - lambda_j T)."""
    w = _per_mark(params, "weights", 1.0, marks)
    return TerminalSpec(lambda state: state.ntilde @ w,
                        name="compensated_jumps")


def _terminal_zero(params, marks, grid) -> TerminalSpec:
    return TerminalSpec(lambda state: np.zeros_like(state.w), name="zero")


def _terminal_call(params, marks, grid) -> TerminalSpec:
    strike = _real(params.pop("strike", 0.0), "strike")
    return TerminalSpec(lambda state: np.maximum(state.w - strike, 0.0),
                        name=f"call(strike={strike:g})")


TERMINALS = {
    "brownian": _terminal_brownian,
    "brownian_positive": _terminal_brownian_positive,
    "compensated_jumps": _terminal_compensated_jumps,
    "zero": _terminal_zero,
    "call": _terminal_call,
}


def _build(table: dict, kind: str, name: str, params: dict, *context):
    try:
        builder = table[name]
    except KeyError:
        raise UnknownName(f"unknown {kind} '{name}'; "
                          f"known: {', '.join(sorted(table))}") from None
    params = dict(params)
    built = builder(params, *context)
    if params:
        raise ValidationError(f"unknown {kind} parameter(s) "
                              f"{', '.join(sorted(params))} for '{name}'")
    return built


def make_family(name: str, params: dict, grid: TimeGrid) -> MonotoneFamily:
    return _build(FAMILIES, "family", name, params, grid)


def make_envelope(name: str, params: dict, grid: TimeGrid) -> GrowthEnvelope:
    return _build(ENVELOPES, "envelope", name, params, grid)


def make_driver(name: str, params: dict, marks: MarkSpace) -> DriverSpec:
    return _build(DRIVERS, "driver", name, params, marks)


def make_terminal(name: str, params: dict, marks: MarkSpace,
                  grid: TimeGrid) -> TerminalSpec:
    return _build(TERMINALS, "terminal", name, params, marks, grid)
