"""Textual problem manifests.

Format: sectioned key-value text, one ``key = value`` per line under a
``[section]`` header.  Values are typed: integers, floats, booleans
(true/false), bare strings, or comma-separated lists of those.  Comments start
with ``#``.  Example::

    [grid]
    T = 1.0
    steps = 6

    [marks]
    values = 1.0
    intensities = 1.0

    [family]
    name = reflect_at
    a = 0.0

    [driver]
    name = zero

    [terminal]
    name = brownian

    [backend]
    kind = tree

    [schedule]
    levels = 1,2,4,8,16
    stop_tolerance = 1e-4

    [run]
    seed = 1234
    n_paths = 10000

Every key is checked: an unread key, a non-integral ``steps``, ``degree``,
``levels``, ``seed`` or ``n_paths``, true/false where numbers are read (``T``,
``times``, mark lists, ``stop_tolerance``, registry parameters), a non-boolean
``lower_bound_check``, a negative ``seed``, too few ``n_paths`` for the
backend (an ensemble needs the solver's minimum in each of the 8 blocks of its
batch-means Y0 error), or ``times`` next to ``T``/``steps`` raises
:class:`ValidationError`.
The family fixes the mode: none gives ``bsde``, a negative-valued one
``mbsde`` and a real-valued one, which needs an ``[envelope]``, ``unbounded``.
``[run] mode`` is optional and must match.

Configs render back to canonical text; ``parse_config(render_config(c)) == c``
for every valid config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .bsde import CEBackend
from .errors import ParseError, UnknownName, ValidationError
from .monotone import default_probes, validate_assumptions
from .penalization import PenalizationSchedule, Problem, default_levels
from .registry import (DRIVERS, ENVELOPES, FAMILIES, TERMINALS, _real, _reals,
                       make_driver, make_envelope, make_family, make_terminal)
from .scenario import MarkSpace, TimeGrid
from .verification import _Y0_BLOCKS

__all__ = ["ProblemConfig", "parse_config", "render_config", "build_problem"]

_SECTIONS = ("grid", "marks", "family", "envelope", "driver", "terminal",
             "backend", "schedule", "run")
_REQUIRED = ("grid", "driver", "terminal", "backend", "run")


@dataclass(frozen=True)
class ProblemConfig:
    """Typed view of a config file; section dicts hold scalars or lists."""

    grid: dict
    driver: dict
    terminal: dict
    backend: dict
    run: dict
    marks: dict = field(default_factory=dict)
    family: dict | None = None
    envelope: dict | None = None
    schedule: dict = field(default_factory=dict)

    def with_overrides(self, seed=None, n_paths=None) -> "ProblemConfig":
        run = dict(self.run)
        for key, val in (("seed", seed), ("n_paths", n_paths)):
            if val is not None:
                run[key] = val
        return replace(self, run=run)


def _parse_scalar(token: str):
    token = token.strip()
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(raw: str):
    if "," in raw:
        return [_parse_scalar(tok) for tok in raw.split(",")]
    return _parse_scalar(raw)


def parse_config(text: str) -> ProblemConfig:
    """Parse config text, validating section names, keys and registry names."""
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section '{name}'", lineno)
            if name in sections:
                raise ParseError(f"duplicate section '{name}'", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        if current is None:
            raise ParseError("key outside any [section]", lineno)
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", lineno)
        if key in sections[current]:
            raise ParseError(f"duplicate key '{key}'", lineno)
        value = _parse_value(raw_val.strip())
        if value == "" or (isinstance(value, list) and "" in value):
            raise ParseError(f"empty value for '{key}'", lineno)
        sections[current][key] = value

    for name in _REQUIRED:
        if name not in sections:
            raise ParseError(f"missing required section [{name}]")

    config = ProblemConfig(
        grid=sections["grid"],
        driver=sections["driver"],
        terminal=sections["terminal"],
        backend=sections["backend"],
        run=sections["run"],
        marks=sections.get("marks", {}),
        family=sections.get("family"),
        envelope=sections.get("envelope"),
        schedule=sections.get("schedule", {}),
    )
    _check_names(config)
    return config


def _check_names(config: ProblemConfig) -> None:
    def need_name(section: dict | None, label: str, table: dict):
        if section is None:
            return
        name = section.get("name")
        if name is None:
            raise ParseError(f"[{label}] needs a 'name' key")
        if name not in table:
            raise UnknownName(f"unknown {label} '{name}'; "
                              f"known: {', '.join(sorted(table))}")

    need_name(config.driver, "driver", DRIVERS)
    need_name(config.terminal, "terminal", TERMINALS)
    need_name(config.family, "family", FAMILIES)
    need_name(config.envelope, "envelope", ENVELOPES)
    kind = config.backend.get("kind", "tree")
    if kind not in ("tree", "regression"):
        raise ParseError("backend.kind must be 'tree' or 'regression'")


def _render_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(config: ProblemConfig) -> str:
    """Canonical text form (sorted keys), the inverse of parse_config."""
    chunks = []
    for name in _SECTIONS:
        section = getattr(config, name)
        if section is None or not section:
            continue
        lines = [f"[{name}]"]
        for key in sorted(section):
            value = section[key]
            if isinstance(value, list):
                rendered = ",".join(_render_scalar(v) for v in value)
            else:
                rendered = _render_scalar(value)
            lines.append(f"{key} = {rendered}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _reject_unknown(name: str, section: dict, allowed: set) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ValidationError(f"bad [{name}]: unknown key(s) {', '.join(unknown)}")


def _integer(value, key: str) -> int:
    """An integral number as int (1e4 is 10000); 5.5, true or a word raise."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{key} must be an integer, got {value!r}")


def _registry_object(name: str, make, section: dict, *context):
    """Registry object of a ``[name]`` section; bad values are config errors."""
    params = {k: v for k, v in section.items() if k != "name"}
    try:
        return make(section["name"], params, *context)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad [{name}]: {exc}") from exc


def _mode(family, envelope, declared) -> str:
    """The mode the family fixes; a declared ``[run] mode`` must name it."""
    mode = ("bsde" if family is None else
            "mbsde" if family.sign == "negative" else "unbounded")
    if mode == "unbounded" and envelope is None:
        raise ValidationError("a real-valued family needs an [envelope]")
    if declared not in (None, mode):
        raise ValidationError(f"[run] mode = {declared} does not match the "
                              f"family, which fixes mode {mode}")
    return mode


def build_problem(config: ProblemConfig, validate: bool = True):
    """Construct (Problem, CEBackend, PenalizationSchedule, run-dict).

    Unread keys, bad values, numeric invariants (positive intensities, grid
    shape, positive horizon, run sizes) and a ``[run] mode`` the family does
    not fix raise :class:`ValidationError`, as does a failed assumption
    validation of the family when ``validate`` is set.
    """
    gsec = config.grid
    _reject_unknown("grid", gsec, {"T", "steps", "times"})
    if "times" in gsec and ("T" in gsec or "steps" in gsec):
        raise ValidationError("bad [grid]: give either times or T and steps")
    try:
        if "times" in gsec:
            grid = TimeGrid(_reals(gsec["times"], "times"))
        else:
            grid = TimeGrid.uniform(_real(gsec["T"], "T"),
                                    _integer(gsec["steps"], "[grid] steps"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad [grid]: {exc}") from exc

    _reject_unknown("marks", config.marks, {"values", "intensities", "vartheta"})
    try:
        if config.marks:
            marks = MarkSpace(
                _reals(config.marks["values"], "values"),
                _reals(config.marks["intensities"], "intensities"),
                None if "vartheta" not in config.marks else
                _reals(config.marks["vartheta"], "vartheta"))
        else:
            marks = MarkSpace.empty()
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad [marks]: {exc}") from exc

    family = envelope = None
    if config.family is not None:
        family = _registry_object("family", make_family, config.family, grid)
    if config.envelope is not None:
        envelope = _registry_object("envelope", make_envelope, config.envelope, grid)
    driver = _registry_object("driver", make_driver, config.driver, marks)
    terminal = _registry_object("terminal", make_terminal, config.terminal, marks, grid)
    try:
        driver.check_against(marks)
    except ValueError as exc:
        raise ValidationError(f"bad [driver]: {exc}") from exc

    _reject_unknown("backend", config.backend, {"kind", "degree"})
    try:
        backend = CEBackend(kind=config.backend.get("kind", "tree"),
                            degree=_integer(config.backend.get("degree", 2),
                                            "[backend] degree"))
    except ValueError as exc:
        raise ValidationError(f"bad [backend]: {exc}") from exc

    ssec = config.schedule
    _reject_unknown("schedule", ssec, {"levels", "stop_tolerance"})
    levels = tuple(_integer(n, "[schedule] levels")
                   for n in _as_list(ssec.get("levels", list(default_levels()))))
    try:
        schedule = PenalizationSchedule(
            levels=levels,
            stop_tolerance=_real(ssec.get("stop_tolerance", 1e-4),
                                 "stop_tolerance"))
    except ValueError as exc:
        raise ValidationError(f"bad [schedule]: {exc}") from exc

    _reject_unknown("run", config.run, {"seed", "n_paths", "mode"})
    run = {"seed": _integer(config.run.get("seed", 0), "[run] seed"),
           "n_paths": _integer(config.run.get("n_paths", 10_000), "[run] n_paths"),
           "mode": _mode(family, envelope, config.run.get("mode"))}
    # an ensemble is re-solved in _Y0_BLOCKS blocks for its Y0 error, and each
    # block must meet the solver's own minimum
    fewest = backend.min_paths(marks.n_marks)
    if backend.kind == "regression":
        fewest *= _Y0_BLOCKS
    for key, low in (("seed", 0), ("n_paths", fewest)):
        if run[key] < low:
            raise ValidationError(f"bad [run]: {key} must be >= {low}, "
                                  f"got {run[key]}")

    problem = Problem(grid=grid, marks=marks, driver=driver,
                      terminal=terminal, family=family, envelope=envelope)

    if validate and family is not None:
        report = validate_assumptions(family, envelope, grid,
                                      default_probes(family, grid))
        if not report.passed:
            failing = [it.name for it in report.items if not it.passed]
            raise ValidationError(
                "assumption validation failed: " + ", ".join(failing))
    return problem, backend, schedule, run
