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
    mode = mbsde
    seed = 1234
    n_paths = 10000

Configs render back to canonical text; ``parse_config(render_config(c)) == c``
for every valid config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bsde import CEBackend
from .errors import ParseError, UnknownName, ValidationError
from .monotone import default_probes, validate_assumptions
from .penalization import PenalizationSchedule, Problem, default_levels
from .registry import (DRIVERS, ENVELOPES, FAMILIES, TERMINALS, make_driver,
                       make_envelope, make_family, make_terminal)
from .scenario import MarkSpace, TimeGrid

__all__ = ["ProblemConfig", "parse_config", "render_config", "build_problem"]

_SECTIONS = ("grid", "marks", "family", "envelope", "driver", "terminal",
             "backend", "schedule", "run")
_REQUIRED = ("grid", "driver", "terminal", "backend", "run")
_MODES = ("bsde", "mbsde", "unbounded")


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

    def with_overrides(self, seed=None, n_paths=None,
                       mode=None) -> "ProblemConfig":
        run = dict(self.run)
        for key, val in (("seed", seed), ("n_paths", n_paths), ("mode", mode)):
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
    mode = config.run.get("mode")
    if mode is not None and mode not in _MODES:
        raise ParseError(f"run.mode must be one of {', '.join(_MODES)}")
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


def build_problem(config: ProblemConfig, validate: bool = True):
    """Construct (Problem, CEBackend, PenalizationSchedule, run-dict).

    Numeric invariants (positive intensities, grid shape, positive horizon)
    raise :class:`ValidationError`, as does a failed assumption validation of
    the family when ``validate`` is set.
    """
    gsec = config.grid
    try:
        if "times" in gsec:
            grid = TimeGrid(np.asarray(_as_list(gsec["times"]), dtype=float))
        else:
            grid = TimeGrid.uniform(float(gsec["T"]), int(gsec["steps"]))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad [grid]: {exc}") from exc

    try:
        if config.marks:
            marks = MarkSpace(
                np.asarray(_as_list(config.marks["values"]), dtype=float),
                np.asarray(_as_list(config.marks["intensities"]), dtype=float),
                None if "vartheta" not in config.marks else
                np.asarray(_as_list(config.marks["vartheta"]), dtype=float))
        else:
            marks = MarkSpace.empty()
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad [marks]: {exc}") from exc

    family = None
    if config.family is not None:
        params = {k: v for k, v in config.family.items() if k != "name"}
        family = make_family(config.family["name"], params, grid)
    envelope = None
    if config.envelope is not None:
        params = {k: v for k, v in config.envelope.items() if k != "name"}
        envelope = make_envelope(config.envelope["name"], params, grid)

    try:
        dparams = {k: v for k, v in config.driver.items() if k != "name"}
        driver = make_driver(config.driver["name"], dparams, marks)
        driver.check_against(marks)
        tparams = {k: v for k, v in config.terminal.items() if k != "name"}
        terminal = make_terminal(config.terminal["name"], tparams, marks, grid)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    _reject_unknown("backend", config.backend, {"kind", "degree", "ridge"})
    backend = CEBackend(kind=config.backend.get("kind", "tree"),
                        degree=int(config.backend.get("degree", 2)),
                        ridge=float(config.backend.get("ridge", 1e-8)))

    ssec = config.schedule
    _reject_unknown("schedule", ssec, {"levels", "stop_tolerance"})
    levels = tuple(int(n) for n in _as_list(ssec.get("levels",
                                                     list(default_levels()))))
    try:
        schedule = PenalizationSchedule(
            levels=levels,
            stop_tolerance=float(ssec.get("stop_tolerance", 1e-4)))
    except ValueError as exc:
        raise ValidationError(f"bad [schedule]: {exc}") from exc

    run = {"seed": int(config.run.get("seed", 0)),
           "n_paths": int(config.run.get("n_paths", 10_000)),
           "mode": config.run.get("mode", "bsde")}

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
