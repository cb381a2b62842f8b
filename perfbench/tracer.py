"""Outside-in tracing of ``mbsdej`` by attribute replacement.

The program has no instrumentation of its own, so the traced run replaces
module attributes, class methods and registry builders with wrappers that
record spans.  A span is ``[name, start, end, parent, units]``; spans stay in
memory and are written out when the run ends.  Every replacement is undone by
:meth:`Tracer.uninstall`, so untraced operations in the same process run the
original code.

Functions bound with ``from ... import`` are patched in every ``mbsdej``
module that holds them, because each module looks the name up in its own
globals at call time.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import replace
from time import perf_counter

# (span name, defining module, attribute, work-unit measure or None).
# A measure receives (args, kwargs, result) and returns the units of work.
FUNCTIONS = (
    ("config.parse", "mbsdej.config", "parse_config", None),
    ("config.build_problem", "mbsdej.config", "build_problem", None),
    ("monotone.validate_assumptions", "mbsdej.monotone",
     "validate_assumptions", None),
    ("monotone.resolvent", "mbsdej.monotone", "resolvent_ordinate", None),
    ("monotone.truncate_shift", "mbsdej.monotone", "truncate_shift", None),
    ("scenario.simulate_paths", "mbsdej.scenario", "simulate_paths",
     lambda a, k, r: r.n_paths),
    ("scenario.build_tree", "mbsdej.scenario", "build_tree",
     lambda a, k, r: sum(w.size for w in r.w_nodes)),
    ("bsde.solve", "mbsdej.bsde", "solve_bsde", None),
    ("bsde.design", "mbsdej.bsde", "_design_matrix", None),
    ("bsde.ridge", "mbsdej.bsde", "_ridge_predict", None),
    ("bsde.residual_check", "mbsdej.bsde", "residual_check", None),
    ("penalization.solve_unbounded", "mbsdej.penalization",
     "solve_unbounded", None),
    ("penalization.solve_mbsde", "mbsdej.penalization", "solve_mbsde", None),
    ("penalization.solve_penalized", "mbsdej.penalization",
     "solve_penalized", None),
    ("penalization.level_stats", "mbsdej.penalization", "_level_stats", None),
    ("penalization.stopping_times", "mbsdej.penalization",
     "stopping_times", None),
    ("penalization.overlap_stats", "mbsdej.penalization",
     "_overlap_stats", None),
    ("verification.constraint", "mbsdej.verification", "check_constraint",
     None),
    ("verification.skorokhod", "mbsdej.verification", "check_skorokhod", None),
    ("verification.comparison", "mbsdej.verification", "check_comparison",
     None),
    ("verification.uniqueness", "mbsdej.verification", "check_uniqueness",
     None),
    ("verification.bounds_monitor", "mbsdej.verification", "bounds_monitor",
     None),
    ("verification.block_y0_se", "mbsdej.verification", "block_y0_se", None),
    ("cli.command", "mbsdej.cli", "run_solve", None),
    ("cli.command", "mbsdej.cli", "run_verify", None),
)

# (span name, module, class, method): artifact writers.
METHODS = (
    ("cli.write", "mbsdej.bsde", "SolutionGrid", "write_csv"),
    ("cli.write", "mbsdej.penalization", "PenalizationReport", "write_json"),
    ("cli.write", "mbsdej.penalization", "ConcatenationRecord", "write_csv"),
    ("cli.write", "mbsdej.verification", "PropertyReport", "write_json"),
)


def _points(args, kwargs, result):
    return getattr(args[1], "size", 1)


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, measure=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            record = [name, start, start, stack[-1] if stack else -1, 1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    record[4] = measure(args, kwargs, result)
                return result
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        taken = self.spans[:]
        self.spans.clear()
        return taken

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch functions, writer methods and registry builders."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "mbsdej" or n.startswith("mbsdej.")]
        for name, home, attr, measure in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            traced = self.wrap(name, original, measure)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, traced)
        for name, home, cls_name, attr in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))
        self._patch_registry()

    def _patch_registry(self) -> None:
        """Count k and driver evaluations on the objects the builders return."""
        registry = sys.modules["mbsdej.registry"]

        def family(build):
            def builder(*args):
                fam = build(*args)
                left = fam.left_body
                return replace(
                    fam, body=self.wrap("monotone.k", fam.body, _points),
                    left_body=None if left is None else
                    self.wrap("monotone.k", left, _points))
            return builder

        def driver(build):
            def builder(*args):
                drv = build(*args)
                return replace(drv, shape=self.wrap("bsde.driver", drv.shape))
            return builder

        def terminal(build):
            def builder(*args):
                term = build(*args)
                return replace(term, evaluator=self.wrap("bsde.terminal",
                                                         term.evaluator))
            return builder

        for table, adapt in ((registry.FAMILIES, family),
                             (registry.DRIVERS, driver),
                             (registry.TERMINALS, terminal)):
            for key, build in list(table.items()):
                self._undo.append((table, key, build))
                table[key] = adapt(build)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def summarize(spans: list) -> dict:
    """Per-name calls, work units, inclusive and self seconds.

    Self time is a span's duration minus the part covered by its children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict = {}
    for i, (name, start, end, parent, units) in enumerate(spans):
        row = by_name.setdefault(name, {"calls": 0, "units": 0,
                                        "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["units"] += units
        row["incl_s"] += end - start
        row["self_s"] += end - start - child[i]
    return by_name


def count_children(spans: list, name: str, parent_name: str) -> int:
    """Spans called ``name`` whose direct parent is called ``parent_name``."""
    return sum(1 for s in spans
               if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name)


def count_under(spans: list, name: str, ancestor_prefix: str) -> int:
    """Spans called ``name`` with any ancestor whose name has the prefix."""
    total = 0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0:
            if spans[p][0].startswith(ancestor_prefix):
                total += 1
                break
            p = spans[p][3]
    return total
