"""Correctness gates of the benchmark workloads.

Each gate takes what one operation produced and returns ``None`` when the
output is correct, or a one-line reason when it is not.  The gates read
outputs only, so the benchmark-local tests can feed them corrupted copies.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# Y0 of the bsde-mc instance: the linear implicit scheme with h = 0.5 y +
# 0.2 z + q, xi = W_T and 8 equal steps on [0, 1] has this closed form (the
# exact tree reproduces it to 1e-15).
BSDE_MC_Y0 = 0.2 * (1.0 - 0.5 / 8) ** -8
# Statistical gates sit at 4.5 standard deviations, where a correct program
# fails one with odds of about 7e-6: runs over many seeds do not fail by
# chance.
Z_GATE = 4.5
# Standard deviation of the Y0 estimator at 100,000 paths: the spread of Y0
# over 82 seeds (0.00670; their mean sat 0.5 sd-of-mean from the closed
# form).  It scales as 1 / sqrt(n_paths).  The gate uses this fixed value,
# not the run's own y0_se: that is an 8-block batch-means estimate (7 degrees
# of freedom), so a gate of 4 y0_se failed a correct program on about 0.5% of
# seeds.
BSDE_MC_Y0_SD = 0.0067
BSDE_MC_SD_PATHS = 100_000
# y0_se must lie in this multiple of the reference deviation; a correct
# 7-degree-of-freedom estimate leaves it with odds of about 1e-6.
BSDE_MC_SE_RANGE = (0.1, 2.5)


def bsde_mc_y0_sd(n_paths: int) -> float:
    return BSDE_MC_Y0_SD * math.sqrt(BSDE_MC_SD_PATHS / n_paths)


def bsde_mc(summary: dict, n_paths: int) -> str | None:
    """|Y0 - closed form| <= 4.5 sd, and y0_se of the size of sd.

    sd is the reference standard deviation of Y0 at ``n_paths`` paths;
    summary is the CLI's summary.json.
    """
    y0, se = float(summary["y0"]), float(summary["y0_se"])
    if not (math.isfinite(y0) and math.isfinite(se)):
        return f"non-finite Y0 or standard error (y0={y0}, se={se})"
    sd = bsde_mc_y0_sd(n_paths)
    err = abs(y0 - BSDE_MC_Y0)
    if err > Z_GATE * sd:
        return (f"|Y0 - {BSDE_MC_Y0:.12g}| = {err:.3g} > "
                f"{Z_GATE:g} * sd = {Z_GATE * sd:.3g}")
    low, high = BSDE_MC_SE_RANGE
    if not low * sd <= se <= high * sd:
        return (f"y0_se = {se:.3g} is outside [{low:g}, {high:g}] * sd "
                f"(sd = {sd:.3g})")
    return None


def solution_csv(path: Path, n_paths: int, n_steps: int, n_marks: int,
                 y0: float) -> str | None:
    """solution.csv holds every (path, step) row in order, with full digits.

    The header names the columns, there are n_paths * (n_steps + 1) rows of
    n_marks + 5 fields, each numbered by its path and step, every value is
    finite, and the mean of the step-0 Y column is the summary's Y0 to 1e-12
    (so values that lost digits fail).
    """
    columns = (["path", "step", "Y", "Z"] +
               [f"psi_{j + 1}" for j in range(n_marks)] + ["K"])
    header, width, per_path = ",".join(columns), len(columns), n_steps + 1
    rows, first_y = 0, []
    with open(path) as fh:
        got = fh.readline().rstrip("\n")
        if got != header:
            return f"solution.csv header {got!r} != {header!r}"
        for line in fh:
            cells = line.split(",")
            p, i = divmod(rows, per_path)
            if len(cells) != width or cells[0] != str(p) or cells[1] != str(i):
                return (f"solution.csv row {rows + 1} is not (path {p}, "
                        f"step {i}): {line.strip()!r}")
            values = [float(c) for c in cells[2:]]
            if not all(math.isfinite(v) for v in values):
                return f"solution.csv row {rows + 1} has a non-finite value"
            if i == 0:
                first_y.append(values[0])
            rows += 1
    if rows != n_paths * per_path:
        return f"solution.csv has {rows} rows, expected {n_paths * per_path}"
    mean = math.fsum(first_y) / n_paths
    if abs(mean - y0) > 1e-12 * max(1.0, abs(y0)):
        return f"solution.csv step-0 Y mean {mean!r} != summary y0 {y0!r}"
    return None


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def same_bytes(first: str, again: str) -> str | None:
    """Two operations with one seed must write byte-identical artifacts."""
    if first != again:
        return f"artifact differs between two operations ({first[:12]} vs {again[:12]})"
    return None


def tree_verify(code: int, verify: dict) -> str | None:
    """Exit code 0 and every entry of verify.json passing."""
    if code != 0:
        return f"exit code {code}"
    checks = verify.get("checks") or []
    if not checks:
        return "verify.json lists no checks"
    failing = [c["check"] for c in checks if c.get("pass") is not True]
    if failing:
        return "failing checks: " + ", ".join(failing)
    return None


def unbounded_mc(tau: np.ndarray, overlaps, stop_tolerance: float,
                 max_truncation: int, n_paths: int, n_steps: int,
                 residual_passed: bool) -> str | None:
    """The acceptance assertions of the unbounded-extension instance.

    tau has one row per truncation level plus the tau_0 = T anchor, starts at
    the terminal index and is nonincreasing down the rows; every overlap mean
    sits within 10 stop tolerances plus 4 standard errors; the concatenated
    solution passes the residual check (each step's mean residual within
    Z_GATE standard errors).
    """
    tau = np.asarray(tau)
    if tau.shape != (max_truncation + 1, n_paths):
        return f"tau shape {tau.shape} != {(max_truncation + 1, n_paths)}"
    if not np.all(tau[0] == n_steps):
        return "tau_0 is not the terminal index on every path"
    rises = np.diff(tau, axis=0) > 0
    if rises.any():
        row, path = np.argwhere(rises)[0]
        return f"tau increases from level {row} to {row + 1} on path {path}"
    for ov in overlaps:
        gate = 10.0 * stop_tolerance + 4.0 * ov.se_y_diff
        if ov.cells and abs(ov.mean_y_diff) > gate:
            return (f"overlap at level {ov.level}: |mean dY| = "
                    f"{abs(ov.mean_y_diff):.3g} > {gate:.3g}")
    if not residual_passed:
        return "concatenated solution fails the residual check"
    return None
