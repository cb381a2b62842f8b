"""Artifact bytes against per-cell f-string references.

The writers format whole blocks of rows at once; each reference below
formats one cell at a time, the way the files are specified.
"""

import json

import numpy as np
import pytest

from mbsdej import (ConcatenationRecord, MarkSpace, PathEnsemble,
                    PenalizationReport, SolutionGrid, TimeGrid, artifacts, cli)
from mbsdej.bsde import NodeColumns
from mbsdej.penalization import LevelStats

SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300]
GRID = TimeGrid.uniform(1.0, 2)
N_PATHS = artifacts.CHUNK_PATHS + 7     # one full chunk and a short one
MARKS = {0: MarkSpace.empty(), 1: MarkSpace([1.0], [1.0]),
         2: MarkSpace([1.0, -1.0], [0.7, 1.3])}

SWEEP_CONFIG = """
[grid]
T = 1.0
steps = 2

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
levels = 1,2,4

[run]
mode = mbsde
"""


def values(rng, shape):
    """Floats over many magnitudes, with SPECIAL at both ends."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    flat = v.reshape(-1)
    if flat.size >= 2 * len(SPECIAL):
        flat[:len(SPECIAL)] = SPECIAL
        flat[-len(SPECIAL):] = SPECIAL
    return v


def lines(rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in rows).encode()


def solution_case(rng, m, out, monkeypatch):
    path = out / "solution.csv"
    n = GRID.n_steps
    ens = PathEnsemble(GRID, MARKS[m], np.zeros((N_PATHS, n)),
                       np.zeros((N_PATHS, n, m)), 0)
    parts = []
    # K's special values are planted in its increments, which K sums
    for levels, shape in ((range(n + 1), ()), (range(n), ()), (range(n), (m,)),
                          ([0, *range(n)], ())):
        parts.append(NodeColumns.empty(ens, levels, shape))
        parts[-1].leaves()[...] = values(rng, (N_PATHS, len(levels), *shape))
    sol = SolutionGrid(GRID, MARKS[m], *parts, ens.weights)
    sol.write_csv(path)
    rows = [["path", "step", "Y", "Z"] + [f"psi_{j + 1}" for j in range(m)]
            + ["K"]]
    for p in range(N_PATHS):
        for i in range(n + 1):
            z = sol.Z[p, i] if i < n else 0.0
            psis = sol.psi[p, i] if i < n else np.zeros(m)
            rows.append([str(p), str(i), f"{sol.Y[p, i]:.17g}", f"{z:.17g}"]
                        + [f"{v:.17g}" for v in psis]
                        + [f"{sol.K[p, i]:.17g}"])
    return path, lines(rows)


def paths_case(rng, m, out, monkeypatch):
    path = out / "paths.csv"
    n = GRID.n_steps
    ens = PathEnsemble(GRID, MARKS[m], values(rng, (N_PATHS, n)),
                       rng.poisson(2.0, (N_PATHS, n, m)).astype(float), 0)
    ens.write_csv(path)
    rows = [["path", "step", "dW"] + [f"dN_{j + 1}" for j in range(m)]]
    for p in range(N_PATHS):
        for i in range(n):
            rows.append([str(p), str(i), f"{ens.dW[p, i]:.17g}"]
                        + [str(int(ens.dN[p, i, j])) for j in range(m)])
    return path, lines(rows)


def concatenation_case(rng, m, out, monkeypatch):
    path = out / "concatenation.csv"
    levels = [1, 4, 16]
    tau = rng.integers(0, GRID.n_steps + 1, (len(levels) + 1, N_PATHS))
    record = ConcatenationRecord(levels, tau)
    record.write_csv(path)
    rows = [["path", "level", "tau_index"]]
    for row, lev in enumerate([0] + levels):
        for p in range(N_PATHS):
            rows.append([str(p), str(lev), str(tau[row, p])])
    return path, lines(rows)


def sweep_case(rng, m, out, monkeypatch):
    y0, slack, kt = (values(rng, 16) for _ in range(3))
    report = PenalizationReport(rows=[
        LevelStats(2**k, y0[k], 0.0, 0.0, slack[k], kt[k], 0.0, 0.0, 0.0)
        for k in range(16)])
    monkeypatch.setattr(cli, "solve_mbsde", lambda *args: (None, report))
    config = out / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = [["level", "y0", "delta_prev", "min_constraint_slack",
             "k_terminal_mean"]]
    prev = None
    for r in report.rows:
        delta = np.nan if prev is None else abs(r.y0 - prev)
        rows.append([f"{r.level}", f"{r.y0:.17g}", f"{delta:.17g}",
                     f"{r.min_constraint_slack:.17g}",
                     f"{r.k_terminal_mean:.17g}"])
        prev = r.y0
    return out / "sweep.csv", lines(rows)


@pytest.mark.parametrize("case, m", [
    (solution_case, 0), (solution_case, 1), (solution_case, 2),
    (paths_case, 0), (paths_case, 1), (paths_case, 2),
    (concatenation_case, 0), (sweep_case, 0)],
    ids=["solution-m0", "solution-m1", "solution-m2", "paths-m0", "paths-m1",
         "paths-m2", "concatenation", "sweep"])
def test_writer_matches_per_cell_reference(case, m, tmp_path, monkeypatch):
    path, want = case(np.random.default_rng(11), m, tmp_path, monkeypatch)
    assert path.read_bytes() == want


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_json_artifacts_are_strict(tmp_path):
    # without a barrier (neg_exp) every level's slack and the constraint
    # statistic are inf, and the first level's delta is nan: each reads null
    config = tmp_path / "neg_exp.cfg"
    config.write_text(SWEEP_CONFIG.replace("name = reflect_at\na = 0.0",
                                           "name = neg_exp"))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config), "--out", str(out)]) in (0, 3)
    assert cli.main(["verify", "--suite", "core", "--config", str(config),
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_refuse)
    assert report["rows"][0]["delta_prev"] is None
    assert [r["min_constraint_slack"] for r in report["rows"]] == [None] * 3
    checks = json.loads((out / "verify.json").read_text(),
                        parse_constant=_refuse)["checks"]
    assert checks[0]["check"] == "constraint"
    assert checks[0]["statistic"] is None


def double_encoded_json(path, obj) -> None:
    """The former writer: encode, read back with non-finite floats as null,
    encode again."""
    obj = json.loads(json.dumps(obj), parse_constant=lambda name: None)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def test_json_writer_matches_double_encoding(tmp_path):
    rng = np.random.default_rng(4)
    obj = {"b": [1, 2.5, (np.float64(np.nan), -np.inf), {"z": np.inf, "a": None}],
           "a": {"nested": {"x": tuple(values(rng, 20).tolist()),
                            "y": [np.float64(v) for v in SPECIAL]},
                 "flag": True, "n": 7, "text": "NaN"},
           3: "int key", 0.5: [np.float64(1e-310), -0.0, float("nan")]}
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    artifacts.write_json(got, obj)
    double_encoded_json(want, obj)
    assert got.read_bytes() == want.read_bytes()
    assert json.loads(got.read_text(), parse_constant=_refuse)["a"]["nested"][
        "y"][1:4] == [None] * 3
