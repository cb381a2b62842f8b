"""Each workload gate passes on a real, small output and fails on a corrupted one.

    python3 -m pytest perfbench/tests
"""

import json
import shutil

import pytest

import mbsdej.cli
import gates
import workloads


def _small_config(name: str, tmp_path, old: str, new: str):
    text = (workloads.CONFIGS / name).read_text()
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    return path


@pytest.fixture(scope="module")
def bsde_out(tmp_path_factory):
    """A 4000-path run of the bsde-mc config, run twice with one seed."""
    tmp = tmp_path_factory.mktemp("bsde")
    config = _small_config("bsde_mc.cfg", tmp, "n_paths = 100000",
                           "n_paths = 4000")
    outs = []
    for k in range(2):
        out = tmp / f"op{k}"
        code = mbsdej.cli.main(["solve", "--config", str(config),
                                "--out", str(out), "--seed", "2024"])
        assert code == 0
        outs.append(out)
    return outs


def _bsde_work():
    work = workloads.BsdeMC()
    work.n_paths = 4000
    return work


def _corrupt_summary(out, tmp_path, **fields):
    corrupt = tmp_path / "corrupt"
    shutil.copytree(out, corrupt)
    summary = json.loads((corrupt / "summary.json").read_text())
    summary.update(fields)
    (corrupt / "summary.json").write_text(json.dumps(summary))
    return corrupt


def _summary(out):
    return json.loads((out / "summary.json").read_text())


def test_bsde_mc_gate_passes_real_output(bsde_out):
    work = _bsde_work()
    assert work.check(0, bsde_out[0]) is None
    assert work.check(0, bsde_out[1]) is None     # byte-identical rerun


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_bsde_mc_gate_fails_on_y0_moved_5_sd_further(bsde_out, tmp_path, side):
    """Y0 moved 5 standard deviations further from the closed form, on
    either side of it, fails."""
    err = abs(_summary(bsde_out[0])["y0"] - gates.BSDE_MC_Y0)
    y0 = gates.BSDE_MC_Y0 + side * (err + 5.0 * gates.bsde_mc_y0_sd(4000))
    corrupt = _corrupt_summary(bsde_out[0], tmp_path, y0=y0)
    reason = _bsde_work().check(0, corrupt)
    assert reason is not None and "|Y0 -" in reason


@pytest.mark.parametrize("scale", [0.0, 0.05, 5.0, float("nan")])
def test_bsde_mc_gate_fails_on_implausible_y0_se(bsde_out, tmp_path, scale):
    se = scale * gates.bsde_mc_y0_sd(4000)
    corrupt = _corrupt_summary(bsde_out[0], tmp_path, y0_se=se)
    reason = _bsde_work().check(0, corrupt)
    assert reason is not None and ("y0_se" in reason or "non-finite" in reason)


def test_bsde_mc_gate_fails_on_nonzero_exit(bsde_out):
    assert _bsde_work().check(3, bsde_out[0]) == "exit code 3"


def test_byte_gate_fails_on_one_changed_byte(bsde_out, tmp_path):
    work = _bsde_work()
    assert work.check(0, bsde_out[0]) is None
    corrupt = tmp_path / "corrupt"
    shutil.copytree(bsde_out[1], corrupt)
    csv = corrupt / "solution.csv"
    data = bytearray(csv.read_bytes())
    pos = len(data) // 2
    data[pos] = ord("7") if data[pos] != ord("7") else ord("3")
    csv.write_bytes(bytes(data))
    reason = work.check(0, corrupt)
    assert reason is not None and "differs" in reason


def _rewritten_csv(out, tmp_path, edit):
    corrupt = tmp_path / "corrupt"
    shutil.copytree(out, corrupt)
    csv = corrupt / "solution.csv"
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(edit(lines)))
    return corrupt


def _fewer_digits(line: str) -> str:
    p, i, *values = line.rstrip("\n").split(",")
    return ",".join([p, i] + [f"{float(v):.8g}" for v in values]) + "\n"


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1], "rows"),
    (lambda lines: lines[:5] + lines[6:], "is not (path"),
    (lambda lines: ["p,s,Y,Z,psi_1,K\n"] + lines[1:], "header"),
    (lambda lines: lines[:1] + [_fewer_digits(ln) for ln in lines[1:]],
     "step-0 Y mean"),
])
def test_csv_gate_fails_on_lost_rows_or_digits(bsde_out, tmp_path, edit,
                                               message):
    """A shorter solution.csv passes only with every row and full digits."""
    corrupt = _rewritten_csv(bsde_out[0], tmp_path, edit)
    reason = _bsde_work().check(0, corrupt)
    assert reason is not None and message in reason


@pytest.fixture(scope="module")
def verify_out(tmp_path_factory):
    """verify --suite all on the tree-verify config cut to 4 steps."""
    tmp = tmp_path_factory.mktemp("verify")
    config = _small_config("tree_verify.cfg", tmp, "steps = 9", "steps = 4")
    out = tmp / "op"
    code = mbsdej.cli.main(["verify", "--config", str(config), "--suite",
                            "all", "--out", str(out)])
    return code, out


def test_tree_verify_gate_passes_real_output(verify_out):
    code, out = verify_out
    assert workloads.TreeVerify().check(code, out) is None


def test_tree_verify_gate_fails_on_one_fail_entry(verify_out, tmp_path):
    code, out = verify_out
    corrupt = tmp_path / "corrupt"
    shutil.copytree(out, corrupt)
    report = json.loads((corrupt / "verify.json").read_text())
    report["checks"][1]["pass"] = False
    (corrupt / "verify.json").write_text(json.dumps(report))
    reason = workloads.TreeVerify().check(code, corrupt)
    assert reason == "failing checks: " + report["checks"][1]["check"]


def test_tree_verify_gate_fails_without_checks(verify_out, tmp_path):
    code, _ = verify_out
    assert gates.tree_verify(code, {"pass": True, "checks": []}) is not None
    assert gates.tree_verify(1, {"checks": [{"check": "x", "pass": True}]}) \
        == "exit code 1"


@pytest.fixture(scope="module")
def unbounded_result():
    """The unbounded-mc operation on 1000 paths and 3 truncation levels."""
    work = workloads.UnboundedMC()
    work.n_paths, work.max_truncation = 1000, 3
    work.prepare()
    return work, work.execute(909, None)


def test_unbounded_gate_passes_real_output(unbounded_result):
    work, result = unbounded_result
    assert work.check(result, None) is None


def test_unbounded_gate_fails_on_increasing_tau_row(unbounded_result):
    work, (record, resid) = unbounded_result
    tau = record.tau.copy()
    tau[-1, 0] = tau[-2, 0] + 1
    reason = gates.unbounded_mc(tau, record.overlaps, 1e-3, work.max_truncation,
                                work.n_paths, work.n_steps, resid.passed())
    assert reason is not None and "increases" in reason


def test_unbounded_gate_fails_on_shape_anchor_and_residual(unbounded_result):
    work, (record, resid) = unbounded_result
    args = (record.overlaps, 1e-3, work.max_truncation, work.n_paths,
            work.n_steps)
    assert "shape" in gates.unbounded_mc(record.tau[:-1], *args, True)
    tau = record.tau.copy()
    tau[0, 3] = 0
    assert "tau_0" in gates.unbounded_mc(tau, *args, True)
    assert "residual" in gates.unbounded_mc(record.tau, *args, False)


def test_closed_form_matches_exact_tree():
    """The bsde-mc reference value is what the tree backend computes."""
    from mbsdej.config import build_problem, parse_config
    text = (workloads.CONFIGS / "bsde_mc.cfg").read_text()
    text = text.replace("kind = regression", "kind = tree")
    problem, backend, _, _ = build_problem(parse_config(text))
    tree = mbsdej.build_tree(problem.grid, problem.marks)
    sol = mbsdej.solve_bsde(problem.driver, problem.terminal, tree,
                            problem.grid, problem.marks, backend)
    assert abs(sol.y0() - gates.BSDE_MC_Y0) < 1e-12
