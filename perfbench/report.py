"""Print every metric of every workload by name and unit, with fail_frac.

    python3 perfbench/report.py [--trace 0|1]

Each workload runs in its own ``run.py`` process (so peak memory is its
own) at its reference seed for ``SECONDS``, which runs its minimum number of
operations.  ``fail_frac`` is
failed / attempted operations.  With ``--trace 1`` the per-layer metrics are
printed and reconciled with the baseline in README.md: the listed counts
must match exactly; the shares of operation time are printed beside the
baseline's so a drift is visible.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import env

RUN = Path(__file__).resolve().parent / "run.py"
SECONDS = 1.0

# Exact counts at the reference seed.
EXPECTED_COUNTS = {
    "unbounded-mc": {"monotone.resolvent_calls": 1280, "bsde.ridge_calls": 640,
                     "penalization.levels_solved": 80},
    "tree-verify": {"penalization.levels_solved": 60,
                    "penalization.ladders": 10},
}

# Shares of one traced operation's wall time in the baseline measurement.
BASELINE_SHARES = {
    "unbounded-mc": {"monotone.resolvent_s": 0.86},
    "tree-verify": {"bsde.solve_self_s": 0.29, "penalization.self_s": 0.42,
                    "monotone.resolvent_s": 0.11},
    "bsde-mc": {"scenario.simulate_paths_s": 0.41, "cli.write_s": 0.54,
                "projection_s": 0.04},
}


def run_workload(workload: str, seed: int, trace: int):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS),
                           "--trace", str(trace)], cwd=env.ROOT,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = [ln.split(": ", 1)[1] for ln in proc.stderr.splitlines()
            if ln.startswith("results: ")][-1]
    return result, json.loads((env.ROOT / path).read_text())


def reconcile(workload: str, metrics: dict, details: dict) -> list[str]:
    lines = []
    values = {name: m["value"] for name, m in metrics.items()}
    for name, want in EXPECTED_COUNTS.get(workload, {}).items():
        got = values[name]
        flag = "ok" if got == want else "MISMATCH"
        lines.append(f"  count {name:34s} {got:>12g} expected {want:<8g} {flag}")
    walls = sorted(op["wall_s"] for op in details["traced_ops"])
    wall = walls[len(walls) // 2]
    values["projection_s"] = values["bsde.ridge_s"] + values["bsde.design_s"]
    for name, base in BASELINE_SHARES.get(workload, {}).items():
        lines.append(f"  share {name:34s} {values[name] / wall:>12.3f} "
                     f"baseline {base:.2f}")
    return lines


def main(argv=None) -> int:
    env.bootstrap()
    from workloads import REFERENCE_SEEDS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    all_pass = True
    for workload, seed in REFERENCE_SEEDS.items():
        result, details = run_workload(workload, seed, args.trace)
        fail_frac = result["failed"] / result["attempted"]
        all_pass &= result["correct"]
        print(f"{workload} (seed {seed}, {result['attempted']} operations)")
        for name, metric in result["metrics"].items():
            stats = details["stats"].get(name, {})
            extra = ""
            if "q1" in stats:
                extra = f"  [q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}]"
            print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']:<9s}"
                  f" n={stats.get('samples', '?')}{extra}")
        print(f"  {'fail_frac':40s} {fail_frac:>14.6g} {'fraction':<9s}"
              f" n={result['attempted']}")
        if args.trace:
            for line in reconcile(workload, result["metrics"], details):
                print(line)
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
