"""Benchmark runner for mbsdej.

    python3 perfbench/run.py --workload {unbounded-mc,tree-verify,bsde-mc} \
        --seed N --seconds S --trace {0,1}

Runs the workload's operation repeatedly for at least ``--seconds`` seconds
(closed loop, one operation at a time, at least ``min_ops`` of the workload),
checks every output with the
workload's gate, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs half the time untraced and half traced and reports the per-layer
metrics, read from spans recorded around the calls into each module (see
tracer.py).  A results file with the machine record, every operation and,
for traced runs, every span goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import env
from tracer import Tracer, count_children, count_under, summarize

PERFBENCH = Path(__file__).resolve().parent
OUT_DIR = env.ROOT / ".bench_out"
WORK_DIR = env.ROOT / ".bench_work"
SETUP_PROBES = 8                 # fresh interpreters timed before and after
PROBE_TIMEOUT = 60.0

END_TO_END = {"wall_s": "s", "path_steps_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

VERIFICATION_CHECKS = ("constraint", "skorokhod", "comparison", "uniqueness",
                       "bounds_monitor", "block_y0_se")

PER_LAYER = {
    "config.parse_s": "s",
    "config.build_problem_s": "s",
    "monotone.validate_assumptions_s": "s",
    "scenario.simulate_paths_s": "s",
    "scenario.paths_drawn": "count",
    "scenario.build_tree_s": "s",
    "scenario.tree_nodes": "count",
    "monotone.resolvent_s": "s",
    "monotone.resolvent_calls": "count",
    "monotone.k_evals": "count",
    "monotone.k_points": "count",
    "monotone.k_evals_per_resolvent": "count",
    "bsde.solve_calls": "count",
    "bsde.solve_self_s": "s",
    "bsde.ridge_calls": "count",
    "bsde.ridge_s": "s",
    "bsde.design_s": "s",
    "bsde.driver_evals": "count",
    "bsde.residual_check_s": "s",
    "penalization.levels_solved": "count",
    "penalization.ladders": "count",
    "penalization.truncation_levels": "count",
    "penalization.self_s": "s",
    **{f"verification.{c}_s": "s" for c in VERIFICATION_CHECKS},
    "verification.solves": "count",
    "cli.write_s": "s",
    "cli.write_bytes": "B",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- machine record --------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = env.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": env.THREADS,
            "thread_vars": {v: os.environ.get(v) for v in env.THREAD_VARS},
            "git_commit": git_commit(),
            "seed": seed}


# -- measurement ------------------------------------------------------------------


def measure_setup(workload: str, probes: int) -> list[float]:
    """Set-up seconds of ``probes`` fresh interpreters, each waited for."""
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"),
                               workload], cwd=env.ROOT,
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_ops(work, seed: int, seconds: float, min_ops: int, work_root: Path,
            tracer=None) -> list[dict]:
    """Repeat the operation until ``seconds`` have passed and ``min_ops`` ran."""
    ops = []
    start = perf_counter()
    while True:
        out = work_root / f"op{len(ops)}"
        out.mkdir(parents=True)
        t0, c0 = perf_counter(), time.process_time()
        try:
            result = work.execute(seed, out)
            wall, cpu = perf_counter() - t0, time.process_time() - c0
            reason = work.check(result, out)
        except Exception:          # a raising operation counts as failed
            wall, cpu = perf_counter() - t0, time.process_time() - c0
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
            traceback.print_exc(file=sys.stderr)
        op = {"wall_s": wall, "cpu_s": cpu, "failed": reason is not None,
              "reason": reason, "write_bytes": dir_bytes(out)}
        if tracer is not None:
            op["spans"] = tracer.take()
        ops.append(op)
        shutil.rmtree(out)
        if len(ops) >= min_ops and perf_counter() - start >= seconds:
            return ops


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


def end_to_end(work, ops: list[dict], setup: list[float]) -> tuple[dict, dict]:
    walls = [o["wall_s"] for o in ops]
    wall = statistics.median(walls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": wall,
              "path_steps_per_s": work.n_paths * work.n_steps / wall,
              "setup_s": statistics.median(setup),
              "peak_rss_mb": peak}
    stats = {"wall_s": quartiles(walls), "setup_s": quartiles(setup),
             "path_steps_per_s": {"samples": len(walls)},
             "peak_rss_mb": {"samples": 1}}
    return values, stats


def layer_metrics(op: dict, setup_summary: dict) -> dict:
    """Per-layer values of one traced operation."""
    spans = op["spans"]
    rows = summarize(spans)

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    def setup_or_op(name):
        return get(name, "incl_s") + setup_summary.get(name, {}).get("incl_s", 0.0)

    resolvents = get("monotone.resolvent", "calls")
    k_inside = count_children(spans, "monotone.k", "monotone.resolvent")
    # cli.command spans wrap the CLI's glue between the named layers, so
    # their self time belongs to no layer
    attributed = sum(r["self_s"] for n, r in rows.items() if n != "cli.command")
    values = {
        "config.parse_s": setup_or_op("config.parse"),
        "config.build_problem_s": setup_or_op("config.build_problem"),
        "monotone.validate_assumptions_s":
            setup_or_op("monotone.validate_assumptions"),
        "scenario.simulate_paths_s": get("scenario.simulate_paths", "incl_s"),
        "scenario.paths_drawn": get("scenario.simulate_paths", "units"),
        "scenario.build_tree_s": get("scenario.build_tree", "incl_s"),
        "scenario.tree_nodes": get("scenario.build_tree", "units"),
        "monotone.resolvent_s": get("monotone.resolvent", "incl_s"),
        "monotone.resolvent_calls": resolvents,
        "monotone.k_evals": get("monotone.k", "calls"),
        "monotone.k_points": get("monotone.k", "units"),
        "monotone.k_evals_per_resolvent":
            k_inside / resolvents if resolvents else 0.0,
        "bsde.solve_calls": get("bsde.solve", "calls"),
        "bsde.solve_self_s": get("bsde.solve", "self_s"),
        "bsde.ridge_calls": get("bsde.ridge", "calls"),
        "bsde.ridge_s": get("bsde.ridge", "incl_s"),
        "bsde.design_s": get("bsde.design", "incl_s"),
        "bsde.driver_evals": count_children(spans, "bsde.driver", "bsde.solve"),
        "bsde.residual_check_s": get("bsde.residual_check", "incl_s"),
        "penalization.levels_solved": get("penalization.solve_penalized", "calls"),
        "penalization.ladders": get("penalization.solve_mbsde", "calls"),
        "penalization.truncation_levels":
            get("monotone.truncate_shift", "calls"),
        "penalization.self_s": sum(r["self_s"] for n, r in rows.items()
                                   if n.startswith("penalization.")),
        **{f"verification.{c}_s": get(f"verification.{c}", "incl_s")
           for c in VERIFICATION_CHECKS},
        "verification.solves": count_under(spans, "bsde.solve", "verification."),
        "cli.write_s": get("cli.write", "incl_s"),
        "cli.write_bytes": op["write_bytes"],
        "trace.unattributed_frac": 1.0 - attributed / op["wall_s"],
    }
    return values


def main(argv=None) -> int:
    if not env.source_present():
        print(f"error: no mbsdej sources under {env.SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    env.bootstrap()
    import workloads                       # imports NumPy, after the thread pins
    args = parse_args(argv, list(workloads.WORKLOADS))

    run_start = perf_counter()
    work = workloads.WORKLOADS[args.workload]()
    record = machine_record(args.seed)
    measure_setup(args.workload, 1)        # warm the file cache and .pyc files
    setup = measure_setup(args.workload, SETUP_PROBES)
    work_root = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        work.prepare()
        if not args.trace:
            ops = run_ops(work, args.seed, args.seconds, work.min_ops,
                          work_root)
            traced = []
        else:
            ops = run_ops(work, args.seed, args.seconds / 2, 1, work_root)
            tracer = Tracer()
            tracer.install()
            try:
                work.prepare()
                setup_spans = tracer.take()
                traced = run_ops(work, args.seed, args.seconds / 2, 1,
                                 work_root, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    # probes on both sides of the operations spread them over the run
    setup += measure_setup(args.workload, SETUP_PROBES)

    every = ops + traced
    failed = sum(o["failed"] for o in every)
    values, stats = end_to_end(work, ops, setup)
    if args.trace:
        setup_summary = summarize(setup_spans)
        per_op = [layer_metrics(o, setup_summary) for o in traced]
        layer = {name: statistics.median(o[name] for o in per_op)
                 for name in PER_LAYER if name != "trace.overhead_frac"}
        layer["trace.overhead_frac"] = (
            statistics.median(o["wall_s"] for o in traced) / values["wall_s"] - 1.0)
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER.items()}
        stats.update({n: {"samples": len(traced)} for n in PER_LAYER})
    else:
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    record["samples"] = {n: stats[n]["samples"] for n in metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    results = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "record": record, "metrics": metrics, "stats": stats,
               "ops": [{k: v for k, v in o.items() if k != "spans"} for o in ops],
               "traced_ops": [{k: v for k, v in o.items() if k != "spans"}
                              for o in traced],
               "setup_s": setup,
               "spans": [o["spans"] for o in traced],
               "run_s": perf_counter() - run_start}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(results))
    print(f"results: {path.relative_to(env.ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(every),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
