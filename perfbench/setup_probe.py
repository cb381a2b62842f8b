"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is the import of ``mbsdej`` (CLI included) plus building the problem:
``parse_config`` and ``build_problem`` for the CLI workloads, the registry
``Problem`` for ``unbounded-mc``; both run ``validate_assumptions``.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from time import perf_counter

import env


def main(workload: str) -> None:
    env.bootstrap()
    start = perf_counter()
    import workloads
    if workload == "unbounded-mc":
        workloads.unbounded_problem()
    else:
        from mbsdej.config import build_problem, parse_config
        cls = workloads.WORKLOADS[workload]
        build_problem(parse_config((workloads.CONFIGS / cls.config).read_text()))
    print(repr(perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
