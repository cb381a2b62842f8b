"""The tracer's bookkeeping and its attribute patches.

    python3 -m pytest perfbench/tests
"""

import mbsdej
import mbsdej.bsde
import mbsdej.cli
import mbsdej.penalization
from mbsdej import registry

import tracer
import workloads


def test_self_time_subtracts_children():
    spans = [["op", 0.0, 10.0, -1, 1],
             ["a", 1.0, 5.0, 0, 1],
             ["b", 2.0, 3.0, 1, 4],
             ["b", 6.0, 7.0, 0, 2]]
    rows = tracer.summarize(spans)
    assert rows["op"]["self_s"] == 10.0 - 4.0 - 1.0
    assert rows["a"]["self_s"] == 3.0
    assert rows["b"] == {"calls": 2, "units": 6, "incl_s": 2.0, "self_s": 2.0}
    assert tracer.count_children(spans, "b", "a") == 1
    assert tracer.count_under(spans, "b", "op") == 2


def test_install_patches_every_lookup_and_uninstall_restores():
    originals = (mbsdej.cli.simulate_paths, mbsdej.penalization.solve_bsde,
                 mbsdej.bsde.resolvent_ordinate, registry.FAMILIES["step"],
                 mbsdej.SolutionGrid.write_csv)
    t = tracer.Tracer()
    t.install()
    try:
        assert mbsdej.cli.simulate_paths is mbsdej.scenario.simulate_paths
        assert mbsdej.cli.simulate_paths is not originals[0]
        assert mbsdej.penalization.solve_bsde is mbsdej.bsde.solve_bsde
        assert mbsdej.bsde.resolvent_ordinate is mbsdej.monotone.resolvent_ordinate
    finally:
        t.uninstall()
    assert (mbsdej.cli.simulate_paths, mbsdej.penalization.solve_bsde,
            mbsdej.bsde.resolvent_ordinate, registry.FAMILIES["step"],
            mbsdej.SolutionGrid.write_csv) == originals


def test_traced_solve_counts_levels_and_sweeps():
    """A small unbounded solve: two sweeps per step (zero driver, one
    resolvent per sweep), one ridge solve per step, every span nested in
    the operation."""
    t = tracer.Tracer()
    t.install()
    try:
        work = workloads.UnboundedMC()
        work.n_paths, work.max_truncation = 1000, 2
        work.prepare()
        t.take()
        t.wrap("op", work.execute)(909, None)
        spans = t.take()
    finally:
        t.uninstall()
    rows = tracer.summarize(spans)
    levels = rows["penalization.solve_penalized"]["calls"]
    assert rows["penalization.solve_mbsde"]["calls"] == 2
    assert rows["bsde.solve"]["calls"] == levels
    assert rows["bsde.ridge"]["calls"] == 8 * levels
    assert rows["monotone.resolvent"]["calls"] == 16 * levels
    assert tracer.count_children(spans, "bsde.driver", "bsde.solve") == 16 * levels
    assert rows["scenario.simulate_paths"]["units"] == 1000
    assert rows["monotone.k"]["units"] > rows["monotone.k"]["calls"]
    assert sum(1 for s in spans if s[3] < 0) == 1
