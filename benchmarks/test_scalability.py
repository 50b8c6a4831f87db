"""Scalability study — the test the paper says it lacks (Section V).

"Our evaluation lacks scalability tests, but the proposed mechanism is
essentially scalable.  The overhead consists of four parts:
coordination, migration, hotplug, and link-up.  The coordination has a
negligible impact … The other two are done in constant time."

We sweep the VM count (2 → 16, one VM per host, memtest 2 GB) through a
full IB→IB Ninja migration and decompose the overhead.  Expected:
coordination sub-second and slowly growing, hotplug and link-up
constant, migration flat (parallel streams over disjoint blade links —
the paper's caveat about congestion concerns shared uplinks, which the
single-enclosure topology does not have).
"""

from repro.analysis.experiments import run_fig6_memtest
from repro.analysis.report import render_table
from repro.units import GiB

from benchmarks.conftest import run_once

SWEEP = (2, 4, 8, 16)


def test_scalability_sweep(benchmark, record_result):
    def sweep():
        return {nvms: run_fig6_memtest(2 * GiB, nvms=nvms) for nvms in SWEEP}

    results = run_once(benchmark, sweep)
    rows = []
    for nvms, result in results.items():
        b = result.breakdown
        rows.append([
            str(nvms),
            f"{b.coordination_s:.2f}",
            f"{b.hotplug_s:.2f}",
            f"{b.migration_s:.1f}",
            f"{b.linkup_s:.1f}",
            f"{b.total_s:.1f}",
        ])
    record_result(
        "scalability",
        render_table(
            ["VMs", "coordination [s]", "hotplug [s]", "migration [s]",
             "linkup [s]", "total [s]"],
            rows,
            title="Scalability — Ninja overhead vs simultaneous VM count",
        ),
    )

    breakdowns = {n: r.breakdown for n, r in results.items()}
    # Coordination negligible at every scale.
    assert all(b.coordination_s < 2.0 for b in breakdowns.values())
    # Hotplug and link-up constant (within 5 %).
    hot = [b.hotplug_s for b in breakdowns.values()]
    link = [b.linkup_s for b in breakdowns.values()]
    assert max(hot) / min(hot) < 1.05
    assert max(link) / min(link) < 1.05
    # Migration flat: parallel streams over disjoint links.
    mig = [b.migration_s for b in breakdowns.values()]
    assert max(mig) / min(mig) < 1.1
    # Total overhead essentially scale-independent — "the proposed
    # mechanism is essentially scalable".
    totals = [b.total_s for b in breakdowns.values()]
    assert max(totals) / min(totals) < 1.1
