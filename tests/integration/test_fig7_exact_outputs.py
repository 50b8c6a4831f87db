"""Exact-output oracle for the MPI message path.

Two Figure 7 pairs (class C, one IB-to-IB Ninja migration 20 s after the
start) pin the simulated times to the last digit, so any change to how
the MPI runtime, matching engine or compute phases drive the event
kernel must leave every float bit-identical.  The same runs pin the
kernel work (events processed, processes started), which is what those
changes are meant to cut.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_fig7_npb
from repro.sim.core import Environment

#: bench -> (baseline, proposed, overhead, coordination, hotplug,
#: migration, linkup) as ``repr`` strings, then (events, processes)
#: summed over the pair's two environments.
EXPECTED = {
    "CG": (
        (
            "34.06413156603639", "118.04787702492615", "83.98374545888976",
            "0.4531355363200049", "12.37039999999999", "41.686145458891964",
            "29.48196",
        ),
        (78943, 6859),
    ),
    "FT": (
        (
            "22.740430056552306", "115.1144824770181", "92.3740524204658",
            "2.5450168452417827", "12.37039999999999", "49.70845242046573",
            "29.481960000000015",
        ),
        (254737, 42059),
    ),
}


@pytest.mark.parametrize("bench", sorted(EXPECTED))
def test_fig7_class_c_pair_is_exact(bench, monkeypatch):
    started: dict = {}
    process = Environment.process

    def counting(env, generator, name=""):
        started[env] = started.get(env, 0) + 1
        return process(env, generator, name)

    monkeypatch.setattr(Environment, "process", counting)
    r = run_fig7_npb(bench, class_name="C", migrate_after_s=20.0, seed=0)
    b = r.breakdown
    times = (
        r.baseline_s, r.proposed_s, r.overhead_s,
        b.coordination_s, b.hotplug_s, b.migration_s, b.linkup_s,
    )
    expected_times, (events, processes) = EXPECTED[bench]
    assert tuple(map(repr, times)) == expected_times
    assert len(started) == 2
    assert sum(env.events_processed for env in started) == events
    assert sum(started.values()) == processes
