"""Exact-output oracle for the MPI message path.

Two Figure 7 pairs (class C, one IB-to-IB Ninja migration 20 s after the
start) pin the simulated times to the last digit, so any change to how
the MPI runtime, matching engine or compute phases drive the event
kernel must leave every float bit-identical.  The same runs pin each
environment's trace (a sha256 of its JSONL, baseline run first), which
catches a reordering of same-instant records that leaves the floats
alone, and the kernel work (events processed, processes started), which
is what those changes are meant to cut.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_fig7_npb
from repro.sim.core import Environment
from repro.sim.trace import Tracer
from tests.integration.test_trace_pins import trace_sha256

#: bench -> (baseline, proposed, overhead, coordination, hotplug,
#: migration, linkup) as ``repr`` strings, then the trace digest of each
#: environment, then (events, processes) summed over the pair's two
#: environments.
EXPECTED = {
    "CG": (
        (
            "34.06413156603639", "118.04787702492615", "83.98374545888976",
            "0.4531355363200049", "12.37039999999999", "41.686145458891964",
            "29.48196",
        ),
        (
            "c30545f4cd74c128a24a1e79b79c506e870098d0257cd0950ad419f53fd7078f",
            "d1a13b2d191fbbe9da82ca653f4de923d151f827e12f39b127cce6458f6ef7b4",
        ),
        (59887, 203),
    ),
    "FT": (
        (
            "22.740430056552306", "115.1144824770181", "92.3740524204658",
            "2.5450168452417827", "12.37039999999999", "49.70845242046573",
            "29.481960000000015",
        ),
        (
            "c30545f4cd74c128a24a1e79b79c506e870098d0257cd0950ad419f53fd7078f",
            "f78326ea924151b78348a3e5cce357d21989b10f452efe03531ca89bdee82473",
        ),
        (211681, 203),
    ),
}


@pytest.mark.parametrize("bench", sorted(EXPECTED))
def test_fig7_class_c_pair_is_exact(bench, monkeypatch):
    started: dict = {}
    process = Environment.process

    def counting(env, generator, name=""):
        started[env] = started.get(env, 0) + 1
        return process(env, generator, name)

    tracers: list = []
    tracer_init = Tracer.__init__

    def recording(tracer):
        tracer_init(tracer)
        tracers.append(tracer)

    monkeypatch.setattr(Environment, "process", counting)
    monkeypatch.setattr(Tracer, "__init__", recording)
    r = run_fig7_npb(bench, class_name="C", migrate_after_s=20.0, seed=0)
    b = r.breakdown
    times = (
        r.baseline_s, r.proposed_s, r.overhead_s,
        b.coordination_s, b.hotplug_s, b.migration_s, b.linkup_s,
    )
    expected_times, digests, (events, processes) = EXPECTED[bench]
    assert tuple(map(repr, times)) == expected_times
    assert tuple(map(trace_sha256, tracers)) == digests
    assert len(started) == 2
    assert sum(env.events_processed for env in started) == events
    assert sum(started.values()) == processes
