"""Fleet drain throughput: sequenced planner vs naive concurrency.

Drains 8 single-VM MPI jobs off the IB sub-cluster onto an Ethernet
estate whose backup half sits behind a 1 Gbit/s WAN.  The naive baseline
fires every migration at once with the round-robin destination map,
pushing the four *large* jobs through the WAN; the sequenced planner
destination-swaps them onto local hosts and serialises what still
collides.  The sequenced makespan must beat the naive one.

Writes ``BENCH_fleet.json`` (repo root) with the makespan, per-wave
concurrency, and deferred-request counts of both modes.
"""

from __future__ import annotations

import json
import pathlib

from repro.orchestrator.scenario import run_fleet_scenario

from benchmarks.conftest import run_once

ARTIFACT = pathlib.Path(__file__).parent.parent / "BENCH_fleet.json"


def test_sequenced_beats_naive_makespan(benchmark, record_result):
    def experiment():
        sequenced = run_fleet_scenario(jobs=8, sequenced=True)
        naive = run_fleet_scenario(jobs=8, sequenced=False)
        return sequenced, naive

    sequenced, naive = run_once(benchmark, experiment)

    # Every job must land or roll back cleanly in both modes.
    assert sequenced.completed == 8 and sequenced.failed == 0
    assert naive.completed == 8 and naive.failed == 0

    # The tentpole claim: bandwidth-aware sequencing + destination swaps
    # beat fire-everything-at-once on a bottlenecked topology.
    assert sequenced.makespan_s < naive.makespan_s, (
        f"sequenced {sequenced.makespan_s:.1f} s !< naive {naive.makespan_s:.1f} s"
    )
    # The win comes from actual re-planning, not noise.
    assert sequenced.destination_swaps > 0
    assert sequenced.deferred_total > 0  # backpressure engaged, nothing dropped

    payload = {
        "scenario": "drain 8 jobs, half large, backup site behind 1 Gbit WAN",
        "sequenced": sequenced.to_dict(),
        "naive": naive.to_dict(),
        "speedup": round(naive.makespan_s / sequenced.makespan_s, 3),
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

    record_result(
        "fleet_throughput",
        "\n".join([
            "fleet drain — 8 jobs (4 small + 4 large), 1 Gbit WAN bottleneck",
            f"  naive     makespan: {naive.makespan_s:8.1f} s  waves={naive.wave_concurrency}",
            f"  sequenced makespan: {sequenced.makespan_s:8.1f} s  waves={sequenced.wave_concurrency}",
            f"  speedup:  {naive.makespan_s / sequenced.makespan_s:.2f}x "
            f"(swaps={sequenced.destination_swaps}, "
            f"deferred={sequenced.deferred_total})",
            f"[artifact: {ARTIFACT.name}]",
        ]),
    )
