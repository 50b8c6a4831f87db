"""The orchestrator crash drain, swept over crash time.

The controller dies at the first ``controller.crash.*`` boundary at or
after ``crash_at_s`` seconds into the drain, swept from 0.5 s (before
any job finishes) to 45 s (past the last completion, so the crash never
fires).
Whatever the instant, recovery is clean (or nothing crashed), the
successor finishes every job off the IB blades, and the end state passes
every invariant with no VM lost.
"""

from __future__ import annotations

import pytest

from repro.orchestrator.scenario import run_fleet_scenario
from tests.conftest import assert_safe
from tests.golden import closing_checks

CRASH_TIMES_S = (0.5, 2.0, 5.0, 10.0, 20.0, 30.0, 45.0)


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize("crash_at_s", CRASH_TIMES_S)
def test_crash_at_any_time_recovers_every_job(jobs, crash_at_s):
    with closing_checks() as seen:
        result = run_fleet_scenario(jobs=jobs, crash_at_s=crash_at_s)
    assert result.recovered or not result.crashed, result.decisions
    assert result.completed == jobs, result.outcomes
    assert all(
        host.startswith("eth") for hosts in result.final_hosts.values() for host in hosts
    ), result.final_hosts
    assert result.lost_vms == []
    cluster, journal, books = seen[-1]
    assert_safe(cluster, journal, **books)


def test_the_sweep_spans_the_drain():
    """The earliest crash lands before any job finishes and the latest
    after the last one, so the sweep covers the whole drain."""
    first = run_fleet_scenario(jobs=4, crash_at_s=CRASH_TIMES_S[0])
    last = run_fleet_scenario(jobs=4, crash_at_s=CRASH_TIMES_S[-1])
    assert first.crashed and first.resubmitted == 4
    assert not last.crashed and last.makespan_s < CRASH_TIMES_S[-1]


@pytest.mark.parametrize("fault", [{"cut_at_s": 6.0}, {"kill_at_s": 12.0}])
def test_a_crash_at_a_time_is_not_combined_with_a_cut_or_kill(fault):
    """Combined faults need the successor orchestrator handed to the
    incident stack; until then the runner refuses the mix."""
    from repro.incident.scenario import run_drill

    with pytest.raises(ValueError, match="crash_at_s"):
        run_drill(crash_at_s=5.0, **fault)
