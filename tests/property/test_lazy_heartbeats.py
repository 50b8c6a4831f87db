"""Property: lazy heartbeats and withheld phi against one heartbeat process
per node, under ``==``.

:meth:`~repro.recovery.failure_detector.HeartbeatMonitor.beat_every`
catches a node's beats up when phi is read or the host dies, and an
incident manager's probe withholds each phi its detector would do
nothing with.  The reference arm runs
:func:`~tests.recovery.eager_heartbeats.emit_heartbeats` per node under
a manager whose probe publishes every phi every tick.

Hypothesis draws the beat period (longer and shorter than the probe's
0.25 s tick, so a read at a beat instant falls on either side of the
beat), the start instant, and one to three host kills.  Each kill lands
on a beat instant or between two, from a timer armed less or more than
one period ahead: on a beat instant the heartbeat loop's beat runs
first in the former case and the kill in the latter, and the lazy rule
must agree.  The test checks:

* phi of every node at every probe tick;
* the last beat of each victim against the loop's order (which proves
  both tie orders are drawn);
* phi read after the run, and every node's last beat;
* every alert (every field), incident, journal record and trace record —
  both with phi read at every tick and with only the probe reading it,
  so deferred catch-up is exercised too.
"""

from __future__ import annotations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import build_agc_cluster
from repro.incident import scenario
from repro.incident.manager import IncidentManager
from repro.orchestrator.executor import FleetOrchestrator
from tests.incident.test_change_driven_telemetry import ReferenceManager
from tests.recovery.eager_heartbeats import eager_mesh

NODES = ("ib01", "ib02", "eth01", "eth02")
#: Kill lead, in beat periods: below 1 the beat at a tied instant wins.
LEAD_FACTORS = (0.3, 0.7, 1.5, 2.5)
#: An off-grid kill lands this far (in periods) past its beat.
OFF_GRID = 0.37

_kills = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.integers(3, 40),  # the beat it lands on (or after)
        st.booleans(),  # on the beat grid
        st.sampled_from(LEAD_FACTORS),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda kill: kill[0],
)


def _grid(start: float, period: float, beats: int) -> list:
    """Beat instants by the heartbeat loop's repeated addition."""
    instants = [start]
    for _ in range(beats):
        instants.append(instants[-1] + period)
    return instants


def _kill(cluster, victim: str, armed_at: float, lead: float):
    yield cluster.env.timeout(armed_at)
    yield cluster.env.timeout(lead)
    cluster.fail_host(victim)


def _drill(arm: str, period: float, start: float, kills, until: float, read_every_tick):
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    env = cluster.env
    for victim, armed_at, lead in kills:
        env.process(_kill(cluster, victim, armed_at, lead), name=f"kill.{victim}")
    env.run(until=start)
    if arm == "lazy":
        monitor, manager_cls = scenario._heartbeat_mesh(cluster, period), IncidentManager
    else:
        monitor, manager_cls = eager_mesh(cluster, period), ReferenceManager
    manager = manager_cls(cluster, FleetOrchestrator(cluster), heartbeats=monitor).start()
    reads = []
    if read_every_tick:
        sample_once = manager.probe.sample_once

        def read_then_sample():
            reads.append((env.now, [monitor.phi(node) for node in NODES]))
            return sample_once()

        manager.probe.sample_once = read_then_sample
    env.run(until=until)
    return {
        "reads": reads,
        # Read from outside any process: a beat due at ``until`` counts as
        # not yet sent, as the loop's beat ran after the run stopped.
        "phi_at_end": [monitor.phi(node) for node in NODES],
        "last_beats": {n: d.last_beat for n, d in monitor.detectors.items()},
        "alerts": list(manager.alerts),
        "incidents": [i.to_dict() for i in manager.incidents],
        "journal": [r.to_dict() for r in manager.orchestrator.journal.records],
        "trace": list(cluster.tracer.records),
    }


@settings(max_examples=60)
@given(
    period=st.sampled_from((0.5, 0.3, 0.2)),
    start=st.sampled_from((0.0, 0.1, 0.375)),
    kills=_kills,
)
# Both tie orders on the 0.5 s grid of the drills.
@example(period=0.5, start=0.0, kills=[("ib01", 10, True, 0.3)])
@example(period=0.5, start=0.0, kills=[("ib01", 10, True, 2.5)])
def test_lazy_beats_match_the_heartbeat_processes(period, start, kills):
    grid = _grid(start, period, 41)
    armed, expected_last = [], {}
    for victim, beat, on_grid, factor in kills:
        at = grid[beat] if on_grid else grid[beat] + OFF_GRID * period
        armed_at = at - factor * period
        lead = at - armed_at
        assume(armed_at + lead == at)
        armed.append((victim, armed_at, lead))
        # The loop's beat at a tied instant was armed one period before
        # the kill's instant: it ran first iff the kill was armed later.
        expected_last[victim] = grid[beat] if not on_grid or factor < 1 else grid[beat - 1]
    until = max(a + lead for _, a, lead in armed) + 20 * period + 2.0

    reference = _drill("reference", period, start, armed, until, True)
    read = _drill("lazy", period, start, armed, until, True)
    probed = _drill("lazy", period, start, armed, until, False)

    assert read["reads"] == reference["reads"]
    for victim, last in expected_last.items():
        assert reference["last_beats"][victim] == last
    for key in ("phi_at_end", "last_beats", "alerts", "incidents", "journal", "trace"):
        assert read[key] == reference[key], key
        assert probed[key] == reference[key], key
    assert {a.key for a in reference["alerts"]} == set(expected_last)
