"""Network chaos model: link degradation, outages, and spec parsing."""

from __future__ import annotations

import pytest

from repro.errors import LinkDownError, NetworkError
from repro.network.degradation import (
    DEFAULT_DROP_DURATION_S,
    DegradationEvent,
    NetworkChaos,
    parse_degrade_spec,
)
from repro.network.links import LOSS_PENALTY, Link, loss_goodput_factor
from repro.units import gbps
from tests.conftest import link_between


# -- link-level degradation -----------------------------------------------------


def test_loss_goodput_factor_monotone():
    assert loss_goodput_factor(0.0) == 1.0
    factors = [loss_goodput_factor(p) for p in (0.01, 0.05, 0.2, 0.5, 0.9)]
    assert all(a > b for a, b in zip(factors, factors[1:]))
    assert loss_goodput_factor(0.2) == pytest.approx(0.8 / (1 + LOSS_PENALTY * 0.2))
    with pytest.raises(NetworkError):
        loss_goodput_factor(1.0)


def test_set_degradation_composes_and_clears():
    link = Link(name="wan", capacity_Bps=gbps(10), latency_s=1e-3)
    link.set_degradation(bandwidth_factor=0.5)
    assert link.capacity_Bps == pytest.approx(gbps(10) * 0.5)
    link.set_degradation(loss=0.2)  # keeps the bandwidth factor
    assert link.capacity_Bps == pytest.approx(
        gbps(10) * 0.5 * loss_goodput_factor(0.2)
    )
    link.set_degradation(extra_latency_s=0.05)
    assert link.latency_s == pytest.approx(1e-3 + 0.05)
    assert link.degraded
    link.clear_degradation()
    assert not link.degraded
    assert link.capacity_Bps == gbps(10)
    assert link.latency_s == 1e-3


def test_degradation_floor_never_zero_capacity():
    link = Link(name="wan", capacity_Bps=gbps(1))
    link.set_degradation(bandwidth_factor=0.0)
    assert link.capacity_Bps == 1.0  # crawls, never deadlocks the flow engine


# -- in-flight flow interaction -------------------------------------------------


def _eth_transfer(cluster, nbytes):
    fabric = cluster.eth_fabric
    return fabric.transfer(
        fabric.port("ib01"), fabric.port("eth01"), nbytes, label="t"
    )


def test_bandwidth_collapse_slows_inflight_flow(cluster):
    env = cluster.env
    link = link_between(cluster.eth_fabric.topology, "ib01", "Dell M8024")
    nbytes = cluster.calibration.eth_link_Bps * 10  # 10 s at line rate
    flow = _eth_transfer(cluster, nbytes)
    env.run(until=5.0)
    link.set_degradation(bandwidth_factor=0.5)
    cluster.eth_fabric.flows.recompute()
    env.run(until=flow.done)
    # First half at full rate (5 s), second half at half rate (10 s).
    assert env.now == pytest.approx(15.0, rel=0.01)


def test_drop_fails_inflight_flows_with_linkdown(cluster):
    env = cluster.env
    link = link_between(cluster.eth_fabric.topology, "ib01", "Dell M8024")
    flow = _eth_transfer(cluster, cluster.calibration.eth_link_Bps * 10)

    def victim():
        with pytest.raises(LinkDownError):
            yield flow.done

    proc = env.process(victim(), name="victim")
    env.run(until=2.0)
    killed = cluster.eth_fabric.flows.fail_flows_on(link)
    assert killed == 1
    env.run(until=proc)
    assert flow.transferred == pytest.approx(cluster.calibration.eth_link_Bps * 2)


def test_drop_spares_flows_on_other_links(cluster):
    env = cluster.env
    fabric = cluster.eth_fabric
    link = link_between(fabric.topology, "ib01", "Dell M8024")
    doomed = _eth_transfer(cluster, cluster.calibration.eth_link_Bps * 10)
    spared = fabric.transfer(
        fabric.port("ib02"), fabric.port("eth02"), 1e6, label="spared"
    )
    env.run(until=0.1)
    fabric.flows.fail_flows_on(link)
    env.run(until=spared.done)
    assert spared.finished
    assert not doomed.finished


# -- the chaos scheduler --------------------------------------------------------


def test_chaos_applies_and_reverts_on_schedule(cluster):
    env = cluster.env
    link = link_between(cluster.eth_fabric.topology, "ib01", "Dell M8024")
    chaos = NetworkChaos(
        cluster,
        events=[
            DegradationEvent(at_time=1.0, kind="loss", value=0.2,
                             duration_s=2.0, link_pattern="ib01--*"),
            DegradationEvent(at_time=5.0, kind="drop", duration_s=1.0,
                             link_pattern="ib01--*"),
        ],
    )
    chaos.start()
    env.run(until=1.5)
    assert link.loss == 0.2
    env.run(until=4.0)
    assert not link.degraded
    env.run(until=5.5)
    assert not link.up
    env.run(until=7.0)
    assert link.up
    assert chaos.applied == 2
    assert link in chaos.touched
    kinds = [r.event for r in cluster.tracer.select("chaos")]
    assert kinds == ["loss", "clear", "drop", "restore"]


def test_chaos_start_relative_times(cluster):
    env = cluster.env
    link = link_between(cluster.eth_fabric.topology, "eth01", "Dell M8024")
    chaos = NetworkChaos(
        cluster,
        events=[DegradationEvent(at_time=2.0, kind="bw", value=0.1,
                                 link_pattern="eth01--*")],
    )
    env.run(until=10.0)
    chaos.start()  # events relative to t=10
    env.run(until=11.0)
    assert not link.degraded
    env.run(until=12.5)
    assert link.bandwidth_factor == 0.1


def test_overlapping_events_compose_worst_case(cluster):
    """Concurrent degradations on one link take min(bw)/max(loss)/max(lat),
    and reverting one re-exposes the others — not last-writer-wins."""
    env = cluster.env
    link = link_between(cluster.eth_fabric.topology, "ib01", "Dell M8024")
    chaos = NetworkChaos(
        cluster,
        events=[
            DegradationEvent(at_time=1.0, kind="bw", value=0.5,
                             duration_s=10.0, link_pattern="ib01--*"),
            DegradationEvent(at_time=2.0, kind="bw", value=0.2,
                             duration_s=2.0, link_pattern="ib01--*"),
            DegradationEvent(at_time=3.0, kind="loss", value=0.1,
                             duration_s=10.0, link_pattern="ib01--*"),
        ],
    )
    chaos.start()
    env.run(until=1.5)
    assert link.bandwidth_factor == 0.5
    env.run(until=2.5)
    assert link.bandwidth_factor == 0.2  # worst of {0.5, 0.2}
    env.run(until=3.5)
    assert link.bandwidth_factor == 0.2
    assert link.loss == pytest.approx(0.1)
    env.run(until=4.5)  # the 0.2 event reverted at t=4
    assert link.bandwidth_factor == 0.5  # the longer event still holds
    assert link.loss == pytest.approx(0.1)
    env.run(until=14.0)  # everything reverted (loss expires at t=13)
    assert not link.degraded
    assert link.bandwidth_factor == 1.0
    assert link.loss == 0.0


def test_overlapping_drops_hold_link_down_until_last_reverts(cluster):
    env = cluster.env
    link = link_between(cluster.eth_fabric.topology, "ib01", "Dell M8024")
    chaos = NetworkChaos(
        cluster,
        events=[
            DegradationEvent(at_time=1.0, kind="drop", duration_s=5.0,
                             link_pattern="ib01--*"),
            DegradationEvent(at_time=2.0, kind="drop", duration_s=8.0,
                             link_pattern="ib01--*"),
        ],
    )
    chaos.start()
    env.run(until=3.0)
    assert not link.up
    env.run(until=7.0)  # first drop expired at t=6: second still holds
    assert not link.up
    env.run(until=11.0)  # second expired at t=10
    assert link.up
    events = [r.event for r in cluster.tracer.select("chaos")]
    # One restore, not two; the early revert only logs a "hold".
    assert events.count("restore") == 1
    assert events.count("hold") == 1


def test_drop_overlapping_degradation_restores_the_degradation(cluster):
    """A drop nested inside a bw event: when the link comes back up it
    must still carry the surviving bandwidth degradation."""
    env = cluster.env
    link = link_between(cluster.eth_fabric.topology, "ib01", "Dell M8024")
    chaos = NetworkChaos(
        cluster,
        events=[
            DegradationEvent(at_time=1.0, kind="bw", value=0.4,
                             duration_s=20.0, link_pattern="ib01--*"),
            DegradationEvent(at_time=2.0, kind="drop", duration_s=3.0,
                             link_pattern="ib01--*"),
        ],
    )
    chaos.start()
    env.run(until=3.0)
    assert not link.up
    env.run(until=6.0)  # drop reverted at t=5
    assert link.up
    assert link.bandwidth_factor == 0.4  # bw event survived the outage
    env.run(until=22.0)
    assert not link.degraded


def test_chaos_unmatched_pattern_raises(cluster):
    chaos = NetworkChaos(
        cluster,
        events=[DegradationEvent(at_time=0.0, kind="drop", link_pattern="nope-*")],
    )
    with pytest.raises(NetworkError):
        chaos.apply(chaos.events[0])


# -- spec parsing ---------------------------------------------------------------


def test_parse_degrade_spec_full_grammar():
    events = parse_degrade_spec("drop@t=5,loss=0.2@t=2,bw=0.1@t=3+30,lat=0.05@t=1")
    by_kind = {e.kind: e for e in events}
    assert by_kind["drop"].at_time == 5.0 and by_kind["drop"].duration_s is None
    assert by_kind["loss"].value == 0.2 and by_kind["loss"].at_time == 2.0
    assert by_kind["bw"].duration_s == 30.0
    assert by_kind["lat"].value == 0.05
    assert all(e.link_pattern == "*" for e in events)


def test_parse_degrade_spec_drop_duration_and_pattern():
    (event,) = parse_degrade_spec("drop@t=5+2", link_pattern="wan:*")
    assert event.duration_s == 2.0
    assert event.link_pattern == "wan:*"
    # An un-suffixed drop falls back to the default outage length at apply time.
    (bare,) = parse_degrade_spec("drop@t=1")
    assert bare.duration_s is None
    assert DEFAULT_DROP_DURATION_S > 0


@pytest.mark.parametrize("bad", ["drop", "drop@5", "zap=1@t=0", "loss=x@t=1",
                                 "loss=0.2@t=-1"])
def test_parse_degrade_spec_rejects_garbage(bad):
    with pytest.raises(NetworkError):
        parse_degrade_spec(bad)


@pytest.mark.parametrize(
    "bad, why",
    [
        ("", "empty"),
        ("   ", "empty"),
        ("drop=1@t=0", "takes no value"),
        ("loss@t=1", "requires a value"),
        ("bw@t=1+2", "requires a value"),
        ("loss=1.5@t=0", "loss"),
        ("bw=-0.5@t=0", "bandwidth"),
        ("lat=-1@t=0", "latency"),
        ("loss=0.1@t=1+0", "duration"),
    ],
)
def test_parse_degrade_spec_error_messages(bad, why):
    with pytest.raises(NetworkError, match=why):
        parse_degrade_spec(bad)


def test_degradation_event_validates_at_construction():
    with pytest.raises(NetworkError, match="unknown degradation kind"):
        DegradationEvent(at_time=0.0, kind="zap")
    with pytest.raises(NetworkError, match="before t=0"):
        DegradationEvent(at_time=-1.0, kind="drop")
    with pytest.raises(NetworkError):
        DegradationEvent(at_time=0.0, kind="loss", value=1.0)
    with pytest.raises(NetworkError):
        DegradationEvent(at_time=0.0, kind="drop", duration_s=0.0)
