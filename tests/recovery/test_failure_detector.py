"""Phi-accrual failure detection: suspicion growth, and phi-spike alerts
from heartbeat phi sampled onto the incident telemetry bus."""

import pytest

from repro.hardware.cluster import build_agc_cluster
from repro.incident.detectors import PhiSpikeDetector
from repro.incident.telemetry import LinkTelemetryProbe, TelemetryBus
from repro.recovery.failure_detector import (
    HeartbeatMonitor,
    PhiAccrualFailureDetector,
)


def test_phi_grows_with_silence():
    det = PhiAccrualFailureDetector()
    assert det.phi(0.0) == 0.0  # never heard from: not suspected
    for t in (0.0, 1.0, 2.0, 3.0):
        det.heartbeat(t)
    assert det.mean_interval_s == pytest.approx(1.0)
    assert det.phi(3.0) == pytest.approx(0.0)
    quiet = [det.phi(3.0 + dt) for dt in (1.0, 5.0, 20.0, 60.0)]
    assert quiet == sorted(quiet)  # monotone in silence
    assert quiet[0] < 1.0 < quiet[2]  # one missed beat is benign


def test_phi_scales_with_observed_interval():
    """The same silence is more suspicious for a chatty node."""
    fast, slow = PhiAccrualFailureDetector(), PhiAccrualFailureDetector()
    for i in range(10):
        fast.heartbeat(i * 0.1)
        slow.heartbeat(i * 10.0)
    assert fast.phi(0.9 + 5.0) > slow.phi(90.0 + 5.0)


def test_heartbeat_resets_suspicion():
    det = PhiAccrualFailureDetector()
    for t in (0.0, 1.0, 2.0):
        det.heartbeat(t)
    assert det.phi(30.0) > 8.0
    det.heartbeat(30.0)
    assert det.phi(30.0) == pytest.approx(0.0)


def _cluster():
    return build_agc_cluster(ib_nodes=2, eth_nodes=2)


def _watch(cluster):
    """Heartbeat phi → probe → bus → phi-spike detector; returns
    (monitor, detector, alerts)."""
    monitor = HeartbeatMonitor(cluster)
    bus = TelemetryBus()
    detector = PhiSpikeDetector()
    alerts = []

    def observe(sample):
        alert = detector.observe(sample)
        if alert is not None:
            alerts.append(alert)

    bus.subscribe(observe)
    LinkTelemetryProbe(cluster, bus, heartbeats=monitor, period_s=0.5).start()
    return monitor, detector, alerts


def test_silence_fires_exactly_one_alert():
    cluster = _cluster()
    env = cluster.env
    monitor, detector, alerts = _watch(cluster)
    # Every node beats for 30 s; ib01 then goes silent.
    for name in cluster.nodes:
        count = 30 if name == "ib01" else 10**9
        env.process(
            monitor.emit_heartbeats(name, period_s=1.0, count=count),
            name=f"hb.{name}",
        )
    env.run(until=120.0)

    # One alert for the whole silence, only for the silent node, once
    # phi crossed warn_phi (~18.4 s after the last beat at t=29).
    [alert] = alerts
    assert alert.key == "ib01" and alert.kind == "phi-spike"
    assert alert.value >= detector.warn_phi
    assert 47.0 <= alert.time <= 48.5
    assert detector.active_keys() == ["ib01"]


def test_backwards_clock_jump_is_clamped():
    det = PhiAccrualFailureDetector()
    for t in (0.0, 1.0, 2.0):
        det.heartbeat(t)
    det.heartbeat(1.5)  # clock stepped backwards
    assert det.intervals[-1] == 0.0  # clamped, not negative
    assert det.phi(1.0) == 0.0  # elapsed clamped too
    assert det.phi(2.5) >= 0.0


def test_queued_burst_does_not_collapse_the_mean():
    """A pause followed by the queued beats landing at one instant (the
    delivery catch-up after a clock jump) must not teach the detector a
    near-zero interval — that would make every later 1 s gap look fatal."""
    det = PhiAccrualFailureDetector()
    for t in range(40):
        det.heartbeat(float(t))
    for _ in range(10):
        det.heartbeat(49.0)  # 10 s pause, then 10 queued beats at once
    assert det.mean_interval_s > 0.5
    assert det.phi(50.0) < 8.0  # a normal gap right after stays benign


def test_thinned_heartbeats_adapt_without_transitions():
    """Partial delivery (2 of 3 beats lost) stretches the observed
    interval; the detector adapts instead of alarming, and chatty nodes
    never alert."""
    cluster = _cluster()
    env = cluster.env
    monitor, _, alerts = _watch(cluster)

    def thinning():
        for _ in range(20):
            monitor.beat("ib01")
            yield env.timeout(1.0)
        while True:
            monitor.beat("ib01")
            yield env.timeout(3.0)

    env.process(thinning(), name="hb.ib01")
    for name in cluster.nodes:
        if name != "ib01":
            env.process(monitor.emit_heartbeats(name, period_s=1.0),
                        name=f"hb.{name}")
    env.run(until=120.0)
    assert alerts == []


def test_pause_resume_cycles_do_not_storm():
    """Three identical pause/resume cycles: the first alarms once, and the
    detector's widening interval window absorbs the repeats.  Crucially the
    probe (sampling ~50 times per pause) alerts once per episode, never
    once per sample."""
    cluster = _cluster()
    env = cluster.env
    monitor, detector, alerts = _watch(cluster)

    def cyclic():
        for _ in range(3):
            for _ in range(15):
                monitor.beat("ib01")
                yield env.timeout(1.0)
            yield env.timeout(25.0)  # phi ≈ 10.9: above warn_phi
        while True:
            monitor.beat("ib01")
            yield env.timeout(1.0)

    env.process(cyclic(), name="hb.ib01")
    for name in cluster.nodes:
        if name != "ib01":
            env.process(monitor.emit_heartbeats(name, period_s=1.0),
                        name=f"hb.{name}")
    env.run(until=200.0)
    assert alerts and all(a.key == "ib01" for a in alerts)
    assert len(alerts) <= 2  # adapted, not one per pause
    assert detector.active_keys() == []  # resumed beats cleared suspicion
