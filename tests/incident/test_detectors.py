"""Detector episode machinery: debounce, latch, hysteresis."""

from __future__ import annotations

import pytest

from repro.incident.detectors import (
    CLEAR_PHI,
    WARN_PHI,
    BandwidthCollapseDetector,
    LatencySpikeDetector,
    LossRateDetector,
    NonConvergenceDetector,
    OutageDetector,
    PhiSpikeDetector,
)
from repro.incident.telemetry import (
    HOST_PHI,
    LINK_GOODPUT,
    LINK_LATENCY,
    LINK_LOSS,
    LINK_UP,
    MIGRATION_ROUND,
    TelemetrySample,
)
from tests.conftest import active_keys


def feed(detector, stream, values, key="wan", t0=0.0, dt=1.0, fields=None):
    """Feed a value series; return the alerts that fired."""
    alerts = []
    for i, value in enumerate(values):
        sample = TelemetrySample(
            t0 + i * dt, stream, key, float(value),
            dict(fields[i]) if fields is not None else {},
        )
        alert = detector.observe(sample)
        if alert is not None:
            alerts.append(alert)
    return alerts


class TestOutageDetector:
    def test_fires_once_and_latches(self):
        det = OutageDetector()
        alerts = feed(det, LINK_UP, [1, 1, 0, 0, 0, 0])
        assert len(alerts) == 1  # latched: one cut, one alert
        assert alerts[0].kind == "outage"
        assert alerts[0].severity == "critical"
        assert alerts[0].time == 2.0
        assert active_keys(det) == ["wan"]

    def test_clears_on_restore_and_refires_on_next_cut(self):
        det = OutageDetector()
        alerts = feed(det, LINK_UP, [1, 0, 1, 0])
        assert [a.time for a in alerts] == [1.0, 3.0]
        assert active_keys(det) == ["wan"]

    def test_ignores_other_streams(self):
        det = OutageDetector()
        assert feed(det, LINK_LOSS, [0, 0, 0]) == []


class TestBandwidthCollapseDetector:
    def test_collapse_after_debounce_against_learned_baseline(self):
        det = BandwidthCollapseDetector()
        healthy = [100.0] * 6
        collapsed = [10.0] * 4
        alerts = feed(det, LINK_GOODPUT, healthy + collapsed)
        assert len(alerts) == 1
        assert alerts[0].kind == "bw-collapse"
        # Debounce: second collapsed sample (index 7) fires, first (6) is
        # recorded as the anomaly onset.
        assert alerts[0].time == 7.0
        assert alerts[0].first_anomaly_at == 6.0

    def test_baseline_frozen_during_collapse(self):
        det = BandwidthCollapseDetector()
        feed(det, LINK_GOODPUT, [100.0] * 6 + [10.0] * 50)
        # A long outage must not teach the baseline that 10 is normal.
        assert det.baseline("wan") == pytest.approx(100.0)
        assert active_keys(det) == ["wan"]

    def test_recovery_clears_episode(self):
        det = BandwidthCollapseDetector()
        alerts = feed(det, LINK_GOODPUT, [100.0] * 6 + [10.0] * 3 + [100.0] * 3)
        assert len(alerts) == 1
        assert active_keys(det) == []

    def test_no_alert_during_warmup(self):
        det = BandwidthCollapseDetector()
        assert feed(det, LINK_GOODPUT, [100.0, 1.0, 100.0, 1.0]) == []


class TestLatencySpikeDetector:
    def test_spike_fires_and_normal_clears(self):
        det = LatencySpikeDetector()
        base = [0.001] * 6
        spiky = [0.050] * 3
        alerts = feed(det, LINK_LATENCY, base + spiky + base)
        assert len(alerts) == 1
        assert alerts[0].kind == "latency-spike"
        assert active_keys(det) == []  # cleared by the trailing normals

    def test_guard_band_suppresses_tiny_absolute_jitter(self):
        det = LatencySpikeDetector()
        # 4x relative jump but only 3 ms absolute: inside the MIN_EXTRA_S
        # guard band, so each sample clears (and is learned) instead of
        # triggering against a frozen baseline.
        assert feed(det, LINK_LATENCY, [0.001] * 4 + [0.004] * 2) == []


class TestLossRateDetector:
    def test_change_point_with_hysteresis(self):
        det = LossRateDetector()  # TRIGGER_LOSS 0.05, CLEAR_LOSS 0.01
        alerts = feed(det, LINK_LOSS, [0, 0, 0.2, 0.2, 0.2, 0.03, 0.2, 0.2])
        # 0.03 sits inside the hysteresis band: the episode stays latched,
        # so the later 0.2s cannot fire a second alert.
        assert len(alerts) == 1
        assert alerts[0].time == 3.0

    def test_clear_below_lower_threshold_rearms(self):
        det = LossRateDetector()
        alerts = feed(det, LINK_LOSS, [0.2, 0.2, 0.0, 0.0, 0.2, 0.2])
        assert [a.time for a in alerts] == [1.0, 5.0]


class TestPhiSpikeDetector:
    def test_fires_on_warn_threshold(self):
        det = PhiSpikeDetector()  # WARN_PHI = 8
        alerts = feed(det, HOST_PHI, [0.1, 0.2, 9.5, 12.0], key="ib01")
        assert len(alerts) == 1
        assert alerts[0].severity == "critical"
        assert alerts[0].key == "ib01"

    def test_hysteresis_band_does_not_clear(self):
        det = PhiSpikeDetector()  # WARN_PHI = 8, CLEAR_PHI = 1
        alerts = feed(det, HOST_PHI, [9.0, 5.0, 9.0, 0.5, 9.0], key="ib01")
        # 5.0 is suspicious-but-not-warn: stays latched; 0.5 clears.
        assert [a.time for a in alerts] == [0.0, 4.0]

    def test_idle_band_follows_the_episode(self):
        det = PhiSpikeDetector()
        assert det.idle_band("ib01") is None  # never observed
        feed(det, HOST_PHI, [0.2], key="ib01")
        assert det.idle_band("ib01") == (-float("inf"), WARN_PHI)  # settled
        feed(det, HOST_PHI, [9.0], key="ib01")
        assert det.idle_band("ib01") == (CLEAR_PHI, float("inf"))  # latched
        assert LossRateDetector().idle_band("wan") is None


class TestNonConvergenceDetector:
    @staticmethod
    def rounds(values, start_index=1):
        return [{"index": start_index + i} for i in range(len(values))]

    def test_stalled_rounds_fire_once(self):
        det = NonConvergenceDetector()
        values = [1000, 990, 985, 984, 983]  # <5% shrink each round
        alerts = feed(det, MIGRATION_ROUND, values, key="j0-vm0",
                      fields=self.rounds(values))
        assert len(alerts) == 1
        assert alerts[0].kind == "non-convergence"

    def test_shrinking_precopy_never_fires(self):
        det = NonConvergenceDetector()
        values = [1000, 500, 250, 120, 60, 30]
        assert feed(det, MIGRATION_ROUND, values, key="v",
                    fields=self.rounds(values)) == []

    def test_restart_resets_history(self):
        det = NonConvergenceDetector()
        fields = [{"index": 1}, {"index": 2}, {"index": 3},
                  {"index": 1},  # retry: index reset
                  {"index": 2}, {"index": 3}]
        values = [1000, 999, 998, 1000, 500, 250]
        assert feed(det, MIGRATION_ROUND, values, key="v", fields=fields) == []


class TestNoAlertStorm:
    def test_sustained_outage_is_one_alert_per_link(self):
        det = OutageDetector()
        for link in ("wan:a", "wan:b"):
            feed(det, LINK_UP, [0] * 100, key=link)
        assert det.alerts_fired == 2
