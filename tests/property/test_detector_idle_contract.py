"""Property: ``Detector.idle`` promises exactly what withholding needs.

Over random per-tick link up / loss / latency / goodput and host phi
series on a few keys (values drawn in runs, so repeats are common):

* whenever a detector is ``idle`` at the value it last observed on a
  key, observing that value again returns no alert and leaves its
  episodes and baselines bit-identical;
* feeding every tick and withholding each repeat at which all of the
  stream's detectors are idle — what an incident manager's probe does —
  fire the same alerts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incident.detectors import (
    BandwidthCollapseDetector,
    Detector,
    LatencySpikeDetector,
    LossRateDetector,
    OutageDetector,
    PhiSpikeDetector,
)
from repro.incident.telemetry import (
    HOST_PHI,
    LINK_GOODPUT,
    LINK_LATENCY,
    LINK_LOSS,
    LINK_UP,
    TelemetrySample,
)

#: Per stream: values around each detector's thresholds (trigger, clear,
#: hysteresis band, EWMA baselines that learn or spike).
ALPHABETS = {
    LINK_UP: (0.0, 1.0),
    LINK_LOSS: (0.0, 0.005, 0.03, 0.2),
    LINK_LATENCY: (0.002, 0.005, 0.006, 0.008, 0.05),
    LINK_GOODPUT: (0.0, 40.0, 70.0, 100.0, 100.5),
    HOST_PHI: (0.0, 0.5, 3.0, 10.0, math.inf),
}
KEYS = ("a", "b")
PERIOD_S = 0.25


def _detectors(debounce: int, refire, warmup: int) -> List[Detector]:
    return [
        OutageDetector(refire_interval_s=refire),
        LossRateDetector(debounce_samples=debounce, refire_interval_s=refire),
        LatencySpikeDetector(
            warmup_samples=warmup, debounce_samples=debounce, refire_interval_s=refire
        ),
        BandwidthCollapseDetector(
            warmup_samples=warmup, debounce_samples=debounce, refire_interval_s=refire
        ),
        PhiSpikeDetector(debounce_samples=debounce, refire_interval_s=refire),
        # A second, stricter detector on one stream: withholding needs all.
        LossRateDetector(trigger_loss=0.02, debounce_samples=1),
    ]


def _snapshot(detector: Detector) -> str:
    """Every piece of a detector's observable state, bit-exact."""
    episodes = {
        key: (e.count, e.active, e.first, e.last_fire)
        for key, e in sorted(detector._episodes.items())
    }
    baselines = {
        key: (b.mean, b.samples)
        for key, b in sorted(getattr(detector, "_baselines", {}).items())
    }
    return repr((episodes, baselines, detector.alerts_fired))


@st.composite
def ticks(draw) -> List[List[TelemetrySample]]:
    """Per tick, one sample per (stream, key), values drawn in runs."""
    length = draw(st.integers(min_value=10, max_value=60))
    series: Dict[Tuple[str, str], List[float]] = {}
    for stream, alphabet in ALPHABETS.items():
        for key in KEYS:
            runs = draw(
                st.lists(
                    st.tuples(st.sampled_from(alphabet), st.integers(1, 8)),
                    min_size=1, max_size=length,
                )
            )
            values = [v for v, n in runs for _ in range(n)]
            values += [values[-1]] * length  # hold the last value
            series[(stream, key)] = values[:length]
    return [
        [
            TelemetrySample(i * PERIOD_S, stream, key, values[i])
            for (stream, key), values in series.items()
        ]
        for i in range(length)
    ]


def _routes(detectors: List[Detector]) -> Dict[str, List[Detector]]:
    routes: Dict[str, List[Detector]] = {}
    for detector in detectors:
        routes.setdefault(detector.stream, []).append(detector)
    return routes


@settings(max_examples=100)
@given(
    samples=ticks(),
    debounce=st.integers(1, 3),
    refire=st.sampled_from([None, 1.0]),
    warmup=st.sampled_from([0, 1, 4]),
)
def test_idle_means_a_repeat_is_a_no_op_and_withholding_keeps_alerts(
    samples, debounce, refire, warmup
):
    every = _routes(_detectors(debounce, refire, warmup))
    withheld = _routes(_detectors(debounce, refire, warmup))
    last: Dict[Tuple[str, str], float] = {}
    idle_at: Dict[Tuple[str, str], float] = {}
    alerts_every, alerts_withheld = [], []
    idle_repeats = 0
    for tick in samples:
        for sample in tick:
            series = (sample.stream, sample.key)
            # Every tick, checking the contract on each repeat.
            for detector in every[sample.stream]:
                if last.get(series) == sample.value and detector.idle(
                    sample.key, sample.value
                ):
                    idle_repeats += 1
                    before = _snapshot(detector)
                    assert detector.observe(sample) is None
                    assert _snapshot(detector) == before
                else:
                    alert = detector.observe(sample)
                    if alert is not None:
                        alerts_every.append(alert)
            last[series] = sample.value
            # Repeats withheld while every detector on the stream is idle.
            if idle_at.get(series) == sample.value:
                continue
            detectors = withheld[sample.stream]
            for detector in detectors:
                alert = detector.observe(sample)
                if alert is not None:
                    alerts_withheld.append(alert)
            if all(d.idle(sample.key, sample.value) for d in detectors):
                idle_at[series] = sample.value
            else:
                idle_at.pop(series, None)
    assert alerts_withheld == alerts_every
    assert idle_repeats > 0  # runs of repeats must reach idle states
