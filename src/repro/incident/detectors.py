"""Pluggable anomaly detectors: telemetry samples in, typed alerts out.

Every detector is a per-series state machine built on the same episode
logic (:class:`Detector`): a *trigger* condition must persist for the
detector's ``debounce`` consecutive observations before one
:class:`Alert` fires, the episode then stays latched (no alert storm —
one fiber cut is one alert per affected series), and a *clear* condition
with hysteresis ends the episode so a flapping metric cannot re-alert on
every wobble.

Concrete detectors:

* :class:`OutageDetector` — link outage flag went dark;
* :class:`BandwidthCollapseDetector` — goodput fell below a fraction of
  its EWMA baseline (baseline only learns while healthy);
* :class:`LatencySpikeDetector` — latency exceeds a spike factor over
  its EWMA baseline plus an absolute guard band;
* :class:`LossRateDetector` — loss-rate change point (threshold with
  hysteresis clear);
* :class:`PhiSpikeDetector` — heartbeat suspicion crossed warn level;
* :class:`NonConvergenceDetector` — precopy rounds stopped shrinking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.incident.telemetry import (
    HOST_PHI,
    LINK_GOODPUT,
    LINK_LATENCY,
    LINK_LOSS,
    LINK_UP,
    MIGRATION_ROUND,
    TelemetrySample,
)

#: Verdicts a detector's ``evaluate`` may return.
TRIGGER = "trigger"
CLEAR = "clear"

#: Goodput below this fraction of its baseline is a collapse; the episode
#: clears once goodput is back to ``RESTORE_RATIO`` of it.
COLLAPSE_RATIO = 0.5
RESTORE_RATIO = 0.9
#: Latency above this multiple of its baseline is a spike.
SPIKE_FACTOR = 3.0
#: A precopy round that shrinks by less than this fraction has stalled.
MIN_SHRINK = 0.05
#: Heartbeat phi at or above this is a spike ("the chance this silence is
#: benign is 1e-8"); a latched spike clears once phi drops below
#: ``CLEAR_PHI``.
WARN_PHI = 8.0
CLEAR_PHI = 1.0
#: Consecutive trigger samples before the link-quality detectors (goodput,
#: latency, loss) fire.
DEBOUNCE_SAMPLES = 2
#: The EWMA baselines' smoothing factor, and the samples they learn from
#: before they judge any.
EWMA_ALPHA = 0.3
WARMUP_SAMPLES = 4
#: A latency spike must also exceed its baseline by this much (seconds),
#: so sub-millisecond jitter on a quiet link never alerts.
MIN_EXTRA_S = 5e-3
#: Loss rate at or above ``TRIGGER_LOSS`` triggers; an episode clears once
#: it falls below ``CLEAR_LOSS``.
TRIGGER_LOSS = 0.05
CLEAR_LOSS = 0.01
#: Consecutive non-shrinking precopy rounds before non-convergence fires.
STALL_ROUNDS = 3
_INF = float("inf")


@dataclass(frozen=True)
class Alert:
    """One typed anomaly report."""

    time: float
    detector: str
    #: "outage" | "bw-collapse" | "latency-spike" | "loss" | "phi-spike"
    #: | "non-convergence"
    kind: str
    #: Series key: the affected link, host, or VM.
    key: str
    severity: str  # "warning" | "critical"
    value: float
    #: When the anomalous condition was first observed (pre-debounce).
    first_anomaly_at: float
    fields: dict = field(default_factory=dict)


class _Episode:
    __slots__ = ("count", "active", "first")

    def __init__(self) -> None:
        self.count = 0
        self.active = False
        self.first: Optional[float] = None


class Detector:
    """Debounce/latch/hysteresis episode machinery shared by detectors."""

    stream = ""
    kind = "anomaly"
    severity = "warning"
    #: Consecutive trigger samples before an episode fires.
    debounce = 1

    def __init__(self) -> None:
        self._episodes: Dict[str, _Episode] = {}
        self.alerts_fired = 0

    @property
    def name(self) -> str:
        return type(self).__name__

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        """Return :data:`TRIGGER`, :data:`CLEAR`, or ``None`` (no opinion)."""
        raise NotImplementedError

    def observe(self, sample: TelemetrySample) -> Optional[Alert]:
        """Feed one sample; returns an alert when an episode fires."""
        if sample.stream != self.stream:
            return None
        verdict = self.evaluate(sample)
        episode = self._episodes.get(sample.key)
        if episode is None:
            episode = self._episodes[sample.key] = _Episode()
        if verdict == TRIGGER:
            if not episode.active:
                # Count toward the debounce only; a latched episode's
                # count is frozen until a clear resets it.
                episode.count += 1
                if episode.first is None:
                    episode.first = sample.time
                if episode.count >= self.debounce:
                    episode.active = True
                    return self._alert(sample, episode)
        elif verdict == CLEAR:
            episode.count = 0
            episode.active = False
            episode.first = None
        return None

    def idle(self, key: str, value: float) -> bool:
        """True when observing ``value`` on ``key`` once more would fire no
        alert and change no state (episode, baseline).

        ``value`` must be the value this detector last observed on
        ``key``: a sample that merely repeats it may then be withheld
        without changing any later alert.  The base rule holds for
        detectors whose verdict depends on the value alone: a settled
        series (``count == 0``) re-clears, a latched one re-triggers into
        a frozen episode.
        """
        episode = self._episodes.get(key)
        if episode is None:
            return False
        return episode.count == 0 or episode.active

    def idle_band(self, key: str) -> Optional[Tuple[float, float]]:
        """The values ``[lo, hi)`` at which observing *any* value on ``key``
        would fire no alert and change no state, or ``None``.

        Unlike :meth:`idle` this does not ask for a repeated value, so it
        only holds for a detector whose verdict bands alone decide what an
        observation does; the base class promises nothing.
        """
        return None

    def _alert(self, sample: TelemetrySample, episode: _Episode) -> Alert:
        self.alerts_fired += 1
        return Alert(
            time=sample.time,
            detector=self.name,
            kind=self.kind,
            key=sample.key,
            severity=self.severity,
            value=sample.value,
            first_anomaly_at=episode.first if episode.first is not None else sample.time,
            fields=dict(sample.fields),
        )


class OutageDetector(Detector):
    """The link outage flag went dark (no debounce: an outage is binary)."""

    stream = LINK_UP
    kind = "outage"
    severity = "critical"

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        return TRIGGER if sample.value < 0.5 else CLEAR


class _EwmaBaseline:
    """EWMA (:data:`EWMA_ALPHA`) that only learns while the series is
    healthy.

    ``samples`` counts warm-up samples only, so once warm an update at
    the fixed point (:meth:`absorbs`) leaves the baseline bit-identical.
    """

    def __init__(self) -> None:
        self.mean: Optional[float] = None
        self.samples = 0

    @property
    def warm(self) -> bool:
        return self.mean is not None and self.samples >= WARMUP_SAMPLES

    def absorbs(self, value: float) -> bool:
        """Learning ``value`` would leave the mean exactly where it is."""
        return (
            self.mean is not None
            and EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * self.mean == self.mean
        )

    def update(self, value: float) -> None:
        self.mean = (
            value
            if self.mean is None
            else EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * self.mean
        )
        if self.samples < WARMUP_SAMPLES:
            self.samples += 1


class _EwmaDetector(Detector):
    """A detector that judges each sample against its series' EWMA
    baseline, learned from the first :data:`WARMUP_SAMPLES` samples and
    then from healthy ones only."""

    debounce = DEBOUNCE_SAMPLES

    def __init__(self) -> None:
        super().__init__()
        self._baselines: Dict[str, _EwmaBaseline] = {}

    def baseline(self, key: str) -> Optional[float]:
        base = self._baselines.get(key)
        return base.mean if base is not None else None

    def anomalous(self, mean: float, value: float) -> bool:
        """``value`` is a trigger against baseline ``mean``."""
        raise NotImplementedError

    def _warm_baseline(self, sample: TelemetrySample) -> Optional[_EwmaBaseline]:
        """The series' baseline once warm; until then it learns ``sample``
        and this returns ``None``."""
        base = self._baselines.get(sample.key)
        if base is None:
            base = self._baselines[sample.key] = _EwmaBaseline()
        if not base.warm:
            base.update(sample.value)
            return None
        return base

    def idle(self, key: str, value: float) -> bool:
        # Re-observing must neither learn (warm-up over, EWMA at its fixed
        # point) nor trigger.
        base = self._baselines.get(key)
        return (
            super().idle(key, value)
            and base is not None
            and base.warm
            and not self.anomalous(base.mean, value)
            and base.absorbs(value)
        )


class BandwidthCollapseDetector(_EwmaDetector):
    """Goodput collapsed below :data:`COLLAPSE_RATIO` of its EWMA baseline.

    The baseline learns only from healthy samples, so a sustained
    collapse cannot drag it down and self-clear the episode; the episode
    clears when goodput recovers to :data:`RESTORE_RATIO` of the baseline.
    """

    stream = LINK_GOODPUT
    kind = "bw-collapse"

    def anomalous(self, mean: float, value: float) -> bool:
        return value < COLLAPSE_RATIO * mean

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        base = self._warm_baseline(sample)
        if base is None:
            return None
        if self.anomalous(base.mean, sample.value):
            return TRIGGER
        if sample.value >= RESTORE_RATIO * base.mean:
            base.update(sample.value)
            return CLEAR
        # Grey zone: neither collapsed nor recovered; keep the baseline
        # frozen so a slow sag eventually crosses the collapse line.
        return None


class LatencySpikeDetector(_EwmaDetector):
    """Latency exceeds :data:`SPIKE_FACTOR` x EWMA baseline (+ the
    :data:`MIN_EXTRA_S` guard band)."""

    stream = LINK_LATENCY
    kind = "latency-spike"

    def anomalous(self, mean: float, value: float) -> bool:
        return value > max(SPIKE_FACTOR * mean, mean + MIN_EXTRA_S)

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        base = self._warm_baseline(sample)
        if base is None:
            return None
        if self.anomalous(base.mean, sample.value):
            return TRIGGER
        base.update(sample.value)
        return CLEAR


class LossRateDetector(Detector):
    """Loss-rate change point: :data:`TRIGGER_LOSS` trigger, hysteresis
    clear below :data:`CLEAR_LOSS`."""

    stream = LINK_LOSS
    kind = "loss"
    debounce = DEBOUNCE_SAMPLES

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        if sample.value >= TRIGGER_LOSS:
            return TRIGGER
        if sample.value < CLEAR_LOSS:
            return CLEAR
        return None  # hysteresis band


class PhiSpikeDetector(Detector):
    """Heartbeat suspicion (phi) crossed :data:`WARN_PHI`: no debounce,
    cleared below :data:`CLEAR_PHI`."""

    stream = HOST_PHI
    kind = "phi-spike"
    severity = "critical"

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        if sample.value >= WARN_PHI:
            return TRIGGER
        if sample.value < CLEAR_PHI:
            return CLEAR
        return None

    def idle_band(self, key: str) -> Optional[Tuple[float, float]]:
        # With one-sample debounce an episode is settled (count 0) or
        # latched, and only a verdict change moves it: a settled one waits
        # for a trigger, a latched one for a clear.
        episode = self._episodes.get(key)
        if episode is None:
            return None
        if episode.active:
            return (CLEAR_PHI, _INF)
        return (-_INF, WARN_PHI)


class NonConvergenceDetector(Detector):
    """Precopy is not converging: rounds stopped shrinking.

    Keyed by VM; triggers after :data:`STALL_ROUNDS` consecutive rounds
    whose wire bytes failed to shrink by at least :data:`MIN_SHRINK`
    relative to the previous round.  A restarting migration (round index
    reset) clears the history.
    """

    stream = MIGRATION_ROUND
    kind = "non-convergence"
    debounce = STALL_ROUNDS

    def __init__(self) -> None:
        super().__init__()
        self._last: Dict[str, tuple] = {}  # key -> (index, wire_bytes)

    def idle(self, key: str, value: float) -> bool:
        # Every round is remembered with its index, which ``value`` lacks.
        return False

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        index = sample.fields.get("index")
        prev = self._last.get(sample.key)
        self._last[sample.key] = (index, sample.value)
        if prev is None:
            return None
        prev_index, prev_bytes = prev
        if (
            index is not None
            and prev_index is not None
            and index <= prev_index
        ):
            # New migration attempt for this VM: forget the old stream.
            return CLEAR
        if prev_bytes <= 0:
            return None
        if sample.value > (1.0 - MIN_SHRINK) * prev_bytes:
            return TRIGGER
        return CLEAR


def default_detectors() -> List[Detector]:
    """The standard production detector set."""
    return [
        OutageDetector(),
        BandwidthCollapseDetector(),
        LatencySpikeDetector(),
        LossRateDetector(),
        PhiSpikeDetector(),
        NonConvergenceDetector(),
    ]


__all__ = [
    "Alert",
    "Detector",
    "OutageDetector",
    "BandwidthCollapseDetector",
    "LatencySpikeDetector",
    "LossRateDetector",
    "PhiSpikeDetector",
    "NonConvergenceDetector",
    "default_detectors",
    "TRIGGER",
    "CLEAR",
    "WARN_PHI",
    "CLEAR_PHI",
]
