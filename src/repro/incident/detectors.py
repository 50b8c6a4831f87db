"""Pluggable anomaly detectors: telemetry samples in, typed alerts out.

Every detector is a per-series state machine built on the same episode
logic (:class:`Detector`): a *trigger* condition must persist for
``debounce_samples`` consecutive observations before one :class:`Alert`
fires, the episode then stays latched (no alert storm — one fiber cut is
one alert per affected series, optionally re-fired every
``refire_interval_s``), and a *clear* condition with hysteresis ends the
episode so a flapping metric cannot re-alert on every wobble.

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
from typing import Dict, List, Optional

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
    __slots__ = ("count", "active", "first", "last_fire")

    def __init__(self) -> None:
        self.count = 0
        self.active = False
        self.first: Optional[float] = None
        self.last_fire: Optional[float] = None


class Detector:
    """Debounce/latch/hysteresis episode machinery shared by detectors."""

    stream = ""
    kind = "anomaly"
    severity = "warning"

    def __init__(
        self,
        debounce_samples: int = 1,
        refire_interval_s: Optional[float] = None,
    ) -> None:
        if debounce_samples < 1:
            raise ValueError("debounce_samples must be >= 1")
        self.debounce_samples = debounce_samples
        self.refire_interval_s = refire_interval_s
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
                if episode.count >= self.debounce_samples:
                    episode.active = True
                    episode.last_fire = sample.time
                    return self._alert(sample, episode)
            elif (
                self.refire_interval_s is not None
                and episode.last_fire is not None
                and sample.time - episode.last_fire >= self.refire_interval_s
            ):
                episode.last_fire = sample.time
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
        series (``count == 0``) re-clears, a latched one with no refire
        re-triggers into a frozen episode.
        """
        episode = self._episodes.get(key)
        if episode is None:
            return False
        return episode.count == 0 or (
            episode.active and self.refire_interval_s is None
        )

    def active_keys(self) -> List[str]:
        return sorted(k for k, e in self._episodes.items() if e.active)

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
    """EWMA that only learns while the series is healthy.

    ``samples`` counts warm-up samples only, so once warm an update at
    the fixed point (:meth:`absorbs`) leaves the baseline bit-identical.
    """

    def __init__(self, alpha: float, warmup: int) -> None:
        self.alpha = alpha
        self.warmup = warmup
        self.mean: Optional[float] = None
        self.samples = 0

    @property
    def warm(self) -> bool:
        return self.mean is not None and self.samples >= self.warmup

    def absorbs(self, value: float) -> bool:
        """Learning ``value`` would leave the mean exactly where it is."""
        return (
            self.mean is not None
            and self.alpha * value + (1.0 - self.alpha) * self.mean == self.mean
        )

    def update(self, value: float) -> None:
        self.mean = (
            value
            if self.mean is None
            else self.alpha * value + (1.0 - self.alpha) * self.mean
        )
        if self.samples < self.warmup:
            self.samples += 1


class _EwmaDetector(Detector):
    """A detector that judges each sample against its series' EWMA
    baseline, learned from the first ``warmup_samples`` samples and then
    from healthy ones only."""

    def __init__(
        self,
        alpha: float,
        warmup_samples: int,
        debounce_samples: int,
        refire_interval_s: Optional[float],
    ) -> None:
        super().__init__(debounce_samples, refire_interval_s)
        self.alpha = alpha
        self.warmup_samples = warmup_samples
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
            base = self._baselines[sample.key] = _EwmaBaseline(
                self.alpha, self.warmup_samples
            )
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
    """Goodput collapsed below ``collapse_ratio`` of its EWMA baseline.

    The baseline learns only from healthy samples, so a sustained
    collapse cannot drag it down and self-clear the episode; the episode
    clears when goodput recovers to ``restore_ratio`` of the baseline.
    """

    stream = LINK_GOODPUT
    kind = "bw-collapse"

    def __init__(
        self,
        collapse_ratio: float = 0.5,
        restore_ratio: float = 0.9,
        alpha: float = 0.3,
        warmup_samples: int = 4,
        debounce_samples: int = 2,
        refire_interval_s: Optional[float] = None,
    ) -> None:
        super().__init__(alpha, warmup_samples, debounce_samples, refire_interval_s)
        self.collapse_ratio = collapse_ratio
        self.restore_ratio = restore_ratio

    def anomalous(self, mean: float, value: float) -> bool:
        return value < self.collapse_ratio * mean

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        base = self._warm_baseline(sample)
        if base is None:
            return None
        if self.anomalous(base.mean, sample.value):
            return TRIGGER
        if sample.value >= self.restore_ratio * base.mean:
            base.update(sample.value)
            return CLEAR
        # Grey zone: neither collapsed nor recovered; keep the baseline
        # frozen so a slow sag eventually crosses the collapse line.
        return None


class LatencySpikeDetector(_EwmaDetector):
    """Latency exceeds ``spike_factor`` x EWMA baseline (+ guard band)."""

    stream = LINK_LATENCY
    kind = "latency-spike"

    def __init__(
        self,
        spike_factor: float = 3.0,
        min_extra_s: float = 5e-3,
        alpha: float = 0.3,
        warmup_samples: int = 4,
        debounce_samples: int = 2,
        refire_interval_s: Optional[float] = None,
    ) -> None:
        super().__init__(alpha, warmup_samples, debounce_samples, refire_interval_s)
        self.spike_factor = spike_factor
        self.min_extra_s = min_extra_s

    def anomalous(self, mean: float, value: float) -> bool:
        return value > max(self.spike_factor * mean, mean + self.min_extra_s)

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        base = self._warm_baseline(sample)
        if base is None:
            return None
        if self.anomalous(base.mean, sample.value):
            return TRIGGER
        base.update(sample.value)
        return CLEAR


class LossRateDetector(Detector):
    """Loss-rate change point: threshold trigger, hysteresis clear."""

    stream = LINK_LOSS
    kind = "loss"

    def __init__(
        self,
        trigger_loss: float = 0.05,
        clear_loss: float = 0.01,
        debounce_samples: int = 2,
        refire_interval_s: Optional[float] = None,
    ) -> None:
        super().__init__(debounce_samples, refire_interval_s)
        self.trigger_loss = trigger_loss
        self.clear_loss = clear_loss

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        if sample.value >= self.trigger_loss:
            return TRIGGER
        if sample.value < self.clear_loss:
            return CLEAR
        return None  # hysteresis band


class PhiSpikeDetector(Detector):
    """Heartbeat suspicion (phi) crossed the warn threshold."""

    stream = HOST_PHI
    kind = "phi-spike"
    severity = "critical"

    def __init__(
        self,
        warn_phi: float = 8.0,
        clear_phi: float = 1.0,
        debounce_samples: int = 1,
        refire_interval_s: Optional[float] = None,
    ) -> None:
        super().__init__(debounce_samples, refire_interval_s)
        self.warn_phi = warn_phi
        self.clear_phi = clear_phi

    def evaluate(self, sample: TelemetrySample) -> Optional[str]:
        if sample.value >= self.warn_phi:
            return TRIGGER
        if sample.value < self.clear_phi:
            return CLEAR
        return None


class NonConvergenceDetector(Detector):
    """Precopy is not converging: rounds stopped shrinking.

    Keyed by VM; triggers after ``stall_rounds`` consecutive rounds whose
    wire bytes failed to shrink by at least ``min_shrink`` relative to
    the previous round.  A restarting migration (round index reset)
    clears the history.
    """

    stream = MIGRATION_ROUND
    kind = "non-convergence"

    def __init__(
        self,
        stall_rounds: int = 3,
        min_shrink: float = 0.05,
        refire_interval_s: Optional[float] = None,
    ) -> None:
        super().__init__(debounce_samples=stall_rounds,
                         refire_interval_s=refire_interval_s)
        self.min_shrink = min_shrink
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
        if sample.value > (1.0 - self.min_shrink) * prev_bytes:
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
]
