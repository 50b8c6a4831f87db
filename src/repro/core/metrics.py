"""Result metrics: overhead breakdowns and per-iteration series.

:class:`OverheadBreakdown` carries the stacked-bar quantities of
Figures 6/7 and the hotplug/link-up columns of Table II;
:class:`IterationSeries` carries the per-step elapsed times of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.phases import PhaseTimeline


@dataclass
class OverheadBreakdown:
    """Ninja migration overhead, decomposed as the paper reports it."""

    coordination_s: float = 0.0
    detach_s: float = 0.0
    migration_s: float = 0.0
    attach_s: float = 0.0
    confirm_s: float = 0.0
    linkup_s: float = 0.0

    @property
    def hotplug_s(self) -> float:
        """The paper's "hotplug" = detach + re-attach + confirm."""
        return self.detach_s + self.attach_s + self.confirm_s

    @property
    def total_s(self) -> float:
        return (
            self.coordination_s
            + self.detach_s
            + self.migration_s
            + self.attach_s
            + self.confirm_s
            + self.linkup_s
        )

    @classmethod
    def from_timeline(cls, timeline: PhaseTimeline) -> "OverheadBreakdown":
        return cls(
            coordination_s=timeline.total("coordination"),
            detach_s=timeline.total("detach"),
            migration_s=timeline.total("migration"),
            attach_s=timeline.total("attach"),
            confirm_s=timeline.total("confirm"),
            linkup_s=timeline.total("linkup"),
        )

    def as_row(self) -> dict:
        """Flat dict for table rendering."""
        return {
            "coordination": round(self.coordination_s, 3),
            "hotplug": round(self.hotplug_s, 3),
            "migration": round(self.migration_s, 3),
            "linkup": round(self.linkup_s, 3),
            "total": round(self.total_s, 3),
        }

    def __str__(self) -> str:
        return (
            f"hotplug={self.hotplug_s:.2f}s migration={self.migration_s:.2f}s "
            f"linkup={self.linkup_s:.2f}s (total {self.total_s:.2f}s)"
        )


@dataclass
class IterationSample:
    """One iteration of a stepped workload (Figure 8's bars)."""

    step: int
    elapsed_s: float
    #: Overhead attributable to a Ninja migration inside this step
    #: (the dark cap of the paper's bars); 0 for normal steps.
    overhead_s: float = 0.0
    #: Label of the phase the cluster is in ("4 hosts (IB)", …).
    phase: str = ""

    @property
    def application_s(self) -> float:
        return self.elapsed_s - self.overhead_s


@dataclass
class IterationSeries:
    """A full run of stepped iterations."""

    label: str = ""
    samples: List[IterationSample] = field(default_factory=list)

    def add(self, sample: IterationSample) -> None:
        self.samples.append(sample)

    def steps(self) -> List[int]:
        return [s.step for s in self.samples]

    def elapsed(self) -> List[float]:
        return [s.elapsed_s for s in self.samples]

    def migration_steps(self) -> List[int]:
        return [s.step for s in self.samples if s.overhead_s > 0]

    def phase_means(self) -> dict:
        """Mean *application* time per phase label (excludes overhead)."""
        sums: dict = {}
        counts: dict = {}
        for sample in self.samples:
            if sample.overhead_s > 0:
                continue  # migration steps skew the mean
            sums[sample.phase] = sums.get(sample.phase, 0.0) + sample.application_s
            counts[sample.phase] = counts.get(sample.phase, 0) + 1
        return {k: sums[k] / counts[k] for k in sums}

    def phase_minimums(self) -> dict:
        """Fastest iteration per phase — the steady-state time, robust to
        un-annotated migration spikes (the paper also reports best-of-N)."""
        best: dict = {}
        for sample in self.samples:
            current = best.get(sample.phase)
            if current is None or sample.elapsed_s < current:
                best[sample.phase] = sample.elapsed_s
        return best

    def render(self) -> str:
        lines = [f"# {self.label}", f"{'step':>4}  {'elapsed':>9}  {'overhead':>9}  phase"]
        for s in self.samples:
            lines.append(
                f"{s.step:>4}  {s.elapsed_s:>8.2f}s  {s.overhead_s:>8.2f}s  {s.phase}"
            )
        return "\n".join(lines)
