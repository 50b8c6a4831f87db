"""Phase timeline: spans of a Ninja migration sequence.

The paper decomposes overhead into *coordination*, *hotplug* (detach +
attach + confirm), *migration*, and *link-up* (Figure 4 / Section IV-B).
:class:`PhaseTimeline` records the raw spans; the breakdown object in
:mod:`repro.core.metrics` aggregates them the way the figures report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class PhaseSpan:
    """One named interval of simulated time."""

    name: str
    start: float
    end: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"phase {self.name!r} not closed")
        return self.end - self.start


class PhaseTimeline:
    """Ordered record of phase spans (phases may repeat)."""

    def __init__(self) -> None:
        self.spans: List[PhaseSpan] = []
        self._open: Dict[str, PhaseSpan] = {}

    def begin(self, name: str, now: float) -> PhaseSpan:
        if name in self._open:
            raise ValueError(f"phase {name!r} already open")
        span = PhaseSpan(name, now)
        self._open[name] = span
        self.spans.append(span)
        return span

    def end(self, name: str, now: float) -> PhaseSpan:
        span = self._open.pop(name, None)
        if span is None:
            raise ValueError(f"phase {name!r} is not open")
        span.end = now
        return span

    def total(self, name: str) -> float:
        """Sum of all closed spans with this name."""
        return sum(s.duration for s in self.spans if s.name == name and s.end is not None)

    def names(self) -> List[str]:
        seen: List[str] = []
        for span in self.spans:
            if span.name not in seen:
                seen.append(span.name)
        return seen

    def render(self) -> str:
        """Human-readable timeline (for example scripts / debugging)."""
        lines = []
        for span in self.spans:
            end = f"{span.end:9.3f}" if span.end is not None else "     open"
            dur = f"{span.duration:8.3f}s" if span.end is not None else ""
            lines.append(f"  {span.start:9.3f} → {end}  {span.name:<14} {dur}")
        return "\n".join(lines)
