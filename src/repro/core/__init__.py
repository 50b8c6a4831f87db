"""Ninja migration: the paper's contribution.

:class:`~repro.core.ninja.NinjaMigration` orchestrates an
interconnect-transparent migration of multiple co-located VMs:
cloud-scheduler trigger → CRCP quiesce → SymVirt park → device detach →
live migration → device attach → resume → link-up confirm → BTL
reconstruction — with the phase timeline accounting that reproduces the
paper's overhead breakdowns (hotplug / migration / link-up).
"""

from repro.core.checkpointing import CheckpointResult, ProactiveCheckpoint
from repro.core.metrics import IterationSample, IterationSeries, OverheadBreakdown
from repro.core.ninja import NinjaMigration, NinjaResult
from repro.core.phases import PhaseTimeline
from repro.core.plan import MigrationPlan, PlanEntry
from repro.core.power import PowerAwarePlacer, PowerMeter, PowerSpec
from repro.core.scheduler import CloudScheduler, TriggerEvent

__all__ = [
    "CheckpointResult",
    "CloudScheduler",
    "PowerAwarePlacer",
    "PowerMeter",
    "PowerSpec",
    "ProactiveCheckpoint",
    "IterationSample",
    "IterationSeries",
    "MigrationPlan",
    "NinjaMigration",
    "NinjaResult",
    "OverheadBreakdown",
    "PhaseTimeline",
    "PlanEntry",
    "TriggerEvent",
]
