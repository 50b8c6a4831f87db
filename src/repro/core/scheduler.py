"""The cloud scheduler: triggers and placement policy.

"A cloud scheduler delivers a trigger event, e.g., a migration or
checkpoint/restart request, to both an MPI runtime system and the SymVirt
controller" (Section III-B).  This module provides:

* **placement policies** — pick fallback destinations (spread or
  consolidate), recovery destinations, and validate capacity.  Picking
  is delegated to the shared
  :class:`~repro.orchestrator.placement.PlacementEngine`, so the
  single-job scheduler and the fleet orchestrator apply one capacity
  model;
* **trigger events** — scheduled maintenance / disaster / consolidation
  requests that fire at a simulated time and run a Ninja sequence.

Reservation-aware placement across concurrent plans is the fleet
orchestrator's job (:class:`~repro.orchestrator.FleetOrchestrator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.ninja import NinjaMigration, NinjaResult
from repro.core.plan import MigrationPlan
from repro.errors import SchedulerError
from repro.orchestrator.placement import PlacementEngine
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.mpi.runtime import MpiJob
    from repro.vmm.qemu import QemuProcess


@dataclass
class TriggerEvent:
    """A scheduled request to run a Ninja sequence."""

    at_time: float
    reason: str  # "maintenance" | "disaster" | "consolidation" | "recovery"
    plan: MigrationPlan
    #: Filled once the sequence completes.
    result: Optional[NinjaResult] = None
    done: Optional[Event] = None
    #: Set instead of ``result`` when the trigger could not run (e.g. the
    #: job finished before the scheduled time).
    error: Optional[Exception] = None


class CloudScheduler:
    """Placement policy + trigger delivery for one cluster."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.placement = PlacementEngine(cluster)
        self.ninja = NinjaMigration(cluster)
        self.triggers: List[TriggerEvent] = []

    # -- placement policies ----------------------------------------------------------

    def pick_fallback_hosts(
        self, qemus: Sequence["QemuProcess"], consolidate_to: Optional[int] = None
    ) -> List[str]:
        """Destinations on the Ethernet cluster for a fallback.

        ``consolidate_to=n`` packs the VMs onto ``n`` hosts (the paper's
        "2 hosts (TCP)" server-consolidation case); default is one VM per
        host.
        """
        return self.placement.pick_packed(
            qemus,
            self.cluster.eth_only_nodes(),
            consolidate_to=consolidate_to,
        )

    def pick_recovery_hosts(self, qemus: Sequence["QemuProcess"]) -> List[str]:
        """Destinations back on the IB cluster (one VM per host)."""
        if not qemus:
            raise SchedulerError("no VMs to place")
        return self.placement.pick_spread(
            qemus, self.cluster.ib_nodes(), need_hca=True
        )

    # -- plan factories ----------------------------------------------------------------

    def plan_fallback(
        self,
        qemus: Sequence["QemuProcess"],
        consolidate_to: Optional[int] = None,
        label: str = "fallback",
    ) -> MigrationPlan:
        hosts = self.pick_fallback_hosts(qemus, consolidate_to)
        return MigrationPlan.build(self.cluster, qemus, hosts, attach_ib=False, label=label)

    def plan_recovery(
        self, qemus: Sequence["QemuProcess"], label: str = "recovery"
    ) -> MigrationPlan:
        hosts = self.pick_recovery_hosts(qemus)
        return MigrationPlan.build(self.cluster, qemus, hosts, attach_ib=True, label=label)

    def plan_spread(
        self,
        qemus: Sequence["QemuProcess"],
        dst_hosts: Sequence[str],
        label: str = "spread",
    ) -> MigrationPlan:
        """De-consolidate onto explicit hosts (attach auto-resolved)."""
        return MigrationPlan.build(
            self.cluster, qemus, list(dst_hosts), attach_ib=None, label=label
        )

    # -- trigger delivery -----------------------------------------------------------------

    def schedule(self, at_time: float, reason: str, plan: MigrationPlan, job: "MpiJob") -> TriggerEvent:
        """Arrange for a Ninja sequence to run at ``at_time``.

        Returns the trigger; ``trigger.done`` fires with the NinjaResult.
        """
        if at_time < self.env.now:
            raise SchedulerError(f"cannot schedule in the past ({at_time} < {self.env.now})")
        trigger = TriggerEvent(at_time=at_time, reason=reason, plan=plan, done=Event(self.env))
        self.triggers.append(trigger)

        def _fire():
            yield self.env.timeout(at_time - self.env.now)
            self.cluster.trace("scheduler", "trigger", reason=reason, label=plan.label)
            try:
                result = yield from self.ninja.execute(job, plan)
            except Exception as err:  # job may have finished meanwhile
                trigger.error = err
                trigger.done.succeed(None)
                self.cluster.trace("scheduler", "trigger_failed", reason=reason, error=str(err))
                return
            trigger.result = result
            trigger.done.succeed(result)

        self.env.process(_fire(), name=f"trigger.{reason}")
        return trigger

    def run_now(self, reason: str, plan: MigrationPlan, job: "MpiJob"):
        """Execute a Ninja sequence immediately (generator)."""
        self.cluster.trace("scheduler", "trigger", reason=reason, label=plan.label)
        result = yield from self.ninja.execute(job, plan)
        trigger = TriggerEvent(at_time=self.env.now, reason=reason, plan=plan, result=result)
        self.triggers.append(trigger)
        return result
