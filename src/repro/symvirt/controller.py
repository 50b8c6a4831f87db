"""The SymVirt controller: the master program of Figure 5.

Method names and call patterns follow the paper's script verbatim
(``wait_all``, ``device_detach(**{'tag': 'vf0'})``, ``signal``,
``migration(src_hostlist, dst_hostlist)``, ``device_attach(host=...,
tag=...)``, ``quit``, ``close``).  All operations fan out to per-VMM
:class:`~repro.symvirt.agent.SymVirtAgent` coroutines in parallel, exactly
like the agent threads of the real implementation.

One interpretation note: Figure 5 elides where ``signal`` falls around
``migration``; we follow Figure 4's two-round structure — the coordinator
parks once per SELF callback (rounds A and B) and the controller signals
at the end of each round it uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import SymVirtError
from repro.symvirt.agent import SymVirtAgent

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.vmm.qemu import QemuProcess
    from repro.vmm.migration import MigrationStats
    from repro.vmm.policy import MigrationPolicy


class Controller:
    """Distributed-VMM control plane for one group of VMs."""

    def __init__(
        self,
        cluster: "Cluster",
        vms: Sequence["QemuProcess"],
        epoch: Optional[int] = None,
    ) -> None:
        if not vms:
            raise SymVirtError("controller needs at least one VM")
        self.cluster = cluster
        self.env = cluster.env
        self.vms = list(vms)
        self.agents: List[SymVirtAgent] = [SymVirtAgent(q) for q in self.vms]
        self.closed = False
        #: Fencing epoch this controller acts at.  Captured at creation;
        #: crash recovery bumps the cluster epoch, after which every
        #: command from this (now stale) controller is rejected.
        fencing = getattr(cluster, "fencing", None)
        if epoch is not None:
            self.epoch = epoch
        else:
            self.epoch = fencing.current if fencing is not None else 1

    # -- helpers -----------------------------------------------------------------

    def _parallel(self, generators) -> object:
        """Run agent coroutines concurrently; returns a barrier event."""
        processes = [self.env.process(g) for g in generators]
        return self.env.all_of(processes)

    def _check_open(self) -> None:
        if self.closed:
            raise SymVirtError("controller is closed")
        fencing = getattr(self.cluster, "fencing", None)
        if fencing is not None:
            fencing.check(self.epoch, actor=f"controller(epoch={self.epoch})")

    # -- Figure 5 API (generators; drive with ``yield from``) -----------------------

    def wait_all(self):
        """Block until every controlled VM is parked in symvirt_wait."""
        self._check_open()
        yield self._parallel(agent.wait_parked() for agent in self.agents)
        self.cluster.trace("symvirt", "wait_all", vms=[q.vm.name for q in self.vms])

    def signal(self):
        """Resume every controlled VM."""
        self._check_open()
        yield self._parallel(agent.signal() for agent in self.agents)
        self.cluster.trace("symvirt", "signal", vms=[q.vm.name for q in self.vms])

    def release(self, rounds: int):
        """Drive ``rounds`` outstanding park/resume rounds to completion.

        The rollback path of the transactional orchestrator uses this to
        hand back however many wait/signal rounds the aborted sequence
        still owes the guests (coordinators always execute exactly two
        rounds per checkpoint request — round A and round B — whether or
        not the controller finishes its work in between).
        """
        for _ in range(rounds):
            yield from self.wait_all()
            yield from self.signal()

    def device_detach(self, tag: str):
        """Hot-detach the tagged device from every VM that has it."""
        self._check_open()
        active = [a for a in self.agents if a.has_attached(tag)]
        if active:
            yield self._parallel(a.device_detach(tag) for a in active)
        self.cluster.trace("symvirt", "device_detach", tag=tag, count=len(active))

    def device_attach(self, host: str = "", tag: str = "vf0"):
        """Hot-attach the host function at BDF ``host`` to every VM."""
        self._check_open()
        yield self._parallel(a.device_attach(host, tag) for a in self.agents)
        self.cluster.trace("symvirt", "device_attach", tag=tag, host=host)

    def migration(
        self,
        src_hostlist: Sequence[str],
        dst_hostlist: Sequence[str],
        rdma: bool = False,
        mapping: Optional[Dict[str, str]] = None,
        results: Optional[Dict[str, "MigrationStats"]] = None,
        policy: Optional["MigrationPolicy"] = None,
    ):
        """Migrate every VM per the src→dst hostlist mapping (in parallel).

        VMs are matched to destinations positionally by their current
        host's index in ``src_hostlist``; when ``dst_hostlist`` is shorter
        the mapping wraps (that is how the paper consolidates 4 VMs onto
        "2 hosts" in Figure 8).  Callers with an exact per-VM plan pass
        ``mapping`` (VM name → destination host) directly; a *partial*
        mapping migrates only the VMs it names (the retry path of the
        transactional orchestrator).  Returns per-VM migration stats —
        pass ``results`` to accumulate into a caller-owned dict so that
        completions still land even if a sibling's failure aborts the
        barrier first.
        """
        self._check_open()
        if mapping is None:
            mapping = self.plan_mapping(src_hostlist, dst_hostlist)
        if results is None:
            results = {}
        yield self.migration_async(rdma=rdma, mapping=mapping, results=results, policy=policy)
        self.cluster.trace("symvirt", "migration", mapping=mapping)
        return results

    def migration_async(
        self,
        rdma: bool = False,
        mapping: Optional[Dict[str, str]] = None,
        results: Optional[Dict[str, "MigrationStats"]] = None,
        policy: Optional["MigrationPolicy"] = None,
    ) -> object:
        """Start the per-VM migrations and return the barrier event.

        Unlike :meth:`migration` this does not wait: the caller yields
        the returned barrier itself.  The transactional orchestrator uses
        the gap to model a controller crash *mid-precopy* — the QEMU
        streams are independent simulation processes and run to
        completion even if the controller that launched them dies.
        """
        self._check_open()
        if mapping is None:
            raise SymVirtError("migration_async needs an explicit mapping")
        if results is None:
            results = {}

        def _one(agent: SymVirtAgent, dst_name: str):
            stats = yield from agent.migrate(
                self.cluster.node(dst_name), rdma=rdma, policy=policy
            )
            results[agent.qemu.vm.name] = stats

        return self._parallel(
            _one(agent, mapping[agent.qemu.vm.name])
            for agent in self.agents
            if agent.qemu.vm.name in mapping
        )

    def plan_mapping(
        self, src_hostlist: Sequence[str], dst_hostlist: Sequence[str]
    ) -> Dict[str, str]:
        """VM name → destination host name (positional with wrap)."""
        if not dst_hostlist:
            raise SymVirtError("empty destination hostlist")
        mapping: Dict[str, str] = {}
        for agent in self.agents:
            src = agent.qemu.node.name
            try:
                index = list(src_hostlist).index(src)
            except ValueError:
                raise SymVirtError(
                    f"{agent.qemu.vm.name} is on {src}, not in src hostlist"
                ) from None
            mapping[agent.qemu.vm.name] = list(dst_hostlist)[index % len(dst_hostlist)]
        return mapping

    def quit(self):
        """End this controller block (Figure 5 ends rounds with quit)."""
        yield self.env.timeout(0.0)
        self.closed = True

    def close(self) -> None:
        """Synchronous variant of :meth:`quit`."""
        self.closed = True
