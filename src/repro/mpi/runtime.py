"""The MPI runtime: processes, job launch, and checkpoint servicing.

An :class:`MpiJob` is one ``mpirun`` invocation: ranks are placed
round-robin-by-VM (``procs_per_vm`` ranks on each guest), COMM_WORLD is
created, and — when launched with ``--am ft-enable-cr`` like the paper —
the CRCP/CRS machinery is armed so a cloud-scheduler checkpoint request
can park the whole job for Ninja migration.

Checkpoint requests are serviced *inside* the MPI library, matching
reality: each rank notices the pending request at its next MPI call (or
while blocked in a receive, via the progress engine) and runs the CR
sequence: CRCP quiesce → pre-checkpoint resource release → SELF
checkpoint callback (SymVirt wait) → … resume … → continue callback
(confirm link-up) → BTL reconstruction if needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import MpiError
from repro.mpi.btl.base import BtlRegistry
from repro.mpi.btl.selection import BtlSelection
from repro.mpi.communicator import CommView, Communicator
from repro.mpi.crcp import CrcpCoordinator
from repro.mpi.crs import OpalCrs
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Message
from repro.mpi.ft import FtSettings
from repro.mpi.p2p import MatchingEngine, PostedRecv, SendTracker
from repro.sim.events import Event
from repro.sim.process import Interrupt
from repro.vmm.guest_memory import PageClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.calibration import Calibration
    from repro.hardware.cluster import Cluster
    from repro.sim.core import Environment
    from repro.vmm.qemu import QemuProcess
    from repro.vmm.vm import VirtualMachine

#: What :meth:`MpiProcess._notify_cr` fires a parked receive with.
_CR_WAKE = object()


class MpiProcess:
    """One MPI rank, living inside a VM."""

    def __init__(self, job: "MpiJob", rank: int, vm: "VirtualMachine") -> None:
        self.job = job
        self.rank = rank
        self.vm = vm
        self.env: "Environment" = vm.env
        self.matching = MatchingEngine(self.env)
        self.sends = SendTracker(self.env)
        self.btl = BtlSelection(self, registry=job.btl_registry)
        #: CR round bookkeeping.
        self._serviced_round = 0
        #: The receive a blocking ``recv`` is parked on (a CR request wakes it).
        self._posted_recv: Optional[PostedRecv] = None
        #: Set while the rank is inside the CR sequence.
        self.in_checkpoint = False

    # -- conveniences ------------------------------------------------------------

    @property
    def calibration(self) -> "Calibration":
        if self.vm.qemu is None:
            raise MpiError(f"rank {self.rank}: VM is not hosted")
        return self.vm.qemu.calibration

    def trace(self, category: str, event: str, **fields: object) -> None:
        if self.vm.qemu is not None:
            self.vm.qemu.trace(f"mpi.{category}", event, rank=self.rank, **fields)

    def deliver(self, message: Message) -> None:
        """Transport hand-off (called by peer BTL modules)."""
        self.matching.deliver(message)

    # -- checkpoint plumbing ---------------------------------------------------------

    @property
    def cr_pending(self) -> bool:
        return self.job.cr_round > self._serviced_round and not self.in_checkpoint

    def _notify_cr(self) -> None:
        """Wake the rank if it is parked in a blocking receive.

        The posted receive is withdrawn from matching and fired with
        :data:`_CR_WAKE`, so :meth:`recv` services the request and
        re-posts.  A receive that already matched keeps its message; the
        request then waits for the rank's next MPI call.
        """
        recv, self._posted_recv = self._posted_recv, None
        if recv is not None and not recv.triggered:
            recv.cancel()
            recv.succeed(_CR_WAKE)

    def maybe_service_cr(self):
        """Entry-point hook: run the CR sequence if a request is pending."""
        if self.cr_pending:
            yield from self.service_cr()

    def service_cr(self):
        """The full checkpoint/continue sequence for this rank."""
        round_id = self.job.cr_round
        if self._serviced_round >= round_id or self.in_checkpoint:
            return
        self._serviced_round = round_id
        self.in_checkpoint = True
        self.trace("cr", "enter", round=round_id)
        try:
            yield from self.job.crcp.quiesce(self)
            yield from self.job.crs.checkpoint(self)
            # Continue/restart phase: rebuild transports when required.
            if self.job.ft.continue_like_restart or self.btl.needs_reconstruction():
                yield from self.btl.construct()
        finally:
            self.in_checkpoint = False
        self.trace("cr", "leave", round=round_id)

    # -- point-to-point API (generators) ------------------------------------------------

    def send(
        self,
        dst: int,
        nbytes: int,
        tag: int = 0,
        comm_id: int = 0,
        value: object = None,
        page_class: PageClass = PageClass.DATA,
    ):
        """Blocking send: returns after the transport delivered the message."""
        yield from self.maybe_service_cr()
        peer = self.job.proc(dst)
        message = Message(
            src=self.rank, dst=dst, tag=tag, nbytes=int(nbytes), comm_id=comm_id,
            value=value, page_class=page_class,
        )
        module = self.btl.route(peer)
        self.sends.total_sends += 1
        yield from module.send(peer, message)

    def isend(
        self,
        dst: int,
        nbytes: int,
        tag: int = 0,
        comm_id: int = 0,
        value: object = None,
    ) -> Event:
        """Non-blocking send; returns the completion event."""
        peer = self.job.proc(dst)
        message = Message(
            src=self.rank, dst=dst, tag=tag, nbytes=int(nbytes), comm_id=comm_id, value=value
        )
        module = self.btl.route(peer)
        # Driven from callbacks, so the send overlaps the caller's receive.
        return self.sends.start(module.send(peer, message))

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG, comm_id: int = 0):
        """Blocking receive, interruptible by checkpoint requests.

        A rank parked in ``MPI_Recv`` still participates in checkpoints:
        the posted receive is cancelled, the CR sequence runs, and the
        receive is re-posted afterwards (the message, sent before or after
        the migration, is matched whenever it arrives).
        """
        while True:
            yield from self.maybe_service_cr()
            recv = self.matching.post_recv(src, tag, comm_id)
            self._posted_recv = recv
            message = yield recv
            self._posted_recv = None
            if message is not _CR_WAKE:
                return message

    def sendrecv(
        self,
        dst: int,
        nbytes_send: int,
        src: int,
        tag: int = 0,
        comm_id: int = 0,
        value: object = None,
    ):
        """Concurrent send+recv (deadlock-free exchange step)."""
        yield from self.maybe_service_cr()
        send_done = self.isend(dst, nbytes_send, tag=tag, comm_id=comm_id, value=value)
        message = yield from self.recv(src, tag, comm_id)
        yield send_done
        return message

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MpiProcess rank={self.rank} vm={self.vm.name}>"


class MpiJob:
    """One mpirun invocation across a set of VMs."""

    def __init__(
        self,
        cluster: "Cluster",
        qemus: List["QemuProcess"],
        procs_per_vm: int = 1,
        ft: Optional[FtSettings] = None,
        btl_registry: Optional[BtlRegistry] = None,
    ) -> None:
        if not qemus:
            raise MpiError("a job needs at least one VM")
        if procs_per_vm <= 0:
            raise MpiError("procs_per_vm must be positive")
        from repro.mpi.btl.base import DEFAULT_REGISTRY

        self.cluster = cluster
        self.env = cluster.env
        self.qemus = list(qemus)
        self.procs_per_vm = procs_per_vm
        self.ft = ft if ft is not None else FtSettings()
        self.btl_registry = btl_registry if btl_registry is not None else DEFAULT_REGISTRY
        self.cr_round = 0
        self.crcp = CrcpCoordinator(self)
        self.crs = OpalCrs(self)

        self.procs: List[MpiProcess] = []
        for qemu in self.qemus:
            if qemu.vm.kernel is None:
                raise MpiError(f"{qemu.vm.name}: boot the VM before launching MPI")
            for _ in range(procs_per_vm):
                proc = MpiProcess(self, len(self.procs), qemu.vm)
                self.procs.append(proc)
            # SymVirt coordinators participate in wait/signal per rank.
            qemu.vm.hypercall.register(procs_per_vm)
            # Resident ranks busy-poll; the host CPU model uses this count
            # for overcommit dilation (Fig. 8's consolidated phase).
            qemu.vm.mpi_ranks = procs_per_vm  # type: ignore[attr-defined]
        self.world = Communicator(self, list(range(len(self.procs))))
        self._rank_processes: List[Event] = []

    # -- lookup ---------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.procs)

    def proc(self, rank: int) -> MpiProcess:
        try:
            return self.procs[rank]
        except IndexError:
            raise MpiError(f"no rank {rank} in a {self.size}-rank job") from None

    def view(self, rank: int) -> CommView:
        return self.world.view(rank)

    # -- lifecycle ----------------------------------------------------------------------

    def init(self):
        """MPI_Init across all ranks: construct BTLs (generator).

        Launch experiments drive this once from a setup process.
        """
        for proc in self.procs:
            yield from proc.btl.construct()

    def launch(
        self, rank_main: Callable[[MpiProcess, CommView], object]
    ) -> List[Event]:
        """Start every rank's main generator as a simulation process.

        ``rank_main(proc, comm)`` is the SPMD program.  Returns the list
        of per-rank completion events (the Process objects).
        """

        def _wrap(proc: MpiProcess):
            try:
                if not proc.btl.modules:
                    yield from proc.btl.construct()
                result = yield from rank_main(proc, self.world.view(proc.rank))
                # MPI_Finalize semantics: service a checkpoint request that
                # raced with completion, so peers already parked are not left
                # waiting for this rank forever.
                while proc.cr_pending:
                    yield from proc.service_cr()
                return result
            except Interrupt as intr:
                # mpirun killed the rank (host died / job superseded by a
                # checkpoint restore).  Exit cleanly — the replacement job
                # owns the ranks from here.
                proc.trace("job", "rank_terminated", reason=str(intr.cause))
                return None

        self._rank_processes = [
            self.env.process(_wrap(proc), name=f"rank{proc.rank}") for proc in self.procs
        ]
        return self._rank_processes

    def wait(self) -> Event:
        """Barrier event: all rank main functions returned."""
        if not self._rank_processes:
            raise MpiError("launch() has not been called")
        return self.env.all_of(self._rank_processes)

    def terminate(self, reason: str = "job terminated") -> None:
        """Kill every still-running rank (mpirun teardown).

        Used when the job is superseded — e.g. a checkpoint restore
        replaces it with a fresh :class:`MpiJob` over restored VMs — so
        survivor ranks don't sit in a receive waiting for dead peers.
        """
        for process in self._rank_processes:
            if process.is_alive:
                process.interrupt(reason)
        self.cluster.trace("mpi.job", "terminated", reason=reason)

    # -- checkpoint entry point (the ompi-checkpoint command) ---------------------------------

    @property
    def live_ranks(self) -> int:
        """Rank main functions still running (0 before launch / after exit)."""
        return sum(1 for p in self._rank_processes if p.is_alive)

    def request_checkpoint(self) -> int:
        """Deliver a checkpoint request to every rank (cloud scheduler).

        Returns the new CR round id.  Ranks service it at their next MPI
        call / blocked receive.
        """
        if not self._rank_processes or self.live_ranks < self.size:
            raise MpiError(
                f"checkpoint requested with {self.live_ranks}/{self.size} ranks "
                "running — every rank must participate in the SymVirt park, so "
                "a partially/fully finished job cannot checkpoint (wait_all "
                "would deadlock)"
            )
        self.cr_round += 1
        for proc in self.procs:
            proc._notify_cr()
        self.cluster.trace("mpi.job", "checkpoint_requested", round=self.cr_round)
        return self.cr_round

    def comm_stats(self) -> dict[str, int]:
        """Job-wide cumulative bytes per transport (survives reconstructs).

        Useful for asserting where traffic actually flowed across a
        fallback/recovery cycle.
        """
        totals: dict[str, int] = {}
        for proc in self.procs:
            for name, nbytes in proc.btl.traffic_by_transport().items():
                totals[name] = totals.get(name, 0) + nbytes
        return totals

    def transports_in_use(self) -> dict[str, int]:
        """Histogram of per-peer route transports (diagnostics/tests)."""
        counts: dict[str, int] = {}
        for proc in self.procs:
            for peer in self.procs:
                if peer is proc:
                    continue
                try:
                    name = proc.btl.route_name(peer)
                except MpiError:
                    name = "unreachable"
                counts[name] = counts.get(name, 0) + 1
        return counts
