"""QEMU live migration with the paper's performance characteristics.

Model highlights (each anchored in the paper — see
:mod:`repro.hardware.calibration`):

* the migration thread is **single-threaded**: compressible ("dup") pages
  cost a memory-scan (``page_scan_Bps``), full pages are CPU-bound at
  ``migration_cpu_cap_Bps`` (≈ 1.3 Gbps, Section V);
* **uniform pages compress to 9 wire bytes** — a memtest footprint barely
  moves the needle (Fig. 6), a real dataset transfers in full (Fig. 7);
* an **unpaused** guest keeps dirtying pages, so precopy iterates until
  the remaining dirty set fits in the downtime budget; a **parked** guest
  (SymVirt wait, the Ninja path) is a single pass;
* a VM with a **passthrough device attached cannot migrate**
  (:class:`~repro.errors.MigrationBlockedError`) — the constraint the
  whole paper exists to lift.

Degraded-path extensions (all gated on :class:`~repro.vmm.policy.MigrationPolicy`;
the default policy reproduces plain precopy exactly):

* **non-convergence detection** — the estimated stop-and-copy downtime is
  tracked per round; when it stops shrinking the policy escalates (the
  decision is :class:`~repro.vmm.policy.PrecopyRule`, shared with the
  fluid scale fleet);
* **auto-converge** — QEMU-style vCPU throttling (initial 20 %, +10 % per
  kick, capped) written to ``vm.cpu_throttle``, which feeds back into the
  guest's dirtying rate via the run-gate'd workload primitives;
* **postcopy** — switch the VM to the destination first, then pull the
  pages the *received-page bitmap* says are still missing.  A dropped
  stream pauses the drain (``postcopy-paused``) and recovers from the
  bitmap instead of restarting — QEMU's ``migrate-pause``/``migrate-recover``.
  The bitmap is stored as :class:`~repro.vmm.guest_memory.PageRuns`, so
  folding in a round, marking redirtied pages missing and finding the
  next chunk cost O(runs), not O(pages).
  After the switchover the origin no longer has a runnable VM: exhausting
  recovery *loses* the VM (left PAUSED on the destination), which is why
  postcopy is an explicit opt-in.

An optional RDMA transport (Section V's proposed optimization) removes the
CPU cap and uses the IB fabric; it is exercised by the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import MigrationBlockedError, MigrationError, NetworkError
from repro.sim.events import Event
from repro.units import MiB
from repro.vmm.guest_memory import PageRuns
from repro.vmm.policy import (
    POSTCOPY,
    RECOVER_BACKOFF_MAX_S,
    STOP,
    THROTTLE,
    MigrationPolicy,
    PrecopyRule,
)
from repro.vmm.vm import RunState

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import PhysicalNode
    from repro.vmm.qemu import QemuProcess

#: Page-pull granularity of the postcopy drain (QEMU services faults
#: per-page; the background drain streams in large chunks).
POSTCOPY_CHUNK_BYTES = 128 * MiB

#: Statuses that mean "a migration thread still owns this VM".
IN_FLIGHT_STATUSES = ("active", "postcopy-active", "postcopy-paused")


@dataclass
class RoundStats:
    """Accounting for one precopy iteration."""

    index: int
    pages: int
    dup_pages: int
    data_pages: int
    wire_bytes: float
    duration_s: float
    start_time: float
    #: Guest vCPU throttle in effect while this round ran.
    throttle: float = 0.0
    #: Estimated stop-and-copy downtime after this round (0 = converged).
    est_downtime_s: float = 0.0


@dataclass
class MigrationStats:
    """Aggregate migration outcome (query-migrate's ``ram`` section)."""

    status: str = "none"  # none|active|postcopy-active|postcopy-paused|completed|failed
    rounds: list[RoundStats] = field(default_factory=list)
    total_time_s: float = 0.0
    downtime_s: float = 0.0
    wire_bytes: float = 0.0
    scanned_pages: int = 0
    dup_pages: int = 0
    data_pages: int = 0
    setup_time_s: float = 0.0
    #: "precopy" or "postcopy" (after the switchover).
    mode: str = "precopy"
    #: Final auto-converge throttle, percent (QEMU's cpu-throttle-percentage).
    throttle_pct: float = 0.0
    #: Times auto-converge escalated the throttle.
    auto_converge_kicks: int = 0
    #: Precopy gave up on the downtime SLA (forced stop at the round cap).
    sla_violated: bool = False
    #: Postcopy stream interruptions (distinct outages, not retry attempts).
    stream_drops: int = 0
    #: Successful migrate-recover resumptions after a drop.
    recoveries: int = 0
    #: Bytes pulled after the postcopy switchover.
    postcopy_bytes: float = 0.0
    #: Sim time of the postcopy switchover (None = stayed precopy).
    switchover_at: Optional[float] = None

    @property
    def iterations(self) -> int:
        return len(self.rounds)

    @property
    def in_flight(self) -> bool:
        """A migration thread still owns the VM (precopy or postcopy)."""
        return self.status in IN_FLIGHT_STATUSES


class MigrationJob:
    """One migration of a VM from its current node to ``dst_node``."""

    def __init__(
        self,
        qemu: "QemuProcess",
        dst_node: "PhysicalNode",
        rdma: bool = False,
        policy: Optional[MigrationPolicy] = None,
    ) -> None:
        self.qemu = qemu
        self.env = qemu.env
        self.calibration = qemu.calibration
        self.dst_node = dst_node
        self.rdma = rdma
        self.policy = policy if policy is not None else MigrationPolicy()
        self.stats = MigrationStats()
        self.done = Event(self.env)
        self._process = None
        #: Pages the destination holds a current copy of (QEMU's
        #: received-page bitmap, stored as runs); the postcopy drain and
        #: migrate-recover resume from it.
        self.received: Optional[PageRuns] = None
        self._switched = False
        self._origin_node: Optional["PhysicalNode"] = None

    # -- public ------------------------------------------------------------------

    def start(self) -> "MigrationJob":
        """Validate preconditions and launch the migration process."""
        if self.qemu.migration_blockers:
            blockers = ", ".join(sorted(self.qemu.migration_blockers))
            raise MigrationBlockedError(
                f"{self.qemu.vm.name}: migration blocked by assigned device(s): "
                f"{blockers} — detach them first (this is the constraint Ninja "
                f"migration works around)"
            )
        if self.qemu.vm.state is RunState.SHUTOFF:
            raise MigrationError(f"{self.qemu.vm.name}: VM is not running")
        if self.dst_node.free_memory < self.qemu.vm.memory.size_bytes:
            raise MigrationError(
                f"{self.dst_node.name}: insufficient free RAM for "
                f"{self.qemu.vm.name}"
            )
        self.stats.status = "active"
        self._process = self.env.process(self._run(), name=f"migrate.{self.qemu.vm.name}")
        return self

    # -- internals -------------------------------------------------------------------

    def _guest_parked(self) -> bool:
        """True when the guest generates no dirty pages (SymVirt park/pause)."""
        vm = self.qemu.vm
        if vm.state is RunState.PAUSED:
            return True
        channel = vm.hypercall
        return channel is not None and channel.parked

    @property
    def _transfer_cap_Bps(self) -> float:
        """Effective data-transfer rate: QMP migrate_set_speed, clamped by
        the single-thread CPU ceiling."""
        cap = self.calibration.migration_cpu_cap_Bps
        if self.qemu.migration_speed_Bps is not None:
            cap = min(cap, self.qemu.migration_speed_Bps)
        return cap

    def _round_cost(
        self, pages: Optional[PageRuns]
    ) -> tuple[int, int, int, float, float]:
        """(pages, dup_pages, data_pages, wire_bytes, cpu_seconds) for a round.

        ``pages`` is the page set the round sends (``None`` = all of RAM);
        see
        :meth:`~repro.vmm.guest_memory.GuestMemory.round_accounting`.
        """
        cal = self.calibration
        memory = self.qemu.vm.memory
        npages, dup, data = memory.round_accounting(pages)
        wire = dup * cal.dup_page_wire_bytes + data * (memory.page_size + cal.page_header_bytes)
        if self.rdma:
            # RDMA path: scan still costs memory bandwidth, transfer is
            # offloaded (no 1.3 Gbps CPU cap).
            cpu_seconds = (dup + data) * memory.page_size / cal.page_scan_Bps
        else:
            cpu_seconds = (
                dup * memory.page_size / cal.page_scan_Bps
                + data * memory.page_size / self._transfer_cap_Bps
            )
        return npages, dup, data, wire, cpu_seconds

    def _transfer(
        self,
        wire_bytes: float,
        cpu_seconds: float,
        src_node: Optional["PhysicalNode"] = None,
    ):
        """Ship ``wire_bytes`` src→dst, CPU-paced; returns the flow.

        ``src_node`` defaults to wherever the QEMU currently runs; the
        postcopy drain passes the origin explicitly (the VM has already
        relocated to the destination by then).
        """
        # The single migration thread paces the stream: the flow's cap is
        # chosen so an uncontended network finishes in exactly cpu_seconds.
        if cpu_seconds > 0:
            eff_cap = max(wire_bytes, 1.0) / cpu_seconds
        else:
            eff_cap = float("inf")
        if src_node is None:
            src_node = self.qemu.node
        if src_node is self.dst_node:
            # Self-migration: loopback stream, no fabric involvement.
            return self.qemu.loopback_flows.start([], wire_bytes, cap_Bps=eff_cap, label="migr")
        if self.rdma:
            fabric = self.qemu.ib_fabric_for_migration()
        else:
            fabric = self.qemu.eth_fabric
        src = fabric.port(src_node.name)
        dst = fabric.port(self.dst_node.name)
        return fabric.transfer(src, dst, wire_bytes, cap_Bps=eff_cap, label=f"migr.{self.qemu.vm.name}")

    def _set_throttle(self, value: float) -> None:
        vm = self.qemu.vm
        vm.cpu_throttle = value
        self.stats.throttle_pct = round(value * 100.0, 1)

    def _account_round(self, pages: Optional[PageRuns]) -> None:
        """Fold a sent round into the received-page bitmap."""
        if pages is None:
            self.received.add(0, self.qemu.vm.memory.npages)
        else:
            self.received.update(pages)

    def _resend_dirty(self) -> PageRuns:
        """Sync the dirty log: returns the dirty pages and marks them
        missing again at the destination."""
        pages = self.qemu.vm.memory.snapshot_dirty()
        self.received.subtract(pages)
        return pages

    def _run(self):
        try:
            stats = yield from self._run_inner()
            return stats
        except Exception as err:
            self.stats.status = "failed"
            memory = self.qemu.vm.memory
            if memory.dirty_logging:
                memory.stop_dirty_logging()
            self._set_throttle(0.0)
            if self._switched:
                # Postcopy failure semantics: the only complete RAM image
                # is split across two hosts — the VM is lost, not restored.
                # Mirror QEMU: it stays PAUSED on the destination.
                if self.qemu.vm.state is not RunState.SHUTOFF:
                    self.qemu.vm.set_state(RunState.PAUSED)
                self.qemu.trace(
                    "migration", "failed", error=str(err), postcopy=True, vm_lost=True
                )
            else:
                # Mirror QEMU: a failed precopy leaves the VM running on
                # the source; query-migrate reports "failed".
                if self.qemu.vm.state is RunState.PAUSED:
                    self.qemu.vm.set_state(RunState.RUNNING)
                self.qemu.trace("migration", "failed", error=str(err))
            self.done.fail(err)
            return self.stats

    def _run_inner(self):
        cal = self.calibration
        policy = self.policy
        vm = self.qemu.vm
        memory = vm.memory
        t_start = self.env.now
        self.qemu.trace(
            "migration",
            "start",
            dst=self.dst_node.name,
            rdma=self.rdma,
            postcopy=policy.postcopy,
            auto_converge=policy.auto_converge,
        )

        # Capability negotiation, dest QEMU spawn, NFS image handoff.
        yield self.env.timeout(cal.migration_setup_s)
        self.stats.setup_time_s = self.env.now - t_start

        # Fault-injection site: a migration-socket failure after setup goes
        # through the same clean-failure path as a real network outage (the
        # VM stays on the source, query-migrate reports "failed").
        yield from self.qemu.cluster.faults.perturb("migration.stream")

        memory.start_dirty_logging()
        self.received = PageRuns()
        downtime = self.qemu.migration_max_downtime_s
        rule = PrecopyRule(
            policy,
            cal.max_downtime_s if downtime is None else downtime,
            cal.max_precopy_rounds,
        )
        go_postcopy = policy.postcopy == "always"
        downtime_started: Optional[float] = None
        pages: Optional[PageRuns] = None  # round 0: full RAM traversal
        # Cost of the upcoming round: the estimate after a round prices
        # the same dirty pages the next round sends.
        cost = None if go_postcopy else self._round_cost(pages)
        round_index = 0

        while not go_postcopy:
            npages, dup, data, wire, cpu_seconds = cost
            t_round = self.env.now
            if npages > 0:
                flow = self._transfer(wire, cpu_seconds)
                yield flow.done
            duration = self.env.now - t_round
            round_stats = RoundStats(
                round_index, npages, dup, data, wire, duration, t_round,
                throttle=vm.cpu_throttle,
            )
            self.stats.rounds.append(round_stats)
            self.stats.wire_bytes += wire
            self.stats.scanned_pages += npages
            self.stats.dup_pages += dup
            self.stats.data_pages += data
            self._account_round(pages)
            self.qemu.trace(
                "migration",
                "round",
                index=round_index,
                pages=npages,
                wire_bytes=int(wire),
                seconds=round(duration, 4),
                throttle=vm.cpu_throttle,
            )
            round_index += 1

            if downtime_started is not None:
                break  # that was the stop-and-copy pass
            if self._guest_parked():
                # Parked guest: pages dirtied before the park landed take
                # one more, still quiescent, pass.
                pages = self._resend_dirty()
                if pages.size == 0:
                    break
                cost = self._round_cost(pages)
                continue

            # Guest still running: the rule decides on the downtime estimate.
            pages = self._resend_dirty()
            cost = self._round_cost(pages)
            remaining, _, _, _, est_time = cost
            if remaining == 0:
                break
            est_time = max(est_time, 0.0)
            round_stats.est_downtime_s = est_time
            action = rule.after_round(round_stats.index, est_time, vm.cpu_throttle)
            if action.kind == THROTTLE:
                self._set_throttle(action.throttle)
                self.stats.auto_converge_kicks += 1
                self.qemu.trace(
                    "migration",
                    "auto_converge",
                    throttle=action.throttle,
                    est_downtime_s=round(est_time, 3),
                )
            elif action.kind == POSTCOPY:
                go_postcopy = True
            elif action.kind == STOP:
                # Pause the guest for the final round.
                self.stats.sla_violated = action.sla_violated
                downtime_started = self.env.now
                vm.set_state(RunState.PAUSED)

        if go_postcopy:
            yield from self._postcopy_switchover()
            yield from self._postcopy_drain()
        else:
            # Device state + CPU state blob (small, constant).
            yield self.env.timeout(0.02)
            memory.stop_dirty_logging()
            if downtime_started is not None:
                self.stats.downtime_s = self.env.now - downtime_started
            # Switch-over: the VM now runs on the destination.
            self.qemu.relocate(self.dst_node)
            if vm.state is RunState.PAUSED:
                vm.set_state(RunState.RUNNING)

        self._set_throttle(0.0)
        self.stats.total_time_s = self.env.now - t_start
        self.stats.status = "completed"
        self.qemu.trace(
            "migration",
            "completed",
            dst=self.dst_node.name,
            seconds=round(self.stats.total_time_s, 3),
            wire_bytes=int(self.stats.wire_bytes),
            rounds=self.stats.iterations,
            mode=self.stats.mode,
            stream_drops=self.stats.stream_drops,
        )
        self.done.succeed(self.stats)
        return self.stats

    # -- postcopy ----------------------------------------------------------------

    def _postcopy_switchover(self):
        """Flip execution to the destination; RAM follows on demand.

        This is the point of no return: after it the origin holds pages
        but no runnable VM, and failure loses the VM instead of falling
        back to the source.
        """
        vm = self.qemu.vm
        memory = vm.memory
        t_pause = self.env.now
        vm.set_state(RunState.PAUSED)
        # Device state + CPU state blob travels with the switchover.
        yield self.env.timeout(0.02)
        self._resend_dirty()
        memory.stop_dirty_logging()
        self._origin_node = self.qemu.node
        self.qemu.relocate(self.dst_node)
        self._switched = True
        self.stats.mode = "postcopy"
        self.stats.switchover_at = self.env.now
        self.stats.downtime_s = self.env.now - t_pause
        vm.set_state(RunState.RUNNING)  # parked guests stay gated in the hypercall
        self.stats.status = "postcopy-active"
        self.qemu.trace(
            "migration",
            "postcopy_switchover",
            dst=self.dst_node.name,
            missing_pages=memory.npages - self.received.size,
            downtime_s=round(self.stats.downtime_s, 4),
        )

    def _postcopy_drain(self):
        """Pull missing pages origin→destination from the received bitmap.

        A dropped stream pauses the drain and retries with exponential
        backoff (``migrate-pause``/``migrate-recover``); each resumption
        continues from the bitmap, so already-received pages are never
        re-sent.  Exhausting the recovery budget raises — and loses the VM.

        After the switchover only the drain writes the bitmap, so it walks
        the bitmap once with a cursor: every page before the cursor is
        received, each chunk is the next ``chunk_pages`` missing pages past
        it, and only that chunk's page classes are accounted — O(runs) per
        chunk, independent of the size of RAM.  A failed chunk is retried
        as-is.  Every page between a chunk's first and last page is received
        once it lands, so the bitmap update is one run added.
        """
        policy = self.policy
        memory = self.qemu.vm.memory
        chunk_pages = max(1, POSTCOPY_CHUNK_BYTES // memory.page_size)
        missing = memory.npages - self.received.size
        cursor = 0
        attempt = 0
        chunk: Optional[PageRuns] = None
        while missing > 0:
            if chunk is None:
                chunk = self.received.first_missing(cursor, chunk_pages, memory.npages)
            chunk_size, dup, data, wire, cpu_seconds = self._round_cost(chunk)
            try:
                flow = self._transfer(wire, cpu_seconds, src_node=self._origin_node)
                yield flow.done
            except NetworkError as err:
                if attempt == 0:
                    self.stats.stream_drops += 1
                self.stats.status = "postcopy-paused"
                attempt += 1
                if attempt > policy.recover_max_attempts:
                    raise MigrationError(
                        f"{self.qemu.vm.name}: postcopy stream unrecoverable after "
                        f"{policy.recover_max_attempts} migrate-recover attempts: {err}"
                    ) from err
                backoff = min(
                    policy.recover_backoff_s * (2.0 ** (attempt - 1)), RECOVER_BACKOFF_MAX_S
                )
                self.qemu.trace(
                    "migration",
                    "postcopy_pause",
                    attempt=attempt,
                    missing_pages=missing,
                    retry_in_s=backoff,
                    error=str(err),
                )
                yield self.env.timeout(backoff)
                continue
            if attempt > 0:
                attempt = 0
                self.stats.recoveries += 1
                self.stats.status = "postcopy-active"
                self.qemu.trace(
                    "migration",
                    "postcopy_recover",
                    missing_pages=missing,
                    recoveries=self.stats.recoveries,
                )
            cursor = chunk.ends[-1]
            self.received.add(chunk.starts[0], cursor)
            missing -= chunk_size
            self.stats.wire_bytes += wire
            self.stats.postcopy_bytes += wire
            self.stats.scanned_pages += chunk_size
            self.stats.dup_pages += dup
            self.stats.data_pages += data
            chunk = None
