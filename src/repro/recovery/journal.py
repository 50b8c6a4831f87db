"""Write-ahead migration journal: the durable trace of every sequence.

The SymVirt controller is a single point of failure — if it dies while a
job is parked and half-detached, nothing in the cluster remembers what
was in flight.  The journal fixes that: :class:`~repro.core.ninja.NinjaMigration`
and the fleet executor append a :class:`JournalRecord` *before* each
state-changing step (``intent``) and after it lands (``commit``), plus
records for the compensation stack, reservations, and terminal outcomes.
After a crash, :class:`~repro.recovery.recovery.RecoveryManager` folds the
surviving records into per-migration :class:`MigrationSnapshot` objects
and decides roll-forward or roll-back per sequence.

Record kinds
------------

``begin``
    A sequence opened: plan label, VM names, origin hosts, destination
    mapping, device tag, per-VM attach flags, pre-transaction HCA state.
``intent`` / ``commit``
    A phase is about to run / has finished (``phase`` field).  The
    ``resume`` intent marks the attempt to reach the commit point.
``signal``
    One SymVirt resume round was delivered (round A→B release).
``commit-point``
    The second signal landed: guests run at their destinations.  This is
    the roll-forward/roll-back watershed.
``postcopy-switchover``
    One or more VMs flipped execution to the destination with RAM still
    in flight (``vms`` field).  A *per-VM* commit point that precedes the
    sequence-level one: the origin no longer holds a runnable image, so
    recovery rolls these VMs forward and rollback never migrates them
    back.
``compensation``
    An undo action was pushed onto the compensation stack (``action``).
``rollback-action``
    An undo (or degrade) action executed.
``complete`` / ``aborted`` / ``recovered``
    Terminal outcomes; a sequence with none of these is *unfinished*
    and becomes recovery work after a crash.
``request`` / ``request-started`` / ``request-finished``
    Fleet-executor request lifecycle (used to resubmit queued work).
    Recovery closes a dead orchestrator's open requests itself:
    ``superseded`` when it hands the job to a successor, ``completed``
    when the last attempt rolled forward (``recovered`` in the payload).
``reservation`` / ``release``
    FleetStateStore capacity claims keyed by request id and plan label.
``recovery-begin`` / ``recovery-decision`` / ``recovery-complete``
    The recovery pass documents itself in the same journal.
``incident-open`` / ``incident-resolved``
    An :class:`~repro.incident.correlator.Incident` entered / left
    remediation (class, links, hosts, jobs in the payload).
``incident-action-intent`` / ``incident-action-commit``
    One runbook step is about to run / has finished (``step`` index and
    ``action`` name).  A successor controller re-runs any step with an
    intent but no commit and skips committed ones — the incident
    analogue of the phase-level intent/commit discipline above.
``checkpoint-intent`` / ``checkpoint-commit``
    A proactive checkpoint generation is about to be written / is fully
    on stable storage (``job``, ``generation``, ``images``,
    ``consistency_at`` in the payload).  Only *committed* generations
    are restorable: an intent without a commit means the images may be
    partial and must never be restored from.
``restore-intent`` / ``restore-commit``
    A checkpoint restore (host-failure remediation) is about to boot
    replacement VMs / has replaced the job (``incident``, ``job``,
    ``generation``, ``hosts``, ``rpo_s``, ``rto_s``).  A successor
    controller skips jobs with a commit and re-runs ones with only an
    intent — restore actions are idempotent per (incident, job).

Persistence is JSON Lines: one record per line, appended with an
explicit flush so a crash loses at most the record being written —
matching the append-only discipline of real write-ahead logs.  The
in-memory record list is authoritative for same-process recovery;
:meth:`MigrationJournal.load` rebuilds a journal from disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, IO, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import MigrationPlan
    from repro.sim.core import Environment

#: Phase names in sequence order (mirrors ``repro.core.ninja.PHASES``
#: with the explicit ``resume`` commit-point attempt inserted).
JOURNALLED_PHASES = (
    "coordination",
    "detach",
    "migration",
    "attach",
    "confirm",
    "resume",
    "linkup",
)

#: Record kinds that end a migration sequence.
TERMINAL_KINDS = ("complete", "aborted", "recovered")

#: Record kinds that carry an allocated id → the id kind (payload key).
_ID_RECORDS = {"request": "request", "incident-open": "incident"}


@dataclass
class JournalRecord:
    """One append-only journal entry."""

    seq: int
    time: float
    kind: str
    #: Migration id (``label@N``); empty for request/reservation records.
    mid: str = ""
    phase: str = ""
    payload: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
        }
        if self.mid:
            record["mid"] = self.mid
        if self.phase:
            record["phase"] = self.phase
        if self.payload:
            record["payload"] = self.payload
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JournalRecord":
        return cls(
            seq=int(data["seq"]),
            time=float(data["time"]),
            kind=str(data["kind"]),
            mid=str(data.get("mid", "")),
            phase=str(data.get("phase", "")),
            payload=dict(data.get("payload", {})),  # type: ignore[arg-type]
        )


@dataclass
class MigrationSnapshot:
    """The fold of one migration's journal records (replay output)."""

    mid: str
    label: str = ""
    vms: List[str] = field(default_factory=list)
    #: VM name → host it lived on before the transaction.
    origin: Dict[str, str] = field(default_factory=dict)
    #: VM name → planned destination host.
    mapping: Dict[str, str] = field(default_factory=dict)
    tag: str = "vf0"
    #: VM name → whether the plan re-attaches an HCA at the destination.
    attach: Dict[str, bool] = field(default_factory=dict)
    #: VM name → whether an HCA was attached before the transaction.
    had_attached: Dict[str, bool] = field(default_factory=dict)
    request_checkpoint: bool = True
    intents: List[str] = field(default_factory=list)
    commits: List[str] = field(default_factory=list)
    #: SymVirt resume rounds journalled as delivered (0, 1, or 2).
    signals: int = 0
    #: True once the ``commit-point`` record exists.
    committed: bool = False
    #: VMs with a journalled postcopy switchover (per-VM commit points).
    postcopy_vms: List[str] = field(default_factory=list)
    #: Compensation-stack actions, in push order.
    compensations: List[str] = field(default_factory=list)
    rollback_actions: List[str] = field(default_factory=list)
    #: ``complete`` / ``aborted`` / ``recovered`` / None while in flight.
    terminal: Optional[str] = None

    @property
    def unfinished(self) -> bool:
        return self.terminal is None

    @property
    def phase_reached(self) -> str:
        """Deepest phase whose intent was journalled ('' before any)."""
        return self.intents[-1] if self.intents else ""

    def apply(self, record: JournalRecord) -> None:
        """Fold one record into the snapshot (idempotent per record)."""
        kind = record.kind
        if kind == "begin":
            p = record.payload
            self.label = str(p.get("label", ""))
            self.vms = list(p.get("vms", []))
            self.origin = dict(p.get("origin", {}))
            self.mapping = dict(p.get("mapping", {}))
            self.tag = str(p.get("tag", "vf0"))
            self.attach = dict(p.get("attach", {}))
            self.had_attached = dict(p.get("had_attached", {}))
            self.request_checkpoint = bool(p.get("request_checkpoint", True))
        elif kind == "intent":
            if record.phase not in self.intents:
                self.intents.append(record.phase)
        elif kind == "commit":
            if record.phase not in self.commits:
                self.commits.append(record.phase)
        elif kind == "signal":
            self.signals = max(self.signals, int(record.payload.get("round", 1)))
        elif kind == "commit-point":
            self.committed = True
            self.signals = max(self.signals, 2)
        elif kind == "postcopy-switchover":
            for vm in record.payload.get("vms", []):
                if vm not in self.postcopy_vms:
                    self.postcopy_vms.append(str(vm))
        elif kind == "compensation":
            self.compensations.append(str(record.payload.get("action", "")))
        elif kind == "rollback-action":
            self.rollback_actions.append(str(record.payload.get("action", "")))
        elif kind in TERMINAL_KINDS:
            # An abort whose *rollback itself* failed left the fleet in an
            # unreconciled state (split placement, parked guests): it
            # stays unfinished so recovery picks the sequence up, exactly
            # like a controller crash mid-rollback.
            if record.payload.get("rollback_failed"):
                self.terminal = None
            else:
                self.terminal = kind


class MigrationJournal:
    """Append-only journal, in memory and optionally on disk (JSONL)."""

    def __init__(
        self, path: Optional[str] = None, env: Optional["Environment"] = None
    ) -> None:
        self.path = path
        self.env = env
        self.records: List[JournalRecord] = []
        self._seq = 0
        self._mids = 0
        #: Last id handed out per kind (see :meth:`next_id`).
        self._ids: Dict[str, int] = {}
        self._fh: Optional[IO[str]] = None
        if path is not None:
            self._fh = open(path, "a", encoding="utf-8")

    def bind(self, env: "Environment") -> "MigrationJournal":
        """Attach the simulation clock (idempotent)."""
        if self.env is None:
            self.env = env
        return self

    @property
    def now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- appending ----------------------------------------------------------------

    def append(
        self, kind: str, mid: str = "", phase: str = "", **payload: object
    ) -> JournalRecord:
        record = JournalRecord(
            seq=self._seq, time=self.now, kind=kind, mid=mid, phase=phase,
            payload=payload,
        )
        self._seq += 1
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            self._fh.flush()
        return record

    def next_id(self, kind: str) -> int:
        """Allocate the next ``kind`` id (``"request"``, ``"incident"``).

        Ids are numbered per journal, so each run starts at 1 and a
        successor controller sharing the journal continues the numbering
        instead of reusing a dead controller's ids (spare-host leases are
        keyed by incident id).
        """
        self._ids[kind] = self._ids.get(kind, 0) + 1
        return self._ids[kind]

    def begin_sequence(
        self,
        plan: "MigrationPlan",
        origin: Dict[str, str],
        had_attached: Dict[str, bool],
        request_checkpoint: bool = True,
    ) -> str:
        """Open a migration sequence; returns its journal-unique mid."""
        self._mids += 1
        mid = f"{plan.label}@{self._mids}"
        self.append(
            "begin",
            mid=mid,
            label=plan.label,
            vms=[e.qemu.vm.name for e in plan.entries],
            origin=dict(origin),
            mapping=dict(plan.mapping),
            tag=plan.detach_tag,
            attach={e.qemu.vm.name: bool(e.attach_ib) for e in plan.entries},
            had_attached=dict(had_attached),
            request_checkpoint=request_checkpoint,
        )
        return mid

    # -- replay -------------------------------------------------------------------

    def migration_ids(self) -> List[str]:
        """Every mid with a ``begin`` record, in open order."""
        seen: List[str] = []
        for record in self.records:
            if record.kind == "begin" and record.mid not in seen:
                seen.append(record.mid)
        return seen

    def records_for(self, mid: str) -> List[JournalRecord]:
        return [r for r in self.records if r.mid == mid]

    def snapshot(self, mid: str) -> MigrationSnapshot:
        """Replay ``mid``'s records into a snapshot (pure fold: replaying
        twice — or replaying a journal rebuilt from disk — yields an
        identical snapshot)."""
        snap = MigrationSnapshot(mid=mid)
        for record in self.records_for(mid):
            snap.apply(record)
        return snap

    def snapshots(self) -> List[MigrationSnapshot]:
        return [self.snapshot(mid) for mid in self.migration_ids()]

    def unfinished(self) -> List[MigrationSnapshot]:
        """Sequences with no terminal record — the recovery work list."""
        return [s for s in self.snapshots() if s.unfinished]

    # -- fleet-request replay -----------------------------------------------------

    def request_records(self) -> Dict[int, Dict[str, object]]:
        """Request id → folded request state (for post-crash resubmission)."""
        folded: Dict[int, Dict[str, object]] = {}
        for record in self.records:
            rid = record.payload.get("request")
            if rid is None:
                continue
            rid = int(rid)  # type: ignore[arg-type]
            state = folded.setdefault(rid, {"request": rid, "labels": []})
            if record.kind == "request":
                state.update(
                    job=record.payload.get("job"),
                    request_kind=record.payload.get("request_kind"),
                    priority=record.payload.get("priority", 0),
                    dst_hosts=record.payload.get("dst_hosts"),
                )
            elif record.kind == "request-started":
                state["labels"].append(record.payload.get("label"))
            elif record.kind == "request-finished":
                state["finished"] = record.payload.get("status")
        return folded

    def unfinished_requests(self) -> List[Dict[str, object]]:
        """Submitted fleet requests with no terminal record."""
        return [
            state
            for state in self.request_records().values()
            if "finished" not in state and state.get("job") is not None
        ]

    def reservations_for(self, label: str) -> List[Dict[str, object]]:
        """Journalled, unreleased capacity claims for one plan label."""
        released = {
            int(r.payload["request"])  # type: ignore[arg-type]
            for r in self.records
            if r.kind == "release" and "request" in r.payload
        }
        return [
            dict(r.payload)
            for r in self.records
            if r.kind == "reservation"
            and r.payload.get("label") == label
            and int(r.payload.get("request", -1)) not in released  # type: ignore[arg-type]
        ]

    # -- checkpoint/restore folds ----------------------------------------------------

    def committed_checkpoints(
        self, job_id: str, before: Optional[float] = None
    ) -> List[Dict[str, object]]:
        """Every *committed* checkpoint generation for ``job_id``.

        A generation counts only when its ``checkpoint-commit`` record
        exists (an intent alone means the images may be partial).  With
        ``before`` set, generations committed after that time are
        excluded — they did not exist yet when the failure struck.
        Returned in commit order (oldest first); pure fold.
        """
        commits = []
        for record in self.records:
            if record.kind != "checkpoint-commit":
                continue
            if record.payload.get("job") != job_id:
                continue
            if before is not None and record.time > before:
                continue
            commits.append(dict(record.payload, committed_at=record.time))
        return commits

    def last_committed_checkpoint(
        self, job_id: str, before: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """The newest restorable generation for ``job_id`` (or None).

        "Newest" by consistency point, which matches commit order since
        generations commit sequentially per job.  This is the RPO bound:
        a restore never resurrects state older than this generation.
        """
        commits = self.committed_checkpoints(job_id, before=before)
        if not commits:
            return None
        return max(commits, key=lambda p: float(p.get("consistency_at", 0.0)))

    def restore_commit_for(
        self, incident_id: int, job_id: str
    ) -> Optional[Dict[str, object]]:
        """The journalled restore outcome for (incident, job), if any.

        A successor controller checks this before re-restoring: a commit
        means the replacement job already exists and running the action
        again would double-restore.
        """
        for record in self.records:
            if (
                record.kind == "restore-commit"
                and record.payload.get("incident") == incident_id
                and record.payload.get("job") == job_id
            ):
                return dict(record.payload)
        return None

    def uncommitted_restores(self, incident_id: int) -> List[Dict[str, object]]:
        """Restore intents of this incident with no matching commit.

        Each is a restore a dead controller started: either nothing was
        booted (the successor re-runs it) or the replacement job is
        already up and only the commit record is missing (the successor
        reconciles it) — it must decide which by inspecting the fleet.
        """
        committed = {
            record.payload.get("job")
            for record in self.records
            if record.kind == "restore-commit"
            and record.payload.get("incident") == incident_id
        }
        out: List[Dict[str, object]] = []
        seen = set()
        for record in self.records:
            if (
                record.kind == "restore-intent"
                and record.payload.get("incident") == incident_id
                and record.payload.get("job") not in committed
                and record.payload.get("job") not in seen
            ):
                seen.add(record.payload.get("job"))
                out.append(dict(record.payload))
        return out

    # -- (de)serialisation ----------------------------------------------------------

    def dumps(self) -> str:
        return "\n".join(
            json.dumps(r.to_dict(), sort_keys=True) for r in self.records
        )

    @classmethod
    def loads(cls, text: str, env: Optional["Environment"] = None) -> "MigrationJournal":
        journal = cls(env=env)
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = JournalRecord.from_dict(json.loads(line))
            journal.records.append(record)
            journal._seq = max(journal._seq, record.seq + 1)
            id_kind = _ID_RECORDS.get(record.kind)
            if id_kind is not None:
                journal._ids[id_kind] = max(
                    journal._ids.get(id_kind, 0), int(record.payload[id_kind])  # type: ignore[arg-type]
                )
            if record.kind == "begin" and "@" in record.mid:
                try:
                    journal._mids = max(journal._mids, int(record.mid.rsplit("@", 1)[1]))
                except ValueError:
                    pass
        return journal

    @classmethod
    def load(cls, path: str, env: Optional["Environment"] = None) -> "MigrationJournal":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read(), env=env)
