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

Steps
-----

Every unit of work that can be left half done is a *step* of one kind in
:data:`STEP_KINDS`: an intent record, the work, a commit record.
:meth:`MigrationJournal.step` writes one; :meth:`MigrationJournal.fold`
answers "open?" (an intent, no commit), "committed, with what payload?"
and "committed twice?" for any (kind, key):

* ``phase``: ``intent`` / ``commit``, keyed by (mid, phase);
* ``action``: ``incident-action-intent`` / ``-commit``, by (incident,
  step): one runbook step (``action`` names it);
* ``restore``: ``restore-intent`` / ``-commit``, by (incident, job): one
  checkpoint restore (``generation``, ``hosts``; ``rpo_s``, ``rto_s``);
* ``checkpoint``: ``checkpoint-intent`` / ``-commit``, by (job,
  generation): one generation (``images``, ``consistency_at``); only a
  committed generation is ever restored from;
* ``request``: ``request`` / ``request-finished``, by request id;
* ``incident``: ``incident-open`` / ``incident-resolved``, by incident id.

The last two are folded only: no body runs between their records.

Site rule: the writer offers a step's crash sites.  The intent site fires
just *after* the intent record (an intent is a promise, not progress),
the commit site just *before* the commit record, so a controller dying
at either leaves an intent without a commit: the journal can lag the
world but never lead it.  :attr:`MigrationJournal.offered` lists every
offered site in order.

Record kinds
------------

``begin``
    A sequence opened: plan label, VM names, origin hosts, destination
    mapping, device tag, per-VM attach flags, pre-transaction HCA state.
``intent`` / ``commit``
    A phase is about to run / has finished (``phase`` field).  The
    ``resume`` intent marks the attempt to reach the commit point; it is
    written by hand, its crash site before the record.
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
``incident-action-*``, ``checkpoint-*``, ``restore-*``
    The ``action``, ``checkpoint`` and ``restore`` steps above.

Persistence is JSON Lines: one record per line, appended with an
explicit flush so a crash loses at most the record being written —
matching the append-only discipline of real write-ahead logs.  The
in-memory record list is authoritative for same-process recovery;
:meth:`MigrationJournal.load` rebuilds a journal from disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, IO, List, Optional, Tuple

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


@dataclass(frozen=True)
class StepKind:
    """One kind of step: its two record kinds and the fields of its key."""

    intent: str
    commit: str
    #: Key fields: ``mid`` / ``phase`` are record fields, the rest payload.
    key: Tuple[str, ...]
    #: Every intent must be committed (else the checker's ``open-<kind>``).
    must_close: bool = False
    #: A key commits at most once (else the checker's ``double-<kind>``).
    once: bool = False


#: Step kind → its records and key (see the module docstring).  An open
#: phase is judged per sequence (``open-sequence``), and an open
#: checkpoint is a generation that simply never happened.
STEP_KINDS: Dict[str, StepKind] = {
    "phase": StepKind("intent", "commit", ("mid", "phase")),
    "action": StepKind(
        "incident-action-intent", "incident-action-commit", ("incident", "step"),
        must_close=True, once=True,
    ),
    "restore": StepKind(
        "restore-intent", "restore-commit", ("incident", "job"),
        must_close=True, once=True,
    ),
    "checkpoint": StepKind("checkpoint-intent", "checkpoint-commit", ("job", "generation")),
    "request": StepKind("request", "request-finished", ("request",), must_close=True),
    "incident": StepKind(
        "incident-open", "incident-resolved", ("incident",), must_close=True
    ),
}

#: Record kind → (step kind, whether the record is the commit).
_STEP_RECORDS = {
    record: (kind, record == spec.commit)
    for kind, spec in STEP_KINDS.items()
    for record in (spec.intent, spec.commit)
}

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


@dataclass
class Step:
    """The fold of one (kind, key) step: its intents and commits."""

    #: The key field's value, or a tuple of them for a multi-field key.
    key: object
    intents: List[JournalRecord] = field(default_factory=list)
    commits: List[JournalRecord] = field(default_factory=list)

    @property
    def open(self) -> bool:
        """An intent with no commit."""
        return bool(self.intents) and not self.commits

    @property
    def commit(self) -> Optional[JournalRecord]:
        """The first commit record (None while uncommitted)."""
        return self.commits[0] if self.commits else None

    @property
    def double(self) -> bool:
        """Committed more than once."""
        return len(self.commits) > 1


class MigrationJournal:
    """Append-only journal, in memory and optionally on disk (JSONL).

    ``records`` grows only through :meth:`append` and :meth:`loads`,
    which also keep the per-mid index and the step fold current.
    """

    def __init__(
        self, path: Optional[str] = None, env: Optional["Environment"] = None
    ) -> None:
        self.path = path
        self.env = env
        self.records: List[JournalRecord] = []
        #: (site, records written so far) for every site :meth:`step`
        #: offered, in order.
        self.offered: List[Tuple[str, int]] = []
        self._by_mid: Dict[str, List[JournalRecord]] = {}
        #: Mids with a ``begin`` record, in open order (values unused).
        self._opened: Dict[str, None] = {}
        self._steps: Dict[str, Dict[object, Step]] = {kind: {} for kind in STEP_KINDS}
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
        self._index(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            self._fh.flush()
        return record

    def _index(self, record: JournalRecord) -> None:
        self.records.append(record)
        if record.mid:
            self._by_mid.setdefault(record.mid, []).append(record)
            if record.kind == "begin":
                self._opened.setdefault(record.mid)
        step_of = _STEP_RECORDS.get(record.kind)
        if step_of is not None:
            kind, is_commit = step_of
            values = tuple(
                getattr(record, name) if name in ("mid", "phase") else record.payload.get(name)
                for name in STEP_KINDS[kind].key
            )
            key = values[0] if len(values) == 1 else values
            step = self._steps[kind].get(key)
            if step is None:
                step = self._steps[kind][key] = Step(key)
            (step.commits if is_commit else step.intents).append(record)

    def step(
        self,
        kind: str,
        body,
        *,
        offer: Callable[[str], object],
        sites: Tuple[Optional[str], Optional[str]],
        **payload: object,
    ):
        """Generator: run ``body`` (a generator) as one ``kind`` step.

        Writes the intent record (``payload``), offers the intent site,
        runs ``body``, offers the commit site and writes the commit record
        (``payload`` updated with the dict ``body`` returns); returns the
        commit record.  ``offer(site)`` is the caller's liveness check: it
        raises to kill the step and may return a generator to drive.
        ``sites`` is (intent site, commit site); ``None`` offers nothing.
        """
        spec = STEP_KINDS[kind]
        intent_site, commit_site = sites
        self.append(spec.intent, **payload)
        yield from self._offer(offer, intent_site)
        result = yield from body
        yield from self._offer(offer, commit_site)
        return self.append(spec.commit, **{**payload, **(result or {})})

    def _offer(self, offer: Callable[[str], object], site: Optional[str]):
        if site is None:
            return
        self.offered.append((site, len(self.records)))
        gate = offer(site)
        if gate is not None:
            yield from gate  # type: ignore[misc]

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
        return list(self._opened)

    def records_for(self, mid: str) -> List[JournalRecord]:
        return list(self._by_mid.get(mid, ()))

    def snapshot(self, mid: str) -> MigrationSnapshot:
        """Replay ``mid``'s records into a snapshot (pure fold: replaying
        twice — or replaying a journal rebuilt from disk — yields an
        identical snapshot)."""
        snap = MigrationSnapshot(mid=mid)
        for record in self._by_mid.get(mid, ()):
            snap.apply(record)
        return snap

    def snapshots(self) -> List[MigrationSnapshot]:
        return [self.snapshot(mid) for mid in self.migration_ids()]

    def unfinished(self) -> List[MigrationSnapshot]:
        """Sequences with no terminal record — the recovery work list."""
        return [s for s in self.snapshots() if s.unfinished]

    # -- the step fold ----------------------------------------------------------------

    def fold(self, kind: str, key: object) -> Step:
        """The ``(kind, key)`` step (empty when the journal never saw it)."""
        return self._steps[kind].get(key) or Step(key)

    def steps_of(self, kind: str) -> List[Step]:
        """Every ``kind`` step, in first-record order."""
        return list(self._steps[kind].values())

    def unfinished_requests(self) -> List[Dict[str, object]]:
        """Open fleet requests, for post-crash resubmission: each one's
        ``request`` payload plus the plan ``labels`` its attempts started."""
        labels: Dict[object, List[object]] = {}
        for r in self.records:
            if r.kind == "request-started":
                labels.setdefault(r.payload.get("request"), []).append(r.payload.get("label"))
        return [
            dict(s.intents[0].payload, labels=labels.get(s.key, []))
            for s in self.steps_of("request")
            if s.open
        ]

    def last_committed_checkpoint(
        self, job_id: str, before: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """The newest restorable generation for ``job_id`` (or None): the
        commit payload, plus ``committed_at``, with the latest consistency
        point among generations committed by ``before``.  This is the RPO
        bound: a restore never resurrects state older than this.
        """
        commits = [
            s.commit
            for s in self._steps["checkpoint"].values()
            if s.key[0] == job_id  # type: ignore[index]
            and s.commit is not None
            and (before is None or s.commit.time <= before)
        ]
        if not commits:
            return None
        newest = max(commits, key=lambda r: float(r.payload.get("consistency_at", 0.0)))  # type: ignore[arg-type]
        return dict(newest.payload, committed_at=newest.time)

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
            journal._index(record)
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
