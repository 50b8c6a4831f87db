"""Unit tests for the write-ahead migration journal: fold semantics,
replay idempotence, JSONL persistence, fleet-request folding, and the
one step writer."""

import pytest

from repro.errors import ControllerCrashError
from repro.recovery.journal import (
    JOURNALLED_PHASES,
    JournalRecord,
    MigrationJournal,
    MigrationSnapshot,
    TERMINAL_KINDS,
)


def _scripted_journal(committed=False, terminal=None):
    """A hand-written journal for one sequence, up to a chosen depth."""
    journal = MigrationJournal()
    mid = "fallback@1"
    journal.append(
        "begin", mid=mid, label="fallback", vms=["vm1", "vm2"],
        origin={"vm1": "ib01", "vm2": "ib02"},
        mapping={"vm1": "eth01", "vm2": "eth02"},
        tag="vf0", attach={"vm1": False, "vm2": False},
        had_attached={"vm1": True, "vm2": True}, request_checkpoint=True,
    )
    journal.append("compensation", mid=mid, action="resume-guests")
    journal.append("intent", mid=mid, phase="coordination")
    journal.append("commit", mid=mid, phase="coordination")
    journal.append("intent", mid=mid, phase="detach")
    journal.append("commit", mid=mid, phase="detach")
    journal.append("signal", mid=mid, round=1)
    journal.append("intent", mid=mid, phase="migration")
    if committed:
        journal.append("commit", mid=mid, phase="migration")
        journal.append("intent", mid=mid, phase="resume")
        journal.append("commit-point", mid=mid)
    if terminal:
        journal.append(terminal, mid=mid)
    return journal, mid


def test_snapshot_folds_identity_and_progress():
    journal, mid = _scripted_journal()
    snap = journal.snapshot(mid)
    assert snap.label == "fallback"
    assert snap.vms == ["vm1", "vm2"]
    assert snap.origin == {"vm1": "ib01", "vm2": "ib02"}
    assert snap.mapping == {"vm1": "eth01", "vm2": "eth02"}
    assert snap.had_attached == {"vm1": True, "vm2": True}
    assert snap.intents == ["coordination", "detach", "migration"]
    assert snap.commits == ["coordination", "detach"]
    assert snap.phase_reached == "migration"
    assert snap.signals == 1
    assert not snap.committed
    assert snap.unfinished
    assert snap.compensations == ["resume-guests"]


def test_commit_point_record_is_the_watershed():
    journal, mid = _scripted_journal(committed=True)
    snap = journal.snapshot(mid)
    assert snap.committed
    assert snap.signals == 2  # commit point implies both rounds delivered


@pytest.mark.parametrize("terminal", TERMINAL_KINDS)
def test_terminal_records_close_the_sequence(terminal):
    journal, mid = _scripted_journal(committed=True, terminal=terminal)
    snap = journal.snapshot(mid)
    assert snap.terminal == terminal
    assert not snap.unfinished
    assert journal.unfinished() == []


def test_replay_is_idempotent():
    """Folding the same records once, twice, or from a round-tripped
    journal yields byte-identical snapshots (pure fold)."""
    journal, mid = _scripted_journal(committed=True)
    first = journal.snapshot(mid)
    second = journal.snapshot(mid)
    assert first == second

    rebuilt = MigrationJournal.loads(journal.dumps())
    assert rebuilt.snapshot(mid) == first

    # Folding a record twice does not double-count phase progress.
    twice = MigrationSnapshot(mid=mid)
    for record in (r for r in journal.records if r.mid == mid):
        twice.apply(record)
        twice.apply(record)
    assert twice.intents == first.intents
    assert twice.commits == first.commits
    assert twice.signals == first.signals


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = MigrationJournal(path=str(path))
    journal.append("begin", mid="m@1", label="m", vms=["vm1"])
    journal.append("intent", mid="m@1", phase="detach")
    journal.close()

    loaded = MigrationJournal.load(str(path))
    assert [r.kind for r in loaded.records] == ["begin", "intent"]
    assert loaded.snapshot("m@1").phase_reached == "detach"
    # Record identity survives the trip, including seq numbers.
    assert [r.to_dict() for r in loaded.records] == [
        r.to_dict() for r in journal.records
    ]


def test_ids_are_per_journal_and_survive_a_reload(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = MigrationJournal(path=str(path))
    for _ in range(2):
        journal.append("request", request=journal.next_id("request"), job="j0")
    journal.append("incident-open", incident=journal.next_id("incident"))
    journal.close()

    assert MigrationJournal().next_id("request") == 1  # fresh run, fresh ids
    # A successor that reloads the journal continues the numbering.
    loaded = MigrationJournal.load(str(path))
    assert loaded.next_id("request") == 3
    assert loaded.next_id("incident") == 2


def test_prefix_replay_never_overstates_progress():
    """Replaying any journal prefix claims at most what the full journal
    does — the crash-at-any-record safety property."""
    journal, mid = _scripted_journal(committed=True, terminal="complete")
    full = journal.snapshot(mid)
    lines = journal.dumps().splitlines()
    for cut in range(len(lines) + 1):
        prefix = MigrationJournal.loads("\n".join(lines[:cut]))
        snap = prefix.snapshot(mid)
        assert len(snap.intents) <= len(full.intents)
        assert snap.signals <= full.signals
        assert snap.committed <= full.committed
        for phase in snap.commits:  # a commit implies its intent
            assert phase in snap.intents
        assert [p for p in snap.intents if p != "resume"] == [
            p for p in JOURNALLED_PHASES if p in snap.intents and p != "resume"
        ]


def test_request_folding_for_resubmission():
    journal = MigrationJournal()
    journal.append("request", request=1, job="j0", request_kind="spread",
                   priority=2, dst_hosts=None)
    journal.append("request", request=2, job="j1", request_kind="spread",
                   priority=0, dst_hosts=["eth01"])
    journal.append("request-started", request=1, label="spread:j0#1")
    journal.append("request-finished", request=1, status="completed")

    unfinished = journal.unfinished_requests()
    assert [s["request"] for s in unfinished] == [2]
    assert unfinished[0]["job"] == "j1"
    assert unfinished[0]["request_kind"] == "spread"
    assert unfinished[0]["dst_hosts"] == ["eth01"]


def _finish(generator):
    """Drive a generator that never yields; return its value."""
    with pytest.raises(StopIteration) as done:
        next(generator)
    return done.value.value


def _body(seen, journal, result=None):
    seen.append(("body", [r.kind for r in journal.records]))
    return result
    yield  # pragma: no cover - makes this a generator


def test_step_offers_its_sites_between_intent_and_commit():
    journal = MigrationJournal()
    seen = []

    def offer(site):
        seen.append((site, [r.kind for r in journal.records]))

    commit = _finish(journal.step(
        "restore", _body(seen, journal, {"rpo_s": 1.5}), offer=offer,
        sites=("r.intent", "r.commit"), incident=1, job="j0",
    ))
    assert seen == [
        ("r.intent", ["restore-intent"]),
        ("body", ["restore-intent"]),
        ("r.commit", ["restore-intent"]),
    ]
    assert [r.kind for r in journal.records] == ["restore-intent", "restore-commit"]
    # The commit carries the intent's payload updated with the body's.
    assert commit.payload == {"incident": 1, "job": "j0", "rpo_s": 1.5}
    assert journal.offered == [("r.intent", 1), ("r.commit", 1)]
    step = journal.fold("restore", (1, "j0"))
    assert step.commit is commit and not step.open and not step.double


def test_a_step_killed_at_a_site_leaves_its_intent_open():
    journal = MigrationJournal()

    def offer(site):
        raise ControllerCrashError(site)

    for site in ("checkpoint.intent", "checkpoint.commit"):
        sites = (site, None) if site.endswith("intent") else (None, site)
        with pytest.raises(ControllerCrashError):
            _finish(journal.step(
                "checkpoint", _body([], journal), offer=offer, sites=sites,
                job="j0", generation=len(journal.records) + 1,
            ))
    assert [s.key for s in journal.steps_of("checkpoint") if s.open] == [
        ("j0", 1), ("j0", 2),
    ]
    assert [r.kind for r in journal.records] == ["checkpoint-intent"] * 2
    assert not journal.fold("checkpoint", ("j0", 3)).intents
