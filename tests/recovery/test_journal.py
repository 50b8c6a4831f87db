"""Unit tests for the write-ahead migration journal: fold semantics,
replay idempotence, JSONL persistence, and fleet-request folding."""

import pytest

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
    for record in journal.records_for(mid):
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
    for cut in range(len(journal.records) + 1):
        prefix = MigrationJournal()
        prefix.records = journal.records[:cut]
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


def test_reservations_exclude_released_requests():
    journal = MigrationJournal()
    journal.append("reservation", request=1, label="spread:j0#1",
                   host="eth01", nbytes=1024, hca=None)
    journal.append("reservation", request=2, label="spread:j1#1",
                   host="eth02", nbytes=2048, hca=None)
    journal.append("release", request=1)

    live = journal.reservations_for("spread:j1#1")
    assert len(live) == 1 and live[0]["host"] == "eth02"
    assert journal.reservations_for("spread:j0#1") == []
