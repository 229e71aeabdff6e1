"""Monitor rules: synthetic logs per rule, plus an injected real bug."""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis.framework import Severity
from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.verify import EventLog, ProtoEvent, Recorder, RunContext, VClock, evaluate
from repro.verify.events import ACCESS, DELIVER, EVENT, SEND
from repro.verify.monitors import (
    EventQueueMonitor,
    RaceMonitor,
    TwoPhaseCommitMonitor,
    all_monitors,
)

CTX = RunContext(run_id="synthetic", queue_exhausted=True)


def ev(
    seq: int,
    node: str,
    kind: str,
    name: str,
    clock: dict[str, int],
    attrs: Optional[dict[str, Any]] = None,
    prev: Optional[int] = None,
    link: Optional[int] = None,
    time: float = 0.0,
) -> ProtoEvent:
    return ProtoEvent(
        seq=seq, time=time, node=node, kind=kind, name=name,
        clock=VClock(clock), attrs=attrs or {}, prev=prev, link=link,
    )


def rules_of(findings):
    return {f.rule for f in findings}


# -- hb-race -----------------------------------------------------------------

def test_race_on_concurrent_cross_locus_writes():
    log = EventLog([
        ev(1, "A", ACCESS, "barrier:1", {"A": 1}, {"mode": "w"}),
        ev(2, "B", ACCESS, "barrier:1", {"B": 1}, {"mode": "w"}),
    ])
    findings = list(RaceMonitor().check(log, CTX))
    assert rules_of(findings) == {"hb-race"}


def test_no_race_when_ordered_or_same_locus_or_read_only():
    ordered = EventLog([
        ev(1, "A", ACCESS, "barrier:1", {"A": 1}, {"mode": "w"}),
        ev(2, "B", ACCESS, "barrier:1", {"A": 1, "B": 1}, {"mode": "w"}),
    ])
    same_locus = EventLog([
        ev(1, "A", ACCESS, "barrier:1", {"A": 1}, {"mode": "w"}),
        ev(2, "A", ACCESS, "barrier:1", {"A": 2}, {"mode": "w"}, prev=1),
    ])
    read_only = EventLog([
        ev(1, "A", ACCESS, "barrier:1", {"A": 1}, {"mode": "r"}),
        ev(2, "B", ACCESS, "barrier:1", {"B": 1}, {"mode": "r"}),
    ])
    for log in (ordered, same_locus, read_only):
        assert list(RaceMonitor().check(log, CTX)) == []


# -- tpc-release-before-commit ----------------------------------------------

def test_release_without_commit_flagged():
    log = EventLog([
        ev(1, "j1@client", ACCESS, "barrier:1", {"j1@client": 1},
           {"mode": "w", "op": "release"}),
    ])
    findings = list(TwoPhaseCommitMonitor().check(log, CTX))
    assert "tpc-release-before-commit" in rules_of(findings)


def test_release_after_commit_clean():
    log = EventLog([
        ev(1, "j1@client", EVENT, "duroc.commit", {"j1@client": 1}),
        ev(2, "j1@client", ACCESS, "barrier:1", {"j1@client": 2},
           {"mode": "w", "op": "release"}, prev=1),
    ])
    findings = list(TwoPhaseCommitMonitor().check(log, CTX))
    assert "tpc-release-before-commit" not in rules_of(findings)


def test_concurrent_commit_on_other_job_does_not_count():
    log = EventLog([
        ev(1, "j2@client", EVENT, "duroc.commit", {"j2@client": 1}),
        ev(2, "j1@client", ACCESS, "barrier:1", {"j1@client": 1},
           {"mode": "w", "op": "release"}),
    ])
    findings = list(TwoPhaseCommitMonitor().check(log, CTX))
    assert "tpc-release-before-commit" in rules_of(findings)


# -- tpc-atomic-* ------------------------------------------------------------

def test_atomic_partial_commit_flagged():
    node = "j1@client"
    log = EventLog([
        ev(1, node, EVENT, "duroc.atomic", {node: 1}),
        ev(2, node, EVENT, "duroc.slot.failed", {node: 2},
           {"slot": 0, "released": False}, prev=1),
        ev(3, node, EVENT, "duroc.state", {node: 3},
           {"state": "released"}, prev=2),
    ])
    findings = list(TwoPhaseCommitMonitor().check(log, CTX))
    assert "tpc-atomic-partial-commit" in rules_of(findings)


def test_atomic_post_release_failure_is_legal():
    node = "j1@client"
    log = EventLog([
        ev(1, node, EVENT, "duroc.atomic", {node: 1}),
        ev(2, node, EVENT, "duroc.state", {node: 2},
           {"state": "released"}, prev=1),
        ev(3, node, EVENT, "duroc.slot.failed", {node: 3},
           {"slot": 0, "released": True}, prev=2),
    ])
    findings = list(TwoPhaseCommitMonitor().check(log, CTX))
    assert "tpc-atomic-partial-commit" not in rules_of(findings)


def test_atomic_orphan_flagged_and_cancel_clears_it():
    node = "j1@client"
    base = [
        ev(1, node, EVENT, "duroc.atomic", {node: 1}),
        ev(2, node, EVENT, "duroc.slot.state", {node: 2},
           {"slot": 0, "state": "submitted"}, prev=1),
        ev(3, node, EVENT, "duroc.abort.decision", {node: 3},
           {"origin": "subjob-failure", "subjob": 1,
            "blame_start_type": "required"}, prev=2),
    ]
    orphaned = EventLog(base)
    findings = list(TwoPhaseCommitMonitor().check(orphaned, CTX))
    assert "tpc-atomic-orphan" in rules_of(findings)

    cancelled = EventLog(base + [
        ev(4, node, EVENT, "duroc.cancel", {node: 4},
           {"slot": 0, "gram": True}, prev=3),
    ])
    findings = list(TwoPhaseCommitMonitor().check(cancelled, CTX))
    assert "tpc-atomic-orphan" not in rules_of(findings)


# -- tpc-abort-on-optional ----------------------------------------------------

def test_abort_blaming_optional_flagged():
    log = EventLog([
        ev(1, "j1@client", EVENT, "duroc.abort.decision", {"j1@client": 1},
           {"origin": "subjob-failure", "subjob": 3,
            "blame_start_type": "optional"}),
    ])
    findings = list(TwoPhaseCommitMonitor().check(log, CTX))
    assert "tpc-abort-on-optional" in rules_of(findings)


def test_abort_blaming_required_or_killed_is_legal():
    for origin, blame in (
        ("subjob-failure", "required"),
        ("kill", "optional"),
        ("empty-config", None),
    ):
        log = EventLog([
            ev(1, "j1@client", EVENT, "duroc.abort.decision",
               {"j1@client": 1},
               {"origin": origin, "subjob": 3, "blame_start_type": blame}),
        ])
        findings = list(TwoPhaseCommitMonitor().check(log, CTX))
        assert "tpc-abort-on-optional" not in rules_of(findings), origin


# -- tpc-unanswered-checkin ---------------------------------------------------

def test_unanswered_checkin_flagged_only_when_queue_drained():
    events = [
        ev(1, "j1@client", DELIVER, "duroc.checkin", {"j1@client": 1},
           {"msg_id": 9, "endpoint": "RM1:app", "rank": 0}),
    ]
    log = EventLog(events)
    findings = list(TwoPhaseCommitMonitor().check(log, CTX))
    assert "tpc-unanswered-checkin" in rules_of(findings)

    pending = RunContext(run_id="synthetic", queue_exhausted=False)
    findings = list(TwoPhaseCommitMonitor().check(log, pending))
    assert "tpc-unanswered-checkin" not in rules_of(findings)


def test_answered_checkin_clean():
    log = EventLog([
        ev(1, "j1@client", DELIVER, "duroc.checkin", {"j1@client": 1},
           {"msg_id": 9, "endpoint": "RM1:app", "rank": 0}),
        ev(2, "j1@client", SEND, "duroc.release", {"j1@client": 2},
           {"msg_id": 10, "dst": "RM1:app"}, prev=1),
    ])
    findings = list(TwoPhaseCommitMonitor().check(log, CTX))
    assert "tpc-unanswered-checkin" not in rules_of(findings)


def test_uncommitted_request_reports_each_unanswered_process():
    # The agent submits and never commits: every process checks in,
    # hears nothing, and gives up at the barrier's horizon.  The
    # monitor reads the check-in's ``endpoint`` and names each one.
    grid = (
        GridBuilder(seed=7)
        .add_machine("RM1", nodes=8)
        .add_machine("RM2", nodes=8)
        .with_monitors()
        .build()
    )
    request = CoAllocationRequest([
        SubjobSpec("RM1:gatekeeper", 2, DEFAULT_EXECUTABLE),
        SubjobSpec("RM2:gatekeeper", 1, DEFAULT_EXECUTABLE),
    ])
    grid.duroc().submit(request)
    grid.run()
    log = EventLog(grid.recorder.events)
    ctx = RunContext(run_id="uncommitted", queue_exhausted=grid.recorder.queue_exhausted)
    findings = evaluate(all_monitors(), log, ctx)
    unanswered = [f for f in findings if f.rule == "tpc-unanswered-checkin"]
    abandoned = [f for f in findings if f.rule == "dl-barrier-abandoned"]
    checkins = {e.attrs["endpoint"] for e in log.named("duroc.checkin", kind=DELIVER)}
    assert len(checkins) == 3 and len(unanswered) == 3 and len(abandoned) == 3
    assert all(any(ep in f.message for ep in checkins) for f in unanswered)


# -- tpc-dup-checkin ----------------------------------------------------------

def test_double_applied_checkin_flagged():
    node = "j1@client"
    log = EventLog([
        ev(1, node, ACCESS, "barrier:1", {node: 1},
           {"mode": "w", "op": "record", "rank": 0, "applied": True}),
        ev(2, node, ACCESS, "barrier:1", {node: 2},
           {"mode": "w", "op": "record", "rank": 0, "applied": True},
           prev=1),
    ])
    findings = list(TwoPhaseCommitMonitor().check(log, CTX))
    assert "tpc-dup-checkin" in rules_of(findings)


def test_idempotent_duplicate_clean():
    node = "j1@client"
    log = EventLog([
        ev(1, node, ACCESS, "barrier:1", {node: 1},
           {"mode": "w", "op": "record", "rank": 0, "applied": True}),
        ev(2, node, ACCESS, "barrier:1", {node: 2},
           {"mode": "w", "op": "record", "rank": 0, "applied": False},
           prev=1),
        ev(3, node, ACCESS, "barrier:1", {node: 3},
           {"mode": "w", "op": "record", "rank": 1, "applied": True},
           prev=2),
    ])
    assert list(TwoPhaseCommitMonitor().check(log, CTX)) == []


# -- dl-* ---------------------------------------------------------------------

def test_clock_regression_flagged():
    log = EventLog([
        ev(1, "A", EVENT, "x", {"A": 1}, time=5.0),
        ev(2, "A", EVENT, "y", {"A": 2}, prev=1, time=4.0),
    ])
    findings = list(EventQueueMonitor().check(log, CTX))
    assert "dl-clock-regression" in rules_of(findings)


def test_commit_stalled_needs_drained_queue():
    node = "j1@client"
    log = EventLog([
        ev(1, node, EVENT, "duroc.state", {node: 1}, {"state": "committing"}),
    ])
    findings = list(EventQueueMonitor().check(log, CTX))
    assert "dl-commit-stalled" in rules_of(findings)

    pending = RunContext(run_id="synthetic", queue_exhausted=False)
    assert list(EventQueueMonitor().check(log, pending)) == []

    settled = EventLog([
        ev(1, node, EVENT, "duroc.state", {node: 1}, {"state": "committing"}),
        ev(2, node, EVENT, "duroc.state", {node: 2}, {"state": "released"},
           prev=1),
    ])
    assert list(EventQueueMonitor().check(settled, CTX)) == []

    # Only a later settling state on the *same* request counts.
    other = "j2@client"
    elsewhere = EventLog([
        ev(1, node, EVENT, "duroc.state", {node: 1}, {"state": "aborted"}),
        ev(2, node, EVENT, "duroc.state", {node: 2}, {"state": "committing"},
           prev=1),
        ev(3, other, EVENT, "duroc.state", {other: 1}, {"state": "committing"}),
        ev(4, other, EVENT, "duroc.state", {other: 2}, {"state": "released"},
           prev=3),
    ])
    findings = list(EventQueueMonitor().check(elsewhere, CTX))
    assert [f.rule for f in findings] == ["dl-commit-stalled"]
    assert f"request on {node} " in findings[0].message


def test_barrier_abandoned_is_warning():
    log = EventLog([
        ev(1, "RM1:app", EVENT, "barrier.abandoned", {"RM1:app": 1},
           {"slot": 1, "rank": 0}),
    ])
    findings = list(EventQueueMonitor().check(log, CTX))
    assert rules_of(findings) == {"dl-barrier-abandoned"}
    assert findings[0].severity is Severity.WARNING


# -- evaluate: select / suppress ---------------------------------------------

def test_evaluate_select_and_suppress():
    log = EventLog([
        ev(1, "j1@client", ACCESS, "barrier:1", {"j1@client": 1},
           {"mode": "w", "op": "release"}),
        ev(2, "RM1:app", EVENT, "barrier.abandoned", {"RM1:app": 1},
           {"slot": 1, "rank": 0}),
    ])
    everything = evaluate(all_monitors(), log, CTX)
    assert {"tpc-release-before-commit", "dl-barrier-abandoned"} <= rules_of(
        everything
    )
    only_tpc = evaluate(all_monitors(), log, CTX, select=["tpc"])
    assert rules_of(only_tpc) == {"tpc-release-before-commit"}
    by_monitor = evaluate(all_monitors(), log, CTX, select=["deadlock"])
    assert rules_of(by_monitor) == {"dl-barrier-abandoned"}
    suppressed = evaluate(
        all_monitors(), log, CTX, suppress=["tpc-release-before-commit"]
    )
    assert "tpc-release-before-commit" not in rules_of(suppressed)


# -- injected protocol bug over a real simulation -----------------------------

def test_injected_release_before_commit_caught_with_witness():
    """A co-allocator that releases without committing is caught, and
    the finding carries a connected happens-before witness chain."""
    recorder = Recorder()
    grid = (
        GridBuilder(seed=11)
        .add_machine("RM1", nodes=4)
        .with_monitors(recorder)
        .build()
    )
    duroc = grid.duroc()
    request = CoAllocationRequest([
        SubjobSpec("RM1:gatekeeper", 2, DEFAULT_EXECUTABLE,
                   start_type=SubjobType.REQUIRED),
    ])
    job = duroc.submit(request)

    def buggy_commit(env):
        # The injected bug: release the barrier as soon as every process
        # has arrived, WITHOUT driving the commit phase first.
        yield from job.wait(lambda j: j.checked_in_slots())
        slot = job.checked_in_slots()[0]
        configs = job.barrier.build_config([slot.slot_id])
        job.barrier.release_slot(slot.slot_id, configs[slot.slot_id])

    grid.run(grid.process(buggy_commit(grid.env)))
    grid.run(until=grid.now + 10.0)

    log = EventLog(recorder.events)
    ctx = RunContext(
        run_id="buggy", queue_exhausted=recorder.queue_exhausted
    )
    findings = evaluate(all_monitors(), log, ctx)
    offending = [f for f in findings if f.rule == "tpc-release-before-commit"]
    assert offending, findings

    finding = offending[0]
    assert finding.file == "buggy"
    assert finding.witness, "finding must carry a witness"
    # The witness is the rendering of a connected happens-before path
    # ending at the violating release access.
    target = log.get(finding.line)
    assert target is not None
    assert target.kind == ACCESS and target.attrs.get("op") == "release"
    path = log.witness_path(target)
    assert tuple(e.describe() for e in path) == finding.witness
    assert len(path) >= 2
    for earlier, later in zip(path, path[1:]):
        assert later.prev == earlier.seq or later.link == earlier.seq
        assert log.happens_before(earlier, later)
    # The chain crosses the network: it includes the check-in delivery
    # that causally precedes the premature release.
    assert any(e.kind == DELIVER and e.name == "duroc.checkin" for e in path)
