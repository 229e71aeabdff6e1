"""Recorder semantics on real simulated runs."""

from __future__ import annotations

from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.verify import EventLog, Recorder
from repro.verify.events import DELIVER, SEND


def run_simple(seed: int = 7):
    recorder = Recorder()
    grid = (
        GridBuilder(seed=seed)
        .add_machine("RM1", nodes=8)
        .add_machine("RM2", nodes=8)
        .with_monitors(recorder)
        .build()
    )
    duroc = grid.duroc()
    request = CoAllocationRequest([
        SubjobSpec("RM1:gatekeeper", 2, DEFAULT_EXECUTABLE,
                   start_type=SubjobType.REQUIRED),
        SubjobSpec("RM2:gatekeeper", 2, DEFAULT_EXECUTABLE,
                   start_type=SubjobType.REQUIRED),
    ])

    def agent(env):
        result = yield from duroc.run(request)
        return result

    grid.run(grid.process(agent(grid.env)))
    return grid, duroc, recorder


def test_recorder_attaches_and_observes():
    grid, duroc, recorder = run_simple()
    assert grid.recorder is recorder
    assert recorder.env is grid.env
    assert len(recorder.events) > 0
    kinds = {event.kind for event in recorder.events}
    assert {"send", "deliver", "event", "access"} <= kinds


def test_sends_stamp_vclocks_and_deliveries_link_back():
    _, _, recorder = run_simple()
    log = EventLog(recorder.events)
    sends = {e.attrs["msg_id"]: e for e in log.of_kind(SEND)}
    delivers = log.of_kind(DELIVER)
    assert delivers, "no deliveries recorded"
    for deliver in delivers:
        send = sends[deliver.attrs["msg_id"]]
        assert deliver.link == send.seq
        assert log.happens_before(send, deliver)
        assert not log.happens_before(deliver, send)


def test_duroc_locus_unifies_job_endpoints():
    _, duroc, recorder = run_simple()
    job = duroc.jobs[0]
    locus = f"{job.job_id}@{duroc.host}"
    assert recorder.node_of(job.port.endpoint) == locus
    # GRAM state callbacks arrive on the job's own port, on its locus.
    callbacks = [
        e for e in recorder.events
        if e.kind == DELIVER and e.name == "gram.callback"
    ]
    assert callbacks
    assert {e.attrs["dst"] for e in callbacks} == {str(job.port.endpoint)}
    assert {e.node for e in callbacks} == {locus}
    # Commit/state probes and barrier accesses land on that locus.
    nodes = {e.node for e in recorder.events if e.name == "duroc.commit"}
    assert nodes == {locus}


def test_program_order_chains_per_node():
    _, _, recorder = run_simple()
    last_seen: dict[str, int] = {}
    for event in recorder.events:
        if event.kind == "drop":
            continue
        assert event.prev == last_seen.get(event.node)
        last_seen[event.node] = event.seq


def test_seq_and_time_monotone():
    _, _, recorder = run_simple()
    seqs = [e.seq for e in recorder.events]
    assert seqs == list(range(1, len(seqs) + 1))
    times = [e.time for e in recorder.events]
    assert times == sorted(times)


def test_witness_paths_are_connected():
    _, _, recorder = run_simple()
    log = EventLog(recorder.events)
    target = log.of_kind(DELIVER)[-1]
    path = log.witness_path(target)
    assert path[-1] is target
    assert len(path) >= 2
    for earlier, later in zip(path, path[1:]):
        assert later.prev == earlier.seq or later.link == earlier.seq
        assert log.happens_before(earlier, later)


def test_indexed_queries_match_a_scan_of_the_log():
    _, _, recorder = run_simple()
    log = EventLog(recorder.events)
    names = {e.name for e in log}
    kinds = {e.kind for e in log}
    assert len(names) > 5 and len(kinds) >= 4
    for name in names | {"no.such.event"}:
        assert log.named(name) == [e for e in log if e.name == name]
        for kind in kinds:
            assert log.named(name, kind=kind) == [
                e for e in log if e.name == name and e.kind == kind
            ]
    for kind in kinds | {"no-such-kind"}:
        assert log.of_kind(kind) == [e for e in log if e.kind == kind]
    released = log.named("duroc.state", state="released")
    assert released == [
        e for e in log
        if e.name == "duroc.state" and e.attrs.get("state") == "released"
    ] != []
