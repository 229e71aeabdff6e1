"""Observers read the run; none of them changes it.

Twenty concurrent eight-subjob co-allocations — the load shape of
``benchmarks/wall``'s ``coalloc_*`` workloads — under every observer
combination must produce the same per-request records, the same final
clock, the same kernel tallies and the same message count.  One more
agent drives GRAM job control — a submit with its own callback
listener, status, cancel, and a cancel the gatekeeper must refuse —
against the same gatekeepers.

The tracer is one of those observers: the load run untraced equals it
run with the builder's default tracer.  Every cheap entry of the
scenario table — Figure 1, the ``repro.prof bench`` suite, the six fault
campaigns and the traced request — run bare (untraced) and under all of
:data:`~repro.workloads.scenarios.OBSERVERS` must agree the same way,
faults included.
"""

from dataclasses import replace

import pytest

from repro.broker.base import AgentOutcome
from repro.core.coallocator import DurocJob, DurocResult
from repro.core.request import CoAllocationRequest
from repro.errors import GramError
from repro.gram import JobHandle, JobState
from repro.gridenv import CLIENT_HOST, DEFAULT_EXECUTABLE, GridBuilder
from repro.net import Endpoint, Port
from repro.obs.flightrec import FlightRecorder
from repro.prof.bench import SCENARIOS as BENCH
from repro.resilience.campaign import CAMPAIGNS
from repro.simcore.tracing import NULL_TRACER
from repro.workloads.scenarios import FIGURE1, OBSERVERS, TRACED_COALLOCATION, run

SITES = 8
REQUESTS = 20


def _monitors(builder):
    builder.with_monitors()


def _profiling(builder):
    builder.with_profiling()


def _flight_recorder(builder):
    builder.with_probe(FlightRecorder())


def _all_three(builder):
    builder.with_monitors().with_profiling().with_probe(FlightRecorder())


def idle(ctx):
    yield ctx.env.timeout(60.0)


def _run(observe, trace=True):
    builder = GridBuilder(seed=42, trace=trace).add_machines("RM", SITES, nodes=64)
    builder.program("idle", idle)
    if observe is not None:
        observe(builder)
    grid = builder.build()
    duroc = grid.duroc()
    records = [None] * REQUESTS  # + the controller's, appended

    def agent(index):
        # Each request visits the sites in its own rotation.
        request = CoAllocationRequest.from_rsl("+" + "".join(
            f"(&(resourceManagerContact=RM{(index + k) % SITES + 1}:gatekeeper)"
            f"(count={k + 1})(executable={DEFAULT_EXECUTABLE})"
            "(subjobStartType=required))"
            for k in range(SITES)
        ))
        job = duroc.submit(request)
        result = yield from job.commit()
        yield from job.wait_done()
        records[index] = (job.state.value, result.sizes, result.elapsed)

    def controller():
        # Job control goes to a gatekeeper the co-allocations load.
        gram = grid.gram_client()
        listener = Port(grid.network, Endpoint(CLIENT_HOST, "control"))
        contact = grid.site("RM1").contact
        handle = yield from gram.submit(
            contact, f"&(resourceManagerContact={contact})(count=2)(executable=idle)",
            callback=listener.endpoint,
        )
        seen = [(yield from gram.wait_for_state(handle, JobState.ACTIVE))]
        seen.append((yield from gram.cancel(handle)))
        # The listener hears every state the job passed, up to the cancel.
        heard = []
        while not heard or not heard[-1].terminal:
            heard.append((yield listener.recv()).payload["state"])
        seen.extend(heard)
        stranger = JobHandle("RM1/job0", handle.manager, handle.gatekeeper)
        try:
            yield from gram.cancel(stranger)
        except GramError as refusal:
            seen.append(refusal.payload)
        records.append((tuple(map(str, seen)), grid.now))

    for index in range(REQUESTS):
        grid.process(agent(index))
    grid.process(controller())
    grid.run()
    return grid, (
        records, grid.env.now, grid.env.queue.stats(), grid.network.sent_count
    )


@pytest.fixture(scope="module")
def bare():
    _, outcome = _run(None)
    # Every request's record, and the controller's after them.
    assert len(outcome[0]) == REQUESTS + 1
    assert all(record is not None for record in outcome[0])
    states, _ = outcome[0][-1]
    assert states == (
        "JobState.ACTIVE", "JobState.FAILED",  # the poll and the cancel's reply
        "JobState.PENDING", "JobState.ACTIVE", "JobState.FAILED",  # the callbacks
        "unknown job",  # the stranger's cancel
    )
    return outcome


def test_untraced_run_equals_traced_bare_run(bare):
    grid, outcome = _run(None, trace=False)
    assert grid.tracer is NULL_TRACER
    assert outcome == bare


@pytest.mark.parametrize(
    "observe",
    [_monitors, _profiling, _flight_recorder, _all_three],
    ids=lambda observe: observe.__name__.strip("_"),
)
def test_observed_run_equals_bare_run(observe, bare):
    grid, outcome = _run(observe)
    assert outcome == bare
    if grid.counters is not None:
        assert grid.counters.snapshot()["sim.messages_sent"] == bare[3]
    if grid.flightrec is not None:
        # Spans reach the recorder through the probe seam.
        assert grid.flightrec.pushed["span"] > 0


ENTRIES = {
    scenario.name: scenario
    for scenario in (
        FIGURE1,
        *BENCH.values(),
        *(campaign.scenario() for campaign in CAMPAIGNS.values()),
        TRACED_COALLOCATION,
    )
}


def settled(value):
    """``value`` with every live request read down to what it decided."""
    if isinstance(value, tuple):
        return tuple(map(settled, value))
    if isinstance(value, DurocJob):
        return value.state, [(slot.spec, slot.state) for slot in value.slots]
    if isinstance(value, DurocResult):
        return settled(value.job), value.sizes, value.released_at, value.elapsed
    if isinstance(value, AgentOutcome):
        return replace(value, result=None), settled(value.result)
    return value


def _observed(name, observe):
    grid, outcome = run(ENTRIES[name], 42, observe)
    return grid, (
        settled(outcome), grid.env.now, grid.env.queue.stats(), grid.network.sent_count
    )


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_observer_leaves_a_table_entry_unchanged(name):
    bare_grid, bare = _observed(name, ())
    assert bare_grid.tracer is NULL_TRACER
    grid, observed = _observed(name, OBSERVERS)
    assert observed == bare
    assert grid.counters.snapshot()["sim.messages_sent"] == bare[3]
    assert grid.recorder.events and grid.flightrec.pushed["span"] > 0
