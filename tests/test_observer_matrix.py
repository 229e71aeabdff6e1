"""Observers read the run; none of them changes it.

Twenty concurrent eight-subjob co-allocations — the load shape of
``benchmarks/wall``'s ``coalloc_*`` workloads — under every observer
combination must produce the same per-request records, the same final
clock, the same kernel tallies and the same message count.  One more
agent drives GRAM job control — status, (un)register, cancel, and a
cancel the gatekeeper must refuse — against the same gatekeepers.
"""

import pytest

from repro.core.request import CoAllocationRequest
from repro.errors import GramError
from repro.gram import JobHandle, JobState
from repro.gridenv import CLIENT_HOST, DEFAULT_EXECUTABLE, GridBuilder
from repro.net import Endpoint, Port
from repro.obs.flightrec import FlightRecorder
from repro.obs.streaming import AggregatingSink, JsonlStreamSink, TelemetryPipeline

SITES = 8
REQUESTS = 20


def _monitors(builder, tmp_path):
    builder.with_monitors()


def _profiling(builder, tmp_path):
    builder.with_profiling()


def _flight_recorder(builder, tmp_path):
    builder.with_probe(FlightRecorder())


def _all_three(builder, tmp_path):
    builder.with_monitors().with_profiling().with_probe(FlightRecorder())


def _all_three_streaming(builder, tmp_path):
    _all_three(builder, tmp_path)
    builder.with_span_sink(TelemetryPipeline(
        aggregator=AggregatingSink(),
        exporter=JsonlStreamSink(tmp_path / "stream.jsonl", buffer_size=64),
    ))


def idle(ctx):
    yield ctx.env.timeout(60.0)


def _run(observe, tmp_path):
    builder = GridBuilder(seed=42).add_machines("RM", SITES, nodes=64)
    builder.program("idle", idle)
    if observe is not None:
        observe(builder, tmp_path)
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
            contact, f"&(resourceManagerContact={contact})(count=2)(executable=idle)"
        )
        seen = [(yield from gram.wait_for_state(handle, JobState.ACTIVE))]
        seen.append((yield from gram.register_callback(handle, listener.endpoint)))
        seen.append((yield from gram.cancel(handle)))
        seen.append((yield listener.recv()).payload["state"])
        seen.append((yield from gram.unregister_callback(handle, listener.endpoint)))
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
    grid.tracer.close()
    return grid, (
        records, grid.env.now, grid.env.queue.stats(), grid.network.sent_count
    )


@pytest.fixture(scope="module")
def bare(tmp_path_factory):
    _, outcome = _run(None, tmp_path_factory.mktemp("bare"))
    assert all(record is not None for record in outcome[0])
    return outcome


@pytest.mark.parametrize(
    "observe",
    [_monitors, _profiling, _flight_recorder, _all_three, _all_three_streaming],
    ids=lambda observe: observe.__name__.strip("_"),
)
def test_observed_run_equals_bare_run(observe, bare, tmp_path):
    grid, outcome = _run(observe, tmp_path)
    assert outcome == bare
    if grid.counters is not None:
        assert grid.counters.snapshot()["sim.messages_sent"] == bare[3]
    if grid.flightrec is not None:
        # Spans reach the recorder through the probe seam, sink or no sink.
        assert grid.flightrec.rings["span"].pushed > 0
    if grid.tracer.sink is not None:
        assert grid.tracer.spans == []
        assert 0 < grid.tracer.spans_retained_high_water <= 2 * 64
