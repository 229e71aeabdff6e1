"""What a process waiting at the co-allocation barrier costs.

Every process a co-allocated job starts waits in the start-up barrier
until the co-allocator commits, so at its peak a run holds mostly
waiting processes.  One such process is a kernel process and its
generator frames, its :class:`~repro.machine.host.ProcessContext`, its
port and mailbox, the timed receive it waits in and its check-in
record, span and mark.  Measured by difference: RM1 starts 210
processes in one run and 10 in the other, while one RM2 process
overloaded ×1000 keeps every RM1 process waiting; both runs stop at
t = 60 s and the traced bytes still held are compared.  A first run
goes before both, so its imports and caches count against neither.

Before processes shared their timers' callbacks and their job's params,
a waiting process held 4 391 bytes: a context and a process record, a
reaping closure, a params dict per rank and its copy, the port's
formatted address, a callbacks list per timer, a copy of its span's
attrs and its open span.  It holds 3 340 now.
"""

import gc
import tracemalloc
import types

import pytest

from repro.core import CoAllocationRequest
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.machine.host import Machine, ProcessContext
from repro.net import network as network_module
from repro.net.message import Message
from repro.simcore import Tracer, resources
from repro.simcore.tracing import Span

FEW, MANY = 10, 210
WAIT_UNTIL = 60.0

#: Traced bytes one more waiting process may add: 18 % below the
#: 4 391 it held before.
BYTES_PER_WAITING_PROCESS = 3_600


def request_text(count):
    return (
        f"+(&(resourceManagerContact=RM1:gatekeeper)(count={count})"
        f"(executable={DEFAULT_EXECUTABLE})(subjobStartType=required))"
        f"(&(resourceManagerContact=RM2:gatekeeper)(count=1)"
        f"(executable={DEFAULT_EXECUTABLE})(subjobStartType=required))"
    )


def waiting_run(count):
    """A grid whose ``count`` RM1 processes wait at the barrier."""
    grid = (
        GridBuilder(seed=42)
        .add_machine("RM1", nodes=MANY)
        .add_machine("RM2", nodes=8)
        .build()
    )
    grid.machine("RM2").overload(1000.0)
    duroc = grid.duroc()

    def agent(env):
        job = duroc.submit(CoAllocationRequest.from_rsl(request_text(count)))
        yield from job.commit()

    grid.process(agent(grid.env))
    return grid


def traced_bytes_at_the_barrier(count):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid = waiting_run(count)
        grid.run(until=WAIT_UNTIL)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rm1 = grid.machine("RM1")
    assert rm1.process_count == count
    assert all(
        type(context.process.target).__name__ == "StoreGet"
        for context in rm1.processes.values()
    ), "every RM1 process waits in a receive"
    grid.close()
    return held


def test_a_waiting_process_costs_at_most_3600_bytes():
    traced_bytes_at_the_barrier(FEW)  # first-run imports and caches
    few = traced_bytes_at_the_barrier(FEW)
    many = traced_bytes_at_the_barrier(MANY)
    per_process = (many - few) / (MANY - FEW)
    assert per_process <= BYTES_PER_WAITING_PROCESS, (
        f"{per_process:.0f} bytes per waiting process"
    )


@pytest.fixture(scope="module")
def waiting():
    """One run stopped while its RM1 processes wait at the barrier."""
    grid = waiting_run(FEW)
    grid.run(until=WAIT_UNTIL)
    yield grid
    grid.close()


def test_the_context_is_the_process_table_entry(waiting):
    for pid, context in waiting.machine("RM1").processes.items():
        assert type(context) is ProcessContext and context.pid == pid
        assert context in context.process.callbacks


def test_every_rank_of_a_job_shares_one_read_only_params(waiting):
    contexts = list(waiting.machine("RM1").processes.values())
    params = contexts[0].params
    assert type(params) is types.MappingProxyType
    assert all(context.params is params for context in contexts)
    with pytest.raises(TypeError):
        params["duroc.slot"] = "elsewhere"


def test_an_unobserved_run_formats_no_process_port_address(waiting):
    ports = [
        port
        for context in waiting.machine("RM1").processes.values()
        for port in context.ports
    ]
    assert ports
    assert not any(hasattr(port.endpoint, "_text") for port in ports)


def test_every_live_timer_shares_its_module_callbacks(waiting):
    deadlines = [
        entry[3]
        for entry in waiting.env._heap
        if type(entry[3]) is resources._Deadline and not entry[3].cancelled
    ]
    assert len(deadlines) >= FEW
    assert all(t.callbacks is resources._EXPIRE for t in deadlines)


def test_every_message_in_flight_shares_the_delivery_callbacks():
    grid = waiting_run(FEW)
    grid.run(until=0.001)  # the submit's first messages are on the wire
    deliveries = [
        entry[3]
        for entry in grid.env._heap
        if type(entry[3]) is Message
    ]
    assert deliveries
    assert all(m.callbacks is network_module._DELIVER for m in deliveries)
    assert all(m.network is grid.network for m in deliveries)
    grid.close()


def test_spawning_a_jobs_ranks_creates_no_function(monkeypatch):
    grid = GridBuilder(seed=42).add_machine("RM1", nodes=8).build()
    machine = grid.machine("RM1")
    made = []
    spawn = Machine.spawn

    def counting_spawn(self, *args, **kwargs):
        gc.collect()
        gc.disable()
        try:
            before = sum(
                1 for obj in gc.get_objects() if type(obj) is types.FunctionType
            )
            context = spawn(self, *args, **kwargs)
            made.append(
                sum(1 for obj in gc.get_objects() if type(obj) is types.FunctionType)
                - before
            )
        finally:
            gc.enable()
        return context

    monkeypatch.setattr(Machine, "spawn", counting_spawn)

    def program(ctx):
        yield ctx.env.timeout(1.0)

    for rank in range(3):
        machine.spawn(program, executable="app", rank=rank, count=3)
    grid.run()
    # The program's generator is made per rank; no closure beside it.
    assert made == [0, 0, 0]
    grid.close()


def test_a_closed_span_keeps_its_open_spans_attrs():
    grid = GridBuilder(seed=1).add_machine("RM1", nodes=1).build()
    tracer = Tracer(grid.env)
    open_span = tracer.span("work", site="RM1")
    attrs = open_span.attrs
    open_span.finish(ok=True)
    (span,) = tracer.spans
    assert type(span) is Span and span.attrs is attrs
    assert attrs == {"site": "RM1", "ok": True}
    grid.close()
