"""Tripwire, as counts: what a co-allocation request costs the kernel.

A live request owns one port and two kernel processes — its receive
loop (check-ins and GRAM callbacks) and its submission driver — and
nothing per subjob: a subjob's check-in deadline is a kernel timer, not
a watchdog process racing ``timer | kick``.  A blocked ``commit()`` or
``wait_done()`` is woken only when what it waits for holds, so an agent
resumes once for each, however many subjobs report in between.

Run on a fixed grid: four concurrent eight-subjob requests.
"""

from repro.core import CoAllocationRequest, RequestState
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.simcore import events

SITES = 8
REQUESTS = 4
COUNTS = (1, 1, 2, 2, 2, 2, 3, 3)

#: ``env.queue.stats()["pops"]`` for the run below; 2 323 when every
#: subjob had a watchdog process and every request a callback listener.
EVENTS_PROCESSED = 1983
#: The drained run's final clock, the same as in that design.
ENDS_AT = 11.476000000000003


def request_text(shift):
    return "+" + "".join(
        f"(&(resourceManagerContact=RM{(k + shift) % SITES + 1}:gatekeeper)"
        f"(count={count})(executable={DEFAULT_EXECUTABLE})"
        f"(subjobStartType=required))"
        for k, count in enumerate(COUNTS)
    )


def counted(generator, resumes):
    """Drive ``generator``, counting the events it suspends on."""
    value = None
    while True:
        try:
            event = generator.send(value)
        except StopIteration as stop:
            return stop.value
        resumes[0] += 1
        value = yield event


def run_footprint(monkeypatch):
    built = []
    init = events.Condition.__init__

    def condition_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(events.Condition, "__init__", condition_init)

    grid = GridBuilder(seed=42).add_machines("RM", SITES, nodes=64).build()
    env, network = grid.env, grid.network
    made = []
    spawn = env.process

    def process(generator, name=None):
        made.append(spawn(generator, name))
        return made[-1]

    monkeypatch.setattr(env, "process", process)
    bound = []
    bind = network.bind

    def binding(endpoint):
        bound.append(endpoint)
        return bind(endpoint)

    monkeypatch.setattr(network, "bind", binding)

    duroc = grid.duroc()
    resumes = {}
    live_at_commit = {}

    def agent(index):
        job = duroc.submit(CoAllocationRequest.from_rsl(request_text(index)))
        count = resumes[job.job_id] = [0]
        yield from counted(job.commit(), count)
        live_at_commit[job.job_id] = sorted(
            p.name for p in made
            if p.is_alive and p.name.startswith(f"{job.job_id}:")
        )
        yield from counted(job.wait_done(), count)

    for index in range(REQUESTS):
        grid.process(agent(index))
    grid.run()
    return grid, duroc, made, bound, built, resumes, live_at_commit


def test_a_request_costs_two_processes_one_port_and_nothing_per_subjob(monkeypatch):
    grid, duroc, made, bound, built, resumes, live_at_commit = run_footprint(
        monkeypatch
    )
    jobs = duroc.jobs
    assert [job.state for job in jobs] == [RequestState.DONE] * REQUESTS
    assert all(len(job.slots) == len(COUNTS) for job in jobs)

    # Two processes per request, whatever its subjob count...
    for job in jobs:
        names = sorted(p.name for p in made if p.name.startswith(f"{job.job_id}:"))
        assert names == [f"{job.job_id}:drive", f"{job.job_id}:listen"]
        assert live_at_commit[job.job_id] == names

    # ...and one port: every other binding on the co-allocator's host is
    # an RPC reply port, closed when its call concluded.
    ports = {job.port.endpoint for job in jobs}
    on_host = [endpoint for endpoint in bound if endpoint.host == duroc.host]
    assert ports <= set(on_host)
    replies = [endpoint for endpoint in on_host if endpoint not in ports]
    assert all(endpoint.port.startswith("gram.") for endpoint in replies)
    assert {
        endpoint for endpoint in grid.network._mailboxes if endpoint.host == duroc.host
    } == ports

    # No event is composed: the only Conditions are the GRAM job
    # managers' joins over their processes' exits, one per GRAM job.
    assert built.count("Condition") == 0
    assert built.count("AllOf") == REQUESTS * len(COUNTS)
    assert set(built) <= {"AllOf"}

    # A waiter is woken when its condition holds: once for the commit,
    # once for wait_done.
    assert all(count[0] <= 2 for count in resumes.values()), resumes

    assert grid.env.queue.stats()["pops"] == EVENTS_PROCESSED
    assert grid.env.now == ENDS_AT
