"""What a GRAM job costs its site, as counts.

A job is one kernel process (its driver) while it runs and nothing once
it has ended: job control is answered by the gatekeeper's listener, so
no job manager binds a mailbox or parks a server process, an exited
application process leaves no port behind, and the gatekeeper parses
each distinct RSL text once.  So the mailboxes and live kernel
processes a drained run leaves do not grow with the number of jobs.
Counts, not timings.
"""

import pytest

import repro.gram.gatekeeper as gatekeeper_module
from repro.core.request import CoAllocationRequest
from repro.errors import GramError
from repro.gram import GramClient, JobState, Site
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.net import Endpoint, Network, Port
from repro.simcore import Environment

from .conftest import drive, rsl_for, sleeper_program


def track_processes(env):
    """Every process ``env`` starts from now on, in creation order."""
    made = []
    spawn = env.process

    def process(generator, name=None):
        made.append(spawn(generator, name))
        return made[-1]

    env.process = process
    return made


def live(made):
    return sorted(process.name for process in made if process.is_alive)


def binder_program(ctx):
    """An application process with a mailbox of its own."""
    port = ctx.port("app")
    assert ctx.machine.network.is_bound(port.endpoint)
    yield ctx.env.timeout(0.5)
    if ctx.rank:
        raise RuntimeError("application bug")


# -- (a) the footprint does not grow with the number of jobs ------------------


def gram_footprint(ca, jobs):
    """Run ``jobs`` two-process jobs (each ends FAILED: rank 1 raises) and
    as many DONE ones on one site; what is left when the run has drained."""
    env = Environment()
    made = track_processes(env)
    net = Network(env)
    net.add_host("workstation")
    programs = {"binder": binder_program, "quick": sleeper_program(0.0)}
    site = Site(env, net, "origin", nodes=64, ca=ca, programs=programs)
    site.authorize("alice")
    client = GramClient(net, "workstation", ca.issue("alice"))
    handles = []

    def scenario(env):
        for _ in range(jobs):
            for executable, count in (("binder", 2), ("quick", 1)):
                handles.append((yield from client.submit(
                    site.contact, rsl_for(site.contact, count, executable)
                )))
        yield env.timeout(5.0)
        yield from client.site_status(site.gatekeeper.endpoint, handles)

    drive(env, scenario(env))
    env.run()
    states = sorted({handle.state for handle in handles}, key=lambda s: s.value)
    assert states == [JobState.DONE, JobState.FAILED]
    assert site.machine.process_count == 0
    return made, net, handles


def test_ended_jobs_leave_no_mailbox_and_no_process(ca):
    few_made, few_net, _ = gram_footprint(ca, 2)
    many_made, many_net, handles = gram_footprint(ca, 9)
    assert len(many_made) > len(few_made)

    # What stays is the site's, not any job's: the gatekeeper and its listener.
    assert live(many_made) == live(few_made) == ["gk:origin"]
    assert sorted(map(str, many_net._mailboxes)) == ["origin:gatekeeper"]
    assert len(few_net._mailboxes) == 1
    # A job manager is an address on its callbacks, never a binding or a server.
    names = {process.name.split(":")[0] for process in many_made}
    assert "jm" in names and "jm-serve" not in names
    assert not any(many_net.is_bound(handle.manager) for handle in handles)
    assert len({handle.manager for handle in handles}) == len(handles)


def duroc_footprint(subjobs):
    """Two co-allocations of ``subjobs`` subjobs each, drained."""
    builder = GridBuilder(seed=42).add_machines("RM", subjobs, nodes=64)
    grid = builder.build()
    made = track_processes(grid.env)
    duroc = grid.duroc()
    text = "+" + "".join(
        f"(&(resourceManagerContact=RM{k + 1}:gatekeeper)(count={k + 1})"
        f"(executable={DEFAULT_EXECUTABLE})(subjobStartType=required))"
        for k in range(subjobs)
    )

    def agent():
        job = duroc.submit(CoAllocationRequest.from_rsl(text))
        yield from job.commit()
        yield from job.wait_done()

    for _ in range(2):
        grid.process(agent())
    grid.run()
    # The sites' own gatekeeper mailboxes aside.
    return made, len(grid.network._mailboxes) - subjobs, duroc


def test_a_drained_co_allocation_keeps_nothing_per_subjob():
    few_made, few_boxes, few_duroc = duroc_footprint(2)
    many_made, many_boxes, many_duroc = duroc_footprint(7)
    assert len(many_made) > len(few_made)
    # Per request, not per GRAM job or application process.
    assert live(many_made) == live(few_made)
    assert many_boxes == few_boxes
    assert few_duroc._watched == many_duroc._watched == {}


# -- (b) one parse per distinct text -------------------------------------------


@pytest.fixture
def parses(monkeypatch):
    """Texts the gatekeeper hands to ``repro.rsl.parser.parse``, in order."""
    texts = []
    parse = gatekeeper_module.parse

    def counting(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(gatekeeper_module, "parse", counting)
    return texts


def test_a_gatekeeper_parses_each_distinct_text_once(env, site, client, parses):
    texts = [rsl_for(site.contact, count, "quick") for count in (1, 2, 3, 4)]

    def scenario(env):
        for index in range(64):
            yield from client.submit(site.contact, texts[index % 4])

    drive(env, scenario(env))
    assert parses == texts
    assert len(site.gatekeeper.job_managers) == 64
    # The other 60 were served from the table.
    specs = site.gatekeeper._specs.cache_info()
    assert (specs.hits, specs.misses, specs.currsize) == (60, 4, 4)


@pytest.mark.parametrize(
    "text", ["&(count=1)(executable=quick", "&(count=1)", "&(count=0)(executable=quick)"],
    ids=["syntax", "no-executable", "bad-count"],
)
def test_a_refused_text_is_parsed_and_refused_every_time(env, site, client, parses, text):
    def scenario(env):
        for _ in range(3):
            with pytest.raises(GramError, match="refused"):
                yield from client.submit(site.contact, text)

    drive(env, scenario(env))
    assert parses == [text] * 3
    assert site.gatekeeper._specs.cache_info().currsize == 0
    assert not site.gatekeeper.job_managers


def test_jobs_built_from_one_parsed_spec_share_no_mutable_state(env, site, client, parses):
    text = rsl_for(
        site.contact, executable="quick",
        extra="(arguments=alpha 2)(environment=(MODE fast))",
    )

    def scenario(env):
        first = yield from client.submit(site.contact, text, params={"who": "first"})
        second = yield from client.submit(site.contact, text, params={"who": "second"})
        return first, second

    first, second = (
        site.gatekeeper.job_managers[handle.job_id].job
        for handle in drive(env, scenario(env))
    )
    assert parses == [text]
    assert first.params == {"who": "first", "MODE": "fast"}
    assert second.params == {"who": "second", "MODE": "fast"}
    first.params["MODE"] = "slow"
    assert second.params["MODE"] == "fast"
    assert first.arguments == second.arguments == ("alpha", 2)
    assert isinstance(first.arguments, tuple)
    # The shared tree cannot be edited through what it hands out.
    with pytest.raises(TypeError):
        site.gatekeeper._specs(text).relations()["count"] = None


# -- (c) the same-instant rule, through the gatekeeper --------------------------


def obedient_program(ctx):
    """Runs until told to stop, then exits cleanly."""
    yield ctx.port("app").recv()


def test_a_cancel_landing_as_the_last_process_exits_still_reads_done(
    env, net, site, client
):
    """The ABORT/``gram.cancel`` race of ``tests/core/test_abort_race.py``
    at the GRAM level: the processes are told to stop and their job is
    cancelled in one instant.  The cancel reaches the gatekeeper after
    the exits and before the driver has said DONE, and kills nothing."""
    site.gatekeeper.programs["obedient"] = obedient_program
    teller = Port(net, Endpoint("workstation", "teller"))
    seen = []

    def scenario(env):
        handle = yield from client.submit(
            site.contact, rsl_for(site.contact, 3, "obedient")
        )
        yield from client.wait_for_state(handle, JobState.ACTIVE)
        manager = site.gatekeeper.job_managers[handle.job_id]
        cancel = manager.cancel
        manager.cancel = lambda reason: (
            seen.append((manager.job.state, manager._exits.triggered)), cancel(reason)
        )
        sent_at = env.now
        for pid in manager.job.pids:
            teller.send(Endpoint(site.name, f"app.pid{pid}"), "stop")
        acked = yield from client.cancel(handle)
        return manager.job, sent_at, acked

    job, sent_at, acked = drive(env, scenario(env))
    # The cancel found every process gone and the driver not yet resumed...
    assert seen == [(JobState.ACTIVE, True)]
    assert acked is JobState.ACTIVE
    # ...in the instant the driver then closed the job in, as DONE.
    assert (job.state, job.failure_reason) == (JobState.DONE, None)
    assert job.finished_at == sent_at + net.latency_model.latency("workstation", site.name)
    env.run()
    assert site.scheduler.free == site.nodes


# -- (d) callbacks, to the one listener the submit named ------------------------


def test_a_job_calls_back_the_listener_its_submit_named(env, net, site, client):
    # A bare port, so the callbacks themselves can be read afterwards.
    listener = Port(net, Endpoint("workstation", "listener"))

    def scenario(env):
        handle = yield from client.submit(
            site.contact, rsl_for(site.contact), callback=listener.endpoint
        )
        yield from client.wait_for_state(handle, JobState.DONE)
        return handle

    handle = drive(env, scenario(env))
    env.run()
    callbacks = listener.mailbox.items
    assert [m.payload["state"] for m in callbacks] == [
        JobState.PENDING, JobState.ACTIVE, JobState.DONE,
    ]
    assert {m.kind for m in callbacks} == {"gram.callback"}
    assert callbacks[-1].payload == {
        "job_id": handle.job_id, "state": JobState.DONE, "reason": None,
    }
    # They come from the job manager's own address, which nothing binds.
    assert {m.src for m in callbacks} == {handle.manager}
    assert not net.is_bound(handle.manager)
    assert site.gatekeeper.job_managers[handle.job_id].callback == listener.endpoint
