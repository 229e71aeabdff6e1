"""Job control is a conversation with the gatekeeper.

``gram.cancel`` and ``gram.status`` carry the job id to
``<site>:gatekeeper``; a cancel is answered with the job's
``{job_id, state, reason}``, or with ``"unknown job"`` — never
with silence — when the gatekeeper has not issued that id or the job
finished longer than ``FINISHED_JOB_RETENTION`` ago.  A live job is
never forgotten, however many others the site runs.  The front door
takes RSL text and nothing else.
"""

import pytest

from repro.errors import GramError
from repro.gram import GramClient, JobState, Site
from repro.gram.client import JobHandle
from repro.gram.gatekeeper import FINISHED_JOB_RETENTION, SUBMIT
from repro.gram.jobmanager import CANCEL
from repro.gsi import initiate
from repro.net import Endpoint, Network, Port
from repro.net.rpc import RPCError, call
from repro.rsl import parse
from repro.simcore import Environment, Tracer
from tests.metric_reads import value

from .conftest import client_mailboxes, drive, rsl_for, sleeper_program


def test_control_of_an_evicted_job_is_refused_not_left_hanging(env, net, site, client):
    """A job that finished longer than the retention window ago is
    dropped by the next submit, and every control RPC for it says so."""

    def scenario(env):
        evicted = yield from client.submit(
            site.contact, rsl_for(site.contact, executable="quick")
        )
        yield env.timeout(FINISHED_JOB_RETENTION + 1.0)
        # Lazy: past its window, the job is dropped only by a submit.
        assert list(site.gatekeeper.job_managers) == [evicted.job_id]
        kept = []
        for _ in range(2):
            kept.append((yield from client.submit(site.contact, rsl_for(site.contact))))
        handles = [evicted, *kept]
        assert list(site.gatekeeper.job_managers) == [h.job_id for h in kept]
        calls = (
            lambda: client.cancel(evicted),  # timeout=None: would wait for ever
            lambda: client.status(evicted),
        )
        for control in calls:
            with pytest.raises(GramError, match="unknown job") as refusal:
                yield from control()
            assert refusal.value.contact == "origin:gatekeeper"
        # The batch form keeps PR 19's meaning: absent is no news.
        states = yield from client.site_status(site.gatekeeper.endpoint, handles)
        assert list(states) == [h.job_id for h in kept]
        assert (evicted.state, evicted.finished_at) == (JobState.PENDING, None)
        # The jobs still in the table are controlled as ever.
        assert (yield from client.cancel(kept[0])) is JobState.FAILED
        assert (yield from client.status(kept[1])) is JobState.ACTIVE

    drive(env, scenario(env))
    assert client_mailboxes(net) == []


def test_the_oldest_of_1030_live_jobs_is_still_controlled(env, net, ca):
    """A busy site forgets no live job: the first of 1 030 concurrent
    sleepers cancels to FAILED, and cancelling them all leaves no
    process running."""
    site = Site(env, net, "origin", nodes=1030, ca=ca,
                programs={"long": sleeper_program(1e7)})
    site.authorize("alice")
    client = GramClient(net, "workstation", ca.issue("alice"))
    text = rsl_for(site.contact, executable="long")
    handles = [None] * 1030

    def submit(index):
        handles[index] = yield from client.submit(site.contact, text)

    def scenario(env):
        yield env.all_of([env.process(submit(index)) for index in range(1030)])
        yield env.timeout(1.0)
        processes = [context.process for context in site.machine.processes.values()]
        assert len(processes) == 1030 and all(p.is_alive for p in processes)
        assert (yield from client.cancel(handles[0])) is JobState.FAILED
        for handle in handles[1:]:
            assert (yield from client.cancel(handle)) is JobState.FAILED
        yield env.timeout(1.0)
        return processes

    processes = drive(env, scenario(env))
    assert not any(process.is_alive for process in processes)
    assert site.machine.process_count == 0


def test_a_job_the_gatekeeper_never_issued_is_unknown(env, site, client):
    gatekeeper = site.gatekeeper.endpoint
    stranger = JobHandle("origin/job999", Endpoint("origin", "jm.job999"), gatekeeper)

    def scenario(env):
        with pytest.raises(GramError, match="gram.cancel for origin/job999 refused"):
            yield from client.cancel(stranger, timeout=5.0)
        return env.now

    assert drive(env, scenario(env)) < 1.0  # an answer, not the timeout
    assert stranger.state is JobState.PENDING


def test_cancel_of_a_done_job_is_answered_without_a_timeout(env, site, client):
    def scenario(env):
        handle = yield from client.submit(
            site.contact, rsl_for(site.contact, executable="quick")
        )
        yield from client.wait_for_state(handle, JobState.DONE)
        first = yield from client.cancel(handle)
        return first, (yield from client.cancel(handle)), handle

    first, second, handle = drive(env, scenario(env))
    assert first is second is JobState.DONE
    assert handle.failure_reason is None


@pytest.mark.parametrize("payload", [None, {}, {"job_id": ["origin/job1"]}, "origin/job1"])
def test_a_malformed_control_message_gets_an_error_and_the_listener_survives(
    env, net, site, client, payload
):
    port = Port(net, Endpoint("workstation", "raw"))

    def scenario(env):
        handle = yield from client.submit(site.contact, rsl_for(site.contact))
        with pytest.raises(RPCError, match="unknown job"):
            yield from call(port, site.gatekeeper.endpoint, CANCEL, payload=payload, timeout=5.0)
        return (yield from client.status(handle))

    assert drive(env, scenario(env)).terminal is False
    assert site.gatekeeper.listener.is_alive


@pytest.mark.parametrize(
    "rsl", [parse("&(count=1)(executable=quick)"), None, 7, ["&(count=1)(executable=quick)"]],
    ids=["specification", "none", "int", "list"],
)
def test_the_front_door_takes_rsl_text_only(ca, programs, rsl):
    """A ready-made ``Specification`` never went through the lexer's
    checks: it is refused like any other bad RSL, and counted so."""
    env = Environment()
    env.tracer = Tracer(env)
    net = Network(env)
    net.add_host("workstation")
    site = Site(env, net, "origin", nodes=4, ca=ca, programs=programs)
    site.authorize("alice")
    port = Port(net, Endpoint("workstation", "raw"))
    gatekeeper = site.gatekeeper.endpoint

    def scenario(env):
        session = yield from initiate(port, gatekeeper, ca.issue("alice"))
        with pytest.raises(RPCError, match="rsl must be RSL text"):
            yield from call(
                port, gatekeeper, SUBMIT,
                payload={"rsl": rsl, "session": session.session_id}, timeout=5.0,
            )

    drive(env, scenario(env))
    metrics = env.tracer.metrics
    assert value(metrics, "gram.submits_total", site="origin", outcome="bad_rsl") == 1
    assert value(metrics, "gram.submits_total", site="origin", outcome="accepted") == 0
    assert not site.gatekeeper.job_managers
    assert site.gatekeeper._specs.cache_info().currsize == 0
