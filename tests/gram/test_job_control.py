"""Job control is a conversation with the gatekeeper.

``gram.cancel`` / ``gram.register_callback`` / ``gram.unregister_callback``
carry the job id to ``<site>:gatekeeper`` and are answered with the
job's ``{job_id, state, reason}``, or with ``"unknown job"`` — never
with silence — when the gatekeeper has not issued that id or has
evicted it.  The front door takes RSL text and nothing else.
"""

import pytest

from repro.core.bounded import BoundedDict
from repro.errors import GramError
from repro.gram import JobState, Site
from repro.gram.client import JobHandle
from repro.gram.gatekeeper import SUBMIT
from repro.gram.jobmanager import CANCEL, REGISTER, UNREGISTER
from repro.gsi import initiate
from repro.net import Endpoint, Network, Port
from repro.net.rpc import RPCError, call
from repro.rsl import parse
from repro.simcore import Environment, Tracer

from .conftest import client_mailboxes, drive, rsl_for


def test_control_of_an_evicted_job_is_refused_not_left_hanging(env, net, site, client):
    """A table smaller than the number of jobs submitted: the oldest is
    evicted while it runs, and every control RPC for it says so."""
    site.gatekeeper.job_managers = BoundedDict(2)
    listener = Endpoint("workstation", "listener")

    def scenario(env):
        handles = []
        for _ in range(3):
            handles.append((yield from client.submit(site.contact, rsl_for(site.contact))))
        evicted, kept = handles[0], handles[1:]
        assert list(site.gatekeeper.job_managers) == [h.job_id for h in kept]
        calls = (
            lambda: client.cancel(evicted),  # timeout=None: would wait for ever
            lambda: client.register_callback(evicted, listener),
            lambda: client.unregister_callback(evicted, listener),
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


@pytest.mark.parametrize("kind", [CANCEL, REGISTER, UNREGISTER])
@pytest.mark.parametrize("payload", [None, {}, {"job_id": ["origin/job1"]}, "origin/job1"])
def test_a_malformed_control_message_gets_an_error_and_the_listener_survives(
    env, net, site, client, kind, payload
):
    port = Port(net, Endpoint("workstation", "raw"))

    def scenario(env):
        handle = yield from client.submit(site.contact, rsl_for(site.contact))
        with pytest.raises(RPCError, match="unknown job"):
            yield from call(port, site.gatekeeper.endpoint, kind, payload=payload, timeout=5.0)
        return (yield from client.status(handle))

    assert drive(env, scenario(env)).terminal is False
    assert site.gatekeeper.listener.is_alive


@pytest.mark.parametrize("kind", [REGISTER, UNREGISTER])
def test_a_listener_that_is_no_endpoint_is_refused(env, net, site, client, kind):
    port = Port(net, Endpoint("workstation", "raw"))

    def scenario(env):
        handle = yield from client.submit(site.contact, rsl_for(site.contact))
        for endpoint in (None, "workstation:listener"):
            with pytest.raises(RPCError, match="needs an 'endpoint'"):
                yield from call(
                    port, site.gatekeeper.endpoint, kind,
                    payload={"job_id": handle.job_id, "endpoint": endpoint}, timeout=5.0,
                )
        return handle

    handle = drive(env, scenario(env))
    assert site.gatekeeper.job_managers[handle.job_id].callbacks == []
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
    submits = env.tracer.metrics.counter("gram.submits_total")
    assert submits.value(site="origin", outcome="bad_rsl") == 1
    assert submits.value(site="origin", outcome="accepted") == 0
    assert not site.gatekeeper.job_managers and len(site.gatekeeper._specs) == 0
