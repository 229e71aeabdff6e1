"""The gatekeeper answers ``gram.status`` for a list of its jobs.

One round trip to ``<site>:gatekeeper`` carrying ``{"jobs": [...]}``
returns ``{job_id: (state, reason)}`` for every named job the gatekeeper
still retains; :meth:`GramClient.site_status` sends it and updates the
handles.  An id missing from the reply is *no news*, never death.
"""

import pytest

from repro.errors import RPCTimeout
from repro.gram import JobState
from repro.gram.client import JobHandle
from repro.gram.jobmanager import STATUS
from repro.net import Endpoint
from repro.net.rpc import RPCError, call
from repro.net.transport import Port

from .conftest import client_mailboxes, drive, rsl_for


def submit_two(client, site):
    """Handles of a job that sleeps 5 s and of one that crashes at 0.1 s."""
    sleeper = yield from client.submit(site.contact, rsl_for(site.contact))
    buggy = yield from client.submit(
        site.contact, rsl_for(site.contact, executable="buggy")
    )
    return sleeper, buggy


def test_known_jobs_are_answered_and_their_handles_updated(env, site, client):
    gatekeeper = site.gatekeeper.endpoint

    def scenario(env):
        sleeper, buggy = yield from submit_two(client, site)
        assert sleeper.gatekeeper == buggy.gatekeeper == gatekeeper
        yield env.timeout(1.0)
        first = yield from client.site_status(gatekeeper, [sleeper, buggy])
        stamps = (sleeper.active_at, buggy.finished_at)
        yield env.timeout(1.0)
        second = yield from client.site_status(gatekeeper, [sleeper, buggy])
        # Stamped at the first sighting, not re-stamped by the second.
        assert (sleeper.active_at, buggy.finished_at) == stamps
        return sleeper, buggy, first, second

    sleeper, buggy, first, second = drive(env, scenario(env))
    assert first == second == {
        sleeper.job_id: (JobState.ACTIVE, None),
        buggy.job_id: (JobState.FAILED, buggy.failure_reason),
    }
    assert "application bug" in buggy.failure_reason
    assert (sleeper.state, buggy.state) == (JobState.ACTIVE, JobState.FAILED)
    assert sleeper.active_at is not None and sleeper.finished_at is None
    assert buggy.finished_at is not None


def test_an_unknown_or_evicted_job_is_absent_and_its_handle_untouched(
    env, site, client
):
    gatekeeper = site.gatekeeper.endpoint
    stranger = JobHandle("origin/job999", Endpoint("origin", "jm.job999"), gatekeeper)

    def scenario(env):
        sleeper, evicted = yield from submit_two(client, site)
        yield env.timeout(1.0)
        del site.gatekeeper.job_managers[evicted.job_id]
        states = yield from client.site_status(
            gatekeeper, [sleeper, evicted, stranger]
        )
        return sleeper, evicted, states

    sleeper, evicted, states = drive(env, scenario(env))
    assert states == {sleeper.job_id: (JobState.ACTIVE, None)}
    for handle in (evicted, stranger):
        assert handle.state is JobState.PENDING
        assert handle.active_at is None and handle.finished_at is None


def test_a_poll_does_not_reorder_the_retention_table(env, site, client):
    def scenario(env):
        sleeper, buggy = yield from submit_two(client, site)
        table = site.gatekeeper.job_managers
        # The polled job is the stalest: a refreshing read would move it.
        before = list(table)
        yield from client.site_status(site.gatekeeper.endpoint, [sleeper])
        return before, list(table)

    before, after = drive(env, scenario(env))
    assert before == after


def test_the_reply_port_is_unbound_when_the_call_returns_or_times_out(
    env, net, site, client
):
    gatekeeper = site.gatekeeper.endpoint

    def scenario(env):
        handle = yield from client.submit(site.contact, rsl_for(site.contact))
        mailboxes = len(net._mailboxes)
        yield from client.site_status(gatekeeper, [handle])
        assert len(net._mailboxes) == mailboxes
        # One second each way: the reply is still in flight at 0.5 s.
        net.latency_model.set_latency("workstation", site.name, 1.0)
        with pytest.raises(RPCTimeout):
            yield from client.site_status(gatekeeper, [handle], timeout=0.5)
        assert len(net._mailboxes) == mailboxes

    drive(env, scenario(env))
    env.run()  # the late reply lands on nothing
    assert client_mailboxes(net) == []


def test_a_crashed_site_times_the_poll_out(env, site, client):
    def scenario(env):
        handle = yield from client.submit(site.contact, rsl_for(site.contact))
        site.crash()
        started = env.now
        with pytest.raises(RPCTimeout):
            yield from client.site_status(
                site.gatekeeper.endpoint, [handle], timeout=2.0
            )
        return env.now - started

    assert drive(env, scenario(env)) == pytest.approx(2.0)


@pytest.mark.parametrize("payload", [None, {}, {"jobs": "origin/job1"}, ["origin/job1"]])
def test_a_malformed_poll_gets_an_error_and_the_listener_survives(
    env, net, site, client, payload
):
    port = Port(net, Endpoint("workstation", "raw"))
    gatekeeper = site.gatekeeper.endpoint

    def scenario(env):
        with pytest.raises(RPCError, match="jobs"):
            yield from call(port, gatekeeper, STATUS, payload=payload, timeout=5.0)
        # gk:origin still serves: a submit and a well-formed poll go through.
        handle = yield from client.submit(site.contact, rsl_for(site.contact))
        return handle, (yield from client.site_status(gatekeeper, [handle]))

    handle, states = drive(env, scenario(env))
    assert site.gatekeeper.listener.is_alive
    assert list(states) == [handle.job_id]


def test_an_id_that_is_no_string_is_no_news_and_the_listener_survives(
    env, net, site, client
):
    """Job ids are request data: an unhashable one is absent like any
    other id the site never issued, and does not kill ``gk:origin``."""
    port = Port(net, Endpoint("workstation", "raw"))
    gatekeeper = site.gatekeeper.endpoint

    def scenario(env):
        handle = yield from client.submit(site.contact, rsl_for(site.contact))
        jobs = [[handle.job_id], {"id": 1}, 7, None, handle.job_id]
        return handle, (yield from call(
            port, gatekeeper, STATUS, payload={"jobs": jobs}, timeout=5.0
        ))

    handle, states = drive(env, scenario(env))
    assert list(states) == [handle.job_id]
    assert site.gatekeeper.listener.is_alive
