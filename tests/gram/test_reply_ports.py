"""GramClient closes the ephemeral reply port of every call it makes.

Each ``submit`` / ``status`` / ``cancel`` binds a fresh ``gram.N``
endpoint for its reply.  Left bound, a polling client grows ``Network._mailboxes`` by
one ``Store`` per RPC for the life of the run.
"""

import pytest

from repro.errors import AuthenticationError, RPCTimeout
from repro.gram import CallbackListener, JobState
from repro.simcore import Probe

from .conftest import client_mailboxes, drive, rsl_for


class DropLog(Probe):
    def __init__(self):
        self.drops = []

    def on_drop(self, message, reason):
        self.drops.append((message.kind, reason))


def test_status_polls_leave_no_mailbox_behind(env, net, site, client):
    counts = []

    def scenario(env):
        handle = yield from client.submit(site.contact, rsl_for(site.contact))
        counts.append(len(net._mailboxes))
        for _ in range(25):
            yield from client.status(handle)
            counts.append(len(net._mailboxes))

    drive(env, scenario(env))
    assert len(set(counts)) == 1
    assert client_mailboxes(net) == []


def test_every_call_closes_its_port(env, net, site, client):
    listener = CallbackListener(net, "workstation")
    bound = client_mailboxes(net)
    assert bound == [str(listener.endpoint)]

    def scenario(env):
        handle = yield from client.submit(site.contact, rsl_for(site.contact))
        assert client_mailboxes(net) == bound
        yield from client.status(handle)
        assert client_mailboxes(net) == bound
        state = yield from client.cancel(handle)
        assert client_mailboxes(net) == bound
        return state

    assert drive(env, scenario(env)).terminal


def test_failed_handshake_closes_the_submit_port(env, net, site, stranger):
    def scenario(env):
        yield from stranger.submit(site.contact, rsl_for(site.contact))

    with pytest.raises(AuthenticationError):
        drive(env, scenario(env))
    assert client_mailboxes(net) == []


def test_reply_after_a_timeout_is_an_unbound_drop(env, net, site, client):
    log = DropLog()
    env.probe = log
    before = {}

    def scenario(env):
        handle = yield from client.submit(site.contact, rsl_for(site.contact))
        before["mailboxes"] = len(net._mailboxes)
        before["dropped"] = net.dropped_count
        # One second each way: the reply is still in flight at 0.5 s.
        net.latency_model.set_latency("workstation", site.name, 1.0)
        with pytest.raises(RPCTimeout):
            yield from client.status(handle, timeout=0.5)
        assert len(net._mailboxes) == before["mailboxes"]
        assert handle.state is JobState.PENDING

    drive(env, scenario(env))
    assert log.drops == []
    env.run()
    assert log.drops == [("gram.status.reply", "unbound")]
    assert net.dropped_count == before["dropped"] + 1
    assert len(net._mailboxes) == before["mailboxes"]
