"""Tripwire, as counts not seconds: what one answered RPC costs the kernel.

An ``rpc.call`` with a deadline is four processed events — the request
delivered, the server's receive, the reply delivered, the caller's
receive — and five scheduled: the deadline is armed, retired by the
``put`` that grants the reply, and discarded unprocessed.  The receive's
own event resumes the caller; no ``AllOf`` join stands between them
(DESIGN.md §7, "a receive with a deadline is one event").
"""

import pytest

from repro.net import Endpoint, Network, Port, call
from repro.net.rpc import reply_ok
from repro.simcore import Environment
from repro.simcore.events import AllOf


@pytest.fixture
def conditions(monkeypatch):
    """Counts every composite event constructed: the kernel's one join."""
    built = []
    init = AllOf.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AllOf, "__init__", counting)
    return built


def storm(calls, timeout):
    """``calls`` sequential round trips against an echo server."""
    env = Environment()
    network = Network(env)
    network.add_host("client")
    network.add_host("server")
    server = Port(network, Endpoint("server", "svc"))
    client = Port(network, Endpoint("client", "cli"))

    def serve():
        while True:
            message = yield server.recv()
            reply_ok(server, message, payload=message.payload)

    def caller():
        for n in range(calls):
            assert (yield from call(client, server.endpoint, "echo", n, timeout=timeout)) == n

    env.process(serve())
    env.run(env.process(caller()))
    env.run()
    stats = env.queue.stats()
    return stats["pops"], stats["pushes"], stats["discards"], env.now


def test_an_answered_call_with_a_deadline_is_four_events(conditions):
    few = storm(10, timeout=5.0)
    many = storm(10 + 200, timeout=5.0)
    processed, scheduled, discarded, _ = (b - a for a, b in zip(few, many))
    assert processed == 4 * 200
    assert scheduled == 5 * 200
    assert discarded == 200  # every deadline retired, none fired
    assert conditions == []
    # Retired deadlines do not prolong the run: it ends with the last reply.
    assert many[3] == pytest.approx(210 * 0.004)


def test_the_deadline_is_the_only_cost_of_asking_for_one(conditions):
    untimed = storm(50, timeout=None)
    timed = storm(50, timeout=5.0)
    assert timed[0] == untimed[0]  # processed
    assert timed[1] == untimed[1] + 50  # scheduled
    assert timed[3] == untimed[3]
    assert conditions == []
