"""``Port.recv(filter, timeout)`` and the RPC deadline built on it.

The instants asserted here are the ones the hand-built
``get`` + ``Timeout`` + ``Condition`` race produced before it.
"""

import pytest

from repro.errors import RPCTimeout
from repro.net import Endpoint, Network, Port, call
from repro.net.rpc import reply_ok
from repro.simcore import Environment, Tracer
from repro.simcore.resources import TIMED_OUT


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    network = Network(env)
    network.add_host("client")
    network.add_host("server")
    return network


def echo(port, delay=0.0):
    while True:
        message = yield port.recv()
        if delay:
            yield port.env.timeout(delay)
        reply_ok(port, message, payload=message.payload)


def test_recv_with_timeout_fires_with_the_message_or_the_sentinel(env, net):
    server = Port(net, Endpoint("server", "svc"))
    client = Port(net, Endpoint("client", "cli"))
    log = []

    def listener():
        while True:
            message = yield server.recv(lambda m: m.kind == "wanted", 1.0)
            log.append((env.now, message if message is TIMED_OUT else message.payload))
            if message is TIMED_OUT:
                return

    env.process(listener())
    client.send(server.endpoint, "other", "ignored")
    client.send(server.endpoint, "wanted", "first")
    env.run()
    # One way is 2 ms; the second round's deadline runs from then.
    assert log == [(pytest.approx(0.002), "first"), (pytest.approx(1.002), TIMED_OUT)]
    assert server.pending() == 1 and not server.mailbox._waiters


def test_reply_in_the_deadlines_own_instant_is_returned(env, net):
    server = Port(net, Endpoint("server", "svc"))
    client = Port(net, Endpoint("client", "cli"))
    env.process(echo(server))

    def caller():
        # Exactly one round trip: the reply is delivered at the instant
        # the deadline falls due, and the deadline loses the tie.
        result = yield from call(client, server.endpoint, "echo", "x", timeout=0.004)
        return result, env.now

    assert env.run(env.process(caller())) == ("x", 0.004)


def test_timeout_raises_at_its_instant_and_withdraws_the_waiter(env, net):
    server = Port(net, Endpoint("server", "svc"))
    client = Port(net, Endpoint("client", "cli"))
    env.process(echo(server, delay=0.001))

    def caller():
        try:
            yield from call(client, server.endpoint, "echo", "x", timeout=0.004)
        except RPCTimeout as exc:
            return exc.timeout, exc.kind, env.now

    assert env.run(env.process(caller())) == (0.004, "echo", 0.004)
    assert not client.mailbox._waiters
    env.run()
    # The late reply is nobody's: it waits in the mailbox.
    assert client.pending() == 1


def test_answered_call_leaves_nothing_armed(env, net):
    server = Port(net, Endpoint("server", "svc"))
    client = Port(net, Endpoint("client", "cli"))
    env.process(echo(server))

    def caller():
        yield from call(client, server.endpoint, "echo", "x", timeout=500.0)

    env.run(env.process(caller()))
    env.run()
    assert env.now == 0.004  # the retired deadline did not keep the run alive
    assert env.queue.stats()["discards"] == 1


def test_timeouts_are_metered_as_before():
    env = Environment()
    env.tracer = Tracer(env)
    network = Network(env)
    network.add_host("client")
    network.add_host("server")
    server = Port(network, Endpoint("server", "svc"))
    client = Port(network, Endpoint("client", "cli"))
    env.process(echo(server, delay=5.0))

    def caller():
        with pytest.raises(RPCTimeout):
            yield from call(client, server.endpoint, "echo", "slow", timeout=1.0)
        yield from call(client, server.endpoint, "echo", "fine", timeout=20.0)

    env.run(env.process(caller()))
    metrics = env.tracer.metrics
    assert metrics.counter("rpc.calls_total").value(kind="echo") == 2
    assert metrics.counter("rpc.timeouts_total").value(kind="echo") == 1
