"""The message path, as counts: what one message costs in Python calls,
and what keeping it short must not change.

``Network.send`` → the message's own kernel event → ``Store.put`` →
the receiver's resume is the path every protocol message takes
(DESIGN.md §7, "The message path is one frame per hop").  The call
budget below pins its length exactly; the other tests pin what the
path must still do: the same delays, and the same errors and drops.
"""

import gc
import sys

import pytest

from repro.net import Endpoint, LatencyModel, Network, Port, call
from repro.net.network import LOCAL_LATENCY
from repro.net.rpc import reply_ok
from repro.simcore import Environment
from repro.simcore.probe import Probe

CLIENTS = 4
CALLS = 25


def echo_load() -> tuple[Network, list[list[int]]]:
    """``CLIENTS`` clients × ``CALLS`` lock-step echo calls to one
    server, each call with a deadline that its reply retires."""
    env = Environment()
    network = Network(env, LatencyModel(base=0.002))
    network.add_host("edge")
    network.add_host("core")
    server = Port(network, Endpoint("core", "echo"))
    clients = [Port(network, Endpoint("edge", f"client{i}")) for i in range(CLIENTS)]
    replies: list[list[int]] = [[] for _ in clients]

    def serve():
        while True:
            request = yield server.recv()
            reply_ok(server, request, request.payload)

    def storm(port, got):
        for n in range(CALLS):
            got.append((yield from call(port, server.endpoint, "echo", n, timeout=5.0)))

    env.process(serve())
    for port, got in zip(clients, replies):
        env.process(storm(port, got))
    return network, replies


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="call counts are a property of the interpreter"
)
def test_the_echo_load_makes_a_fixed_number_of_calls():
    network, replies = echo_load()
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    # A cycle collection during the run would call whatever Python
    # callbacks earlier code left in ``gc.callbacks`` (hypothesis leaves
    # one that times each collection), and whether one falls inside the
    # run depends on what allocated before it.  The load makes no
    # cycles, so it runs with the collector paused.
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        network.env.run()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    assert replies == [list(range(CALLS))] * CLIENTS
    assert network.sent_count == 2 * CLIENTS * CALLS
    # Python frames (generator resumes included) and builtin calls for
    # 100 answered calls, each two messages down the path DESIGN.md §7
    # lists.  A call added anywhere on it moves the first number by 100
    # or 200.  From 4 403 frames and 2 902 builtin calls, 600 frames
    # and 200 builtin calls went with the hops that did no work of
    # their own: a delivery timer constructed per message (200; the
    # message is its own event), ``Event.succeed`` for each of the 200
    # receives granted (125 by ``Store.put``, 75 by ``get`` from a
    # queued item: a queued or new request is pending, so its check
    # had nothing to catch), ``Port.send`` per request and
    # ``Port.send_message`` per reply (100 each: ``rpc.call`` and
    # ``reply_ok`` call ``Network.send``), and ``put``'s ``len(items)``
    # against a capacity (200 builtin calls; a store is unbounded).
    assert counts == {"call": 3_803, "c_call": 2_702}


class TestLatencyModel:
    """``latency`` returns the floats of the general formula: loopback,
    else the pair's override, else the base."""

    @staticmethod
    def formula(model, src, dst):
        if src == dst:
            return LOCAL_LATENCY
        override = model.pair_latency(src, dst)
        return model.base if override is None else override

    def test_loopback_base_and_overrides(self):
        model = LatencyModel(base=0.003)
        assert model.latency("a", "a") == self.formula(model, "a", "a") == LOCAL_LATENCY
        assert model.latency("a", "b") == self.formula(model, "a", "b") == 0.003
        model.set_latency("a", "b", 1)
        assert model.latency("b", "a") == self.formula(model, "b", "a") == 1.0
        assert type(model.latency("a", "b")) is float
        assert model.latency("a", "c") == 0.003
        model.clear_latency("a", "b")
        assert model.latency("a", "b") == self.formula(model, "a", "b") == 0.003


def test_a_loss_at_delivery_is_told_with_its_reason():
    """Sending errors are pinned in ``test_network.py``; a message lost
    in flight reaches the probe with the reason it was lost."""
    reasons = []

    class Drops(Probe):
        def on_drop(self, message, reason):
            reasons.append((message.kind, reason))

    env = Environment()
    env.probe = Drops()
    network = Network(env)
    for host in ("a", "b", "c"):
        network.add_host(host)
    box = network.bind(Endpoint("b", "q"))
    network.bind(Endpoint("c", "q"))
    sender = Port(network, Endpoint("a", "p"))
    sender.send(Endpoint("b", "q"), "cut")
    network.partition([["a"], ["b"]])  # while in flight
    env.run()
    network.heal_partition()
    sender.send(Endpoint("b", "nobody"), "stray")
    sender.send(Endpoint("c", "q"), "dead")
    network.crash_host("c")  # while in flight
    sender.send(Endpoint("b", "q"), "kept")
    env.run()
    assert reasons == [("cut", "unreachable"), ("stray", "unbound"), ("dead", "unreachable")]
    assert [m.kind for m in box.items] == ["kept"]
    assert (network.dropped_count, network.delivered_count) == (3, 1)
