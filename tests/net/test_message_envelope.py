"""A message in flight is its own kernel event.

``Network.send`` schedules the envelope itself (DESIGN.md §7, "The
message path is one frame per hop"): while it flies it holds the
network and the delivery callbacks, and the delivery lets go of the
network before it does anything else.  So an envelope cannot be sent
again while it flies, and one that was delivered, dropped or left in a
mailbox holds nothing of the world it crossed.
"""

import gc

import pytest

from repro.errors import NetworkError
from repro.net import Endpoint, Network, Port
from repro.net.message import Message
from repro.simcore import Environment, Store

SRC, DST = Endpoint("a", "p"), Endpoint("b", "q")


def world():
    env = Environment()
    network = Network(env)
    for host in ("a", "b"):
        network.add_host(host)
    return env, network


def test_a_message_in_flight_is_refused_a_second_send():
    env, network = world()
    box = network.bind(DST)
    message = Message(SRC, DST, "once")
    network.send(message)
    with pytest.raises(NetworkError, match="already in flight"):
        network.send(message)
    with pytest.raises(NetworkError, match="already in flight"):
        network._deliver_message(message)
    env.run()
    assert box.items == [message]
    assert (network.sent_count, network.delivered_count) == (1, 1)
    assert env.queue.stats()["pushes"] == 1


@pytest.mark.parametrize("fate", ["delivered", "rule", "unreachable", "unbound"])
def test_a_message_holds_no_network_once_its_flight_ends(fate):
    env, network = world()
    box = network.bind(DST)
    dst = Endpoint("b", "nobody") if fate == "unbound" else DST
    if fate == "rule":
        network.add_drop_rule(lambda message: True)
    message = Message(SRC, dst, "m")
    network.send(message)
    if fate != "rule":
        assert message.network is network
    if fate == "unreachable":
        network.crash_host("b")
    env.run()
    assert message.network is None and message.callbacks is None
    assert box.items == ([message] if fate == "delivered" else [])
    assert network.dropped_count == (fate != "delivered")


def alive(cls):
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_a_closed_world_frees_its_messages_by_reference_counting():
    """Messages left in a mailbox nobody reads and messages still in
    flight are freed with the world, with the collector off: a message
    that kept its network would close a cycle through the mailbox
    table (network → mailbox → message → network)."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = {cls: alive(cls) for cls in (Message, Store)}
        env, network = world()
        box = network.bind(DST)
        sender = Port(network, SRC)
        for n in range(3):
            sender.send(DST, "unread", n)
        env.run()
        for n in range(3):
            sender.send(DST, "in flight", n)
        assert len(box) == 3 and env.queue_size == 3
        env.close()
        del env, network, box, sender
        assert {cls: alive(cls) - count for cls, count in before.items()} == {
            Message: 0,
            Store: 0,
        }
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
