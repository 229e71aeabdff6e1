"""Unit tests for repro.net.network and transport."""

import pytest

from repro.errors import HostDown, NetworkError, SimulationError
from repro.net import Endpoint, LatencyModel, Message, Network, Port
from repro.simcore import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    network = Network(env)
    network.add_host("alpha")
    network.add_host("beta")
    return network


def _port(net, host, name):
    return Port(net, Endpoint(host, name))


class TestEndpoint:
    def test_str_and_parse_roundtrip(self):
        ep = Endpoint("host1", "gram")
        assert Endpoint.parse(str(ep)) == ep

    def test_parse_rejects_garbage(self):
        for bad in ("", "host", ":port", "host:"):
            with pytest.raises(ValueError):
                Endpoint.parse(bad)

    def test_ordering(self):
        assert Endpoint("a", "1") < Endpoint("b", "0")


class TestLatencyModel:
    def test_default_latency(self):
        model = LatencyModel()
        assert model.latency("a", "b") == pytest.approx(0.002)

    def test_loopback_latency(self):
        model = LatencyModel()
        assert model.latency("a", "a") < 0.001

    def test_override_is_symmetric(self):
        model = LatencyModel()
        model.set_latency("a", "b", 0.1)
        assert model.latency("a", "b") == 0.1
        assert model.latency("b", "a") == 0.1

    def test_negative_override_rejected(self):
        with pytest.raises(Exception):
            LatencyModel().set_latency("a", "b", -1)

    def test_nan_override_rejected(self):
        with pytest.raises(SimulationError):
            LatencyModel().set_latency("a", "b", float("nan"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": -0.001},
            {"base": float("nan")},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_bad_number_rejected_when_built(self, kwargs):
        """Each of these used to pass its check and fail at the first
        send, inside the kernel."""
        with pytest.raises(SimulationError):
            LatencyModel(**kwargs)


class TestDelivery:
    def test_message_arrives_after_latency(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")

        def rx(env):
            msg = yield receiver.recv()
            return (msg.kind, msg.payload, env.now)

        p = env.process(rx(env))
        sender.send(receiver.endpoint, "ping", payload={"n": 1})
        kind, payload, at = env.run(p)
        assert kind == "ping"
        assert payload == {"n": 1}
        assert at == pytest.approx(0.002)

    def test_send_to_unknown_host_raises(self, env, net):
        # The first unknown one is named, source before destination.
        for src, dst, unknown in (("alpha", "nowhere", "nowhere"),
                                  ("nowhere", "beta", "nowhere"), ("x", "y", "x")):
            message = Message(Endpoint(src, "x"), Endpoint(dst, "y"), "k")
            with pytest.raises(NetworkError, match=rf"^unknown host '{unknown}'$"):
                net.send(message)
        assert net.sent_count == 0 and len(env.queue) == 0

    def test_send_from_dead_host_raises(self, net):
        port = _port(net, "alpha", "x")
        net.crash_host("alpha")
        with pytest.raises(HostDown, match=r"^source host 'alpha' is down$"):
            port.send(Endpoint("beta", "y"), "k")

    def test_send_to_dead_host_is_silently_lost(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        net.crash_host("beta")
        sender.send(receiver.endpoint, "ping")
        env.run()
        assert receiver.pending() == 0
        assert net.dropped_count == 1

    def test_unbound_endpoint_loses_message(self, env, net):
        sender = _port(net, "alpha", "client")
        sender.send(Endpoint("beta", "nobody"), "ping")
        env.run()
        assert net.dropped_count == 1

    def test_crash_mid_flight_loses_message(self, env, net):
        """A message in flight when the destination dies is lost."""
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        sender.send(receiver.endpoint, "ping")
        net.crash_host("beta")  # before the 2ms delivery
        env.run()
        assert receiver.pending() == 0

    def test_restore_host_resumes_delivery(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        net.crash_host("beta")
        net.restore_host("beta")
        sender.send(receiver.endpoint, "ping")
        env.run()
        assert receiver.pending() == 1

    def test_fifo_order_same_pair(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        got = []

        def rx(env):
            for _ in range(3):
                msg = yield receiver.recv()
                got.append(msg.payload)

        env.process(rx(env))
        for i in range(3):
            sender.send(receiver.endpoint, "seq", payload=i)
        env.run()
        assert got == [0, 1, 2]

    def test_counters(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        sender.send(receiver.endpoint, "a")
        sender.send(receiver.endpoint, "b")
        env.run()
        assert net.sent_count == 2
        assert net.delivered_count == 2
        assert receiver.pending() == 2


class TestPartition:
    def test_partition_blocks_cross_group(self, env, net):
        net.add_host("gamma")
        a = _port(net, "alpha", "p")
        b = _port(net, "beta", "p")
        net.partition([["alpha"], ["beta", "gamma"]])
        a.send(b.endpoint, "x")
        env.run()
        assert b.pending() == 0

    def test_same_group_delivers(self, env, net):
        net.add_host("gamma")
        b = _port(net, "beta", "p")
        g = _port(net, "gamma", "p")
        net.partition([["alpha"], ["beta", "gamma"]])
        b.send(g.endpoint, "x")
        env.run()
        assert g.pending() == 1

    def test_heal_partition(self, env, net):
        a = _port(net, "alpha", "p")
        b = _port(net, "beta", "p")
        net.partition([["alpha"], ["beta"]])
        net.heal_partition()
        a.send(b.endpoint, "x")
        env.run()
        assert b.pending() == 1

    def test_loopback_survives_partition(self, env, net):
        a1 = _port(net, "alpha", "p1")
        a2 = _port(net, "alpha", "p2")
        net.partition([["alpha"], ["beta"]])
        a1.send(a2.endpoint, "x")
        env.run()
        assert a2.pending() == 1


class TestDropRules:
    def test_drop_rule_applies(self, env, net):
        a = _port(net, "alpha", "p")
        b = _port(net, "beta", "p")
        rule = net.add_drop_rule(lambda m: m.kind == "lossy")
        a.send(b.endpoint, "lossy")
        a.send(b.endpoint, "ok")
        env.run()
        assert b.pending() == 1
        net.remove_drop_rule(rule)
        a.send(b.endpoint, "lossy")
        env.run()
        assert b.pending() == 2


class TestMessage:
    def test_reply_correlation(self):
        req = Message(
            src=Endpoint("a", "c"),
            dst=Endpoint("b", "s"),
            kind="do",
            reply_to=Endpoint("a", "c"),
            corr_id=9,
        )
        resp = req.reply("do.reply", payload="done")
        assert resp.dst == Endpoint("a", "c")
        assert resp.src == Endpoint("b", "s")
        assert resp.corr_id == 9

    def test_reply_without_reply_to_raises(self):
        req = Message(src=Endpoint("a", "c"), dst=Endpoint("b", "s"), kind="do")
        with pytest.raises(ValueError):
            req.reply("r")

    def test_unique_ids(self, net):
        """The network that sends a message numbers it, from 1 per world."""
        m1 = Message(src=Endpoint("alpha", "c"), dst=Endpoint("beta", "s"), kind="k")
        m2 = Message(src=Endpoint("alpha", "c"), dst=Endpoint("beta", "s"), kind="k")
        assert m1.msg_id == m2.msg_id == 0
        net.send(m1)
        net.send(m2)
        assert (m1.msg_id, m2.msg_id) == (1, 2)


class TestPortClose:
    def test_close_unbinds_the_mailbox(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        receiver.close()
        sender.send(receiver.endpoint, "ping")
        env.run()
        assert receiver.pending() == 0
        assert net.dropped_count == 1  # lost as "unbound", like any stranger

    def test_close_is_idempotent(self, net):
        port = _port(net, "alpha", "client")
        port.close()
        port.close()

    def test_close_after_reply_leaves_trace_unchanged(self, env, net):
        # The ephemeral reply-port lifecycle: RPC concludes, port
        # closes, nothing was in flight — so no drops, same deliveries.
        client = _port(net, "alpha", "reply.c0.r0")
        server = _port(net, "beta", "frontdoor")

        def serve(env):
            msg = yield server.recv()
            server.send(msg.reply_to, "ack", payload=msg.payload)

        def call(env):
            client.send(server.endpoint, "submit", payload="s-1",
                        reply_to=client.endpoint)
            yield client.recv()
            client.close()

        env.process(serve(env))
        env.process(call(env))
        env.run()
        assert net.dropped_count == 0
        assert net.delivered_count == 2


class TestEndpointRetention:
    def test_intern_rejects_ephemeral_reply_port(self):
        from repro.net.transport import ephemeral_endpoint

        with pytest.raises(ValueError):
            ephemeral_endpoint(Network(Environment()), "alpha").intern()
        with pytest.raises(ValueError):
            Endpoint("alpha", "tmp.7").intern()

    def test_intern_accepts_dotted_service_names(self):
        # "jm.job3"-style names are not ephemeral: the tail is not all
        # digits.  Clean up the table entry this test creates.
        ep = Endpoint("alpha", "jm.job")
        try:
            assert ep.intern() is ep
        finally:
            Endpoint._interned.pop(("alpha", "jm.job"), None)

    def test_intern_returns_one_canonical_instance(self):
        try:
            first = Endpoint("gamma", "svc").intern()
            second = Endpoint("gamma", "svc").intern()
            assert second is first
        finally:
            Endpoint._interned.pop(("gamma", "svc"), None)

    def test_intern_hard_fails_at_the_cap(self, monkeypatch):
        from repro.net import address

        monkeypatch.setattr(
            address, "INTERN_MAX", len(Endpoint._interned)
        )
        with pytest.raises(RuntimeError):
            Endpoint("delta", "svc").intern()

    def test_parse_prefers_the_interned_canonical(self):
        try:
            canonical = Endpoint("epsilon", "svc").intern()
            assert Endpoint.parse("epsilon:svc") is canonical
        finally:
            Endpoint._interned.pop(("epsilon", "svc"), None)

    def test_parse_is_equality_only_and_retains_nothing(self):
        """Parse keeps nothing per text: each result is held by its
        caller alone."""
        import sys

        interned = len(Endpoint._interned)
        for i in range(600):
            parsed = Endpoint.parse(f"host{i}:svc")
            assert parsed == Endpoint(f"host{i}", "svc")
            # This name and getrefcount's argument: nothing else.
            assert sys.getrefcount(parsed) == 2
        assert len(Endpoint._interned) == interned
        # Repeat parses agree by equality; identity is not promised.
        assert Endpoint.parse("host0:svc") == Endpoint("host0", "svc")
