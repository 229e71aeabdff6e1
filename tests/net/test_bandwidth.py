"""Tests for the serialization-delay (bandwidth) term and transport helpers."""

import pytest

from repro.errors import SimulationError
from repro.net import Endpoint, LatencyModel, Network, Port
from repro.net.transport import ephemeral_endpoint
from repro.simcore import Environment


class TestBandwidth:
    def test_default_is_infinite_bandwidth(self):
        model = LatencyModel()
        assert model.latency("a", "b", size_bytes=10**9) == pytest.approx(0.002)

    def test_serialization_delay_added(self):
        model = LatencyModel(bandwidth=1_000_000.0)  # 1 MB/s
        # 500 kB at 1 MB/s = 0.5 s on top of the 2 ms latency.
        assert model.latency("a", "b", size_bytes=500_000) == pytest.approx(0.502)

    def test_zero_size_message_unaffected(self):
        model = LatencyModel(bandwidth=1000.0)
        assert model.latency("a", "b", size_bytes=0) == pytest.approx(0.002)

    def test_invalid_bandwidth(self):
        with pytest.raises(SimulationError):
            LatencyModel(bandwidth=0)

    def test_delivery_uses_message_size(self):
        env = Environment()
        net = Network(env, LatencyModel(bandwidth=1024.0))
        net.add_host("a")
        net.add_host("b")
        sender = Port(net, Endpoint("a", "p"))
        receiver = Port(net, Endpoint("b", "p"))

        from repro.net.message import Message

        msg = Message(src=sender.endpoint, dst=receiver.endpoint,
                      kind="bulk", size_bytes=10_240)
        times = []

        def rx(env):
            yield receiver.recv()
            times.append(env.now)

        env.process(rx(env))
        net.send(msg)
        env.run()
        # 10 kB at 1 kB/s = 10 s + 2 ms.
        assert times[0] == pytest.approx(10.002)


class TestEphemeralEndpoints:
    def test_unique(self):
        network = Network(Environment())
        eps = {ephemeral_endpoint(network, "h", "x") for _ in range(100)}
        assert len(eps) == 100

    def test_host_and_label_preserved(self):
        ep = ephemeral_endpoint(Network(Environment()), "myhost", "gram")
        assert ep.host == "myhost"
        assert ep.port.startswith("gram.")

    def test_numbered_per_world(self):
        first, second = Network(Environment()), Network(Environment())
        assert ephemeral_endpoint(first, "h", "gram").port == "gram.1"
        assert ephemeral_endpoint(first, "h", "gram-cb").port == "gram-cb.2"
        assert ephemeral_endpoint(second, "h", "gram").port == "gram.1"
