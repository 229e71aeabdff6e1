"""Tests for the transport helpers: ephemeral reply endpoints."""

from repro.net import Network
from repro.net.transport import ephemeral_endpoint
from repro.simcore import Environment


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
