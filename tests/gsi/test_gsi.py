"""Unit tests for the simulated GSI."""

import pytest

from repro.errors import AuthenticationError, AuthorizationError, AuthTimeout
from repro.gsi import (
    AuthConfig,
    CertificateAuthority,
    Credential,
    GridMap,
    accept,
    initiate,
)
from repro.gsi.auth import HELLO
from repro.net import Endpoint, Network, Port
from repro.simcore import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    network = Network(env)
    network.add_host("client")
    network.add_host("site")
    return network


@pytest.fixture
def ca():
    return CertificateAuthority()


@pytest.fixture
def gridmap():
    gm = GridMap()
    gm.add("alice", "au1")
    return gm


class TestCredentials:
    def test_issue_and_verify(self, ca):
        cred = ca.issue("alice")
        assert ca.verify(cred, now=0.0)

    def test_unissued_subject_fails(self, ca):
        stray = Credential(subject="bob", issuer="Other")
        assert not ca.verify(stray, now=0.0)

    def test_expiry(self, ca):
        cred = ca.issue("alice", lifetime=10.0, now=0.0)
        assert ca.verify(cred, now=5.0)
        assert not ca.verify(cred, now=11.0)

    def test_revocation(self, ca):
        cred = ca.issue("alice")
        ca.revoke(cred)
        assert not ca.verify(cred, now=0.0)

    def test_proxy_delegation_chains_to_identity(self, ca):
        cred = ca.issue("alice")
        proxy = cred.delegate(lifetime=100.0, now=0.0)
        assert proxy.identity == "alice"
        assert proxy.depth == 1
        assert ca.verify(proxy, now=50.0)

    def test_proxy_lifetime_capped_by_parent(self, ca):
        cred = ca.issue("alice", lifetime=10.0, now=0.0)
        proxy = cred.delegate(lifetime=100.0, now=0.0)
        assert proxy.not_after == 10.0

    def test_revoking_root_kills_proxy(self, ca):
        cred = ca.issue("alice")
        proxy = cred.delegate(lifetime=None, now=0.0)
        ca.revoke(cred)
        assert not ca.verify(proxy, now=0.0)


class TestGridMap:
    def test_lookup(self, gridmap):
        assert gridmap.lookup("alice") == "au1"

    def test_proxy_subject_resolves(self, gridmap):
        assert gridmap.lookup("alice/proxy") == "au1"
        assert gridmap.lookup("alice/proxy/proxy") == "au1"

    def test_unmapped_raises(self, gridmap):
        with pytest.raises(AuthorizationError):
            gridmap.lookup("mallory")

    def test_remove(self, gridmap):
        gridmap.remove("alice")
        assert not gridmap.authorized("alice")


def _run_handshake(env, net, ca, gridmap, credential, config=None):
    """Run client+server handshake; return (client_result, server_result)."""
    config = config or AuthConfig()
    server_port = Port(net, Endpoint("site", "gatekeeper"))
    client_port = Port(net, Endpoint("client", "app"))
    outcome = {}

    def server(env):
        hello = yield server_port.recv_kind(HELLO)
        try:
            session = yield from accept(server_port, hello, ca, gridmap, config)
            outcome["server"] = session
        except AuthenticationError as exc:
            outcome["server_error"] = str(exc)

    def client(env):
        try:
            session = yield from initiate(
                client_port, server_port.endpoint, credential, config
            )
            outcome["client"] = session
        except AuthenticationError as exc:
            outcome["client_error"] = str(exc)
        outcome["client_done_at"] = env.now

    env.process(server(env))
    env.process(client(env))
    env.run()
    return outcome


class TestHandshake:
    def test_successful_mutual_auth(self, env, net, ca, gridmap):
        cred = ca.issue("alice")
        outcome = _run_handshake(env, net, ca, gridmap, cred)
        assert outcome["client"].local_user == "au1"
        assert outcome["server"].subject == "alice"

    def test_auth_cost_is_paper_half_second(self, env, net, ca, gridmap):
        cred = ca.issue("alice")
        outcome = _run_handshake(env, net, ca, gridmap, cred)
        # 0.5 s CPU + 4 one-way message latencies of 2 ms.
        assert outcome["client_done_at"] == pytest.approx(0.508, abs=1e-6)

    def test_bad_credential_rejected(self, env, net, ca, gridmap):
        stray = Credential(subject="alice", issuer="EvilCA")
        outcome = _run_handshake(env, net, ca, gridmap, stray)
        assert "verification failed" in outcome["client_error"]
        assert "server_error" in outcome

    def test_unmapped_subject_rejected(self, env, net, ca, gridmap):
        cred = ca.issue("mallory")
        outcome = _run_handshake(env, net, ca, gridmap, cred)
        assert "gridmap" in outcome["client_error"]

    def test_expired_credential_rejected(self, env, net, ca, gridmap):
        cred = ca.issue("alice", lifetime=0.1, now=0.0)
        # Auth takes ~0.5 s of CPU, so the credential expires mid-handshake.
        outcome = _run_handshake(env, net, ca, gridmap, cred)
        assert "client_error" in outcome

    def test_proxy_authenticates_as_identity(self, env, net, ca, gridmap):
        proxy = ca.issue("alice").delegate(lifetime=None, now=0.0)
        outcome = _run_handshake(env, net, ca, gridmap, proxy)
        assert outcome["client"].local_user == "au1"

    def test_custom_cpu_costs(self, env, net, ca, gridmap):
        cred = ca.issue("alice")
        config = AuthConfig(client_cpu=0.0, server_cpu=0.0)
        outcome = _run_handshake(env, net, ca, gridmap, cred, config)
        assert outcome["client_done_at"] == pytest.approx(0.008, abs=1e-6)


class TestHandshakeDeadlines:
    """Each leg waits with ``port.recv(filter, timeout)``; the instants
    are those of the ``get | timeout`` races it replaced."""

    def test_client_gives_up_when_the_server_never_answers(self, env, net, ca):
        Port(net, Endpoint("site", "gatekeeper"))  # bound, but nobody serves it
        client_port = Port(net, Endpoint("client", "app"))

        def client(env):
            with pytest.raises(AuthTimeout) as caught:
                yield from initiate(
                    client_port, Endpoint("site", "gatekeeper"), ca.issue("alice"),
                    timeout=3.0,
                )
            return caught.value.timeout, env.now

        assert env.run(env.process(client(env))) == (3.0, 3.0)
        assert not client_port.mailbox._waiters

    def test_server_gives_up_on_a_client_that_never_responds(
        self, env, net, ca, gridmap
    ):
        server_port = Port(net, Endpoint("site", "gatekeeper"))
        client_port = Port(net, Endpoint("client", "app"))
        client_port.send(
            server_port.endpoint, HELLO, payload={"credential": ca.issue("alice")},
            reply_to=client_port.endpoint, corr_id=7,
        )

        def server(env):
            hello = yield server_port.recv_kind(HELLO)
            with pytest.raises(AuthTimeout):
                yield from accept(server_port, hello, ca, gridmap, timeout=2.0)
            return env.now

        # HELLO lands at 2 ms, verification takes 0.25 s, then 2 s of waiting.
        assert env.run(env.process(server(env))) == pytest.approx(2.252)
        assert not server_port.mailbox._waiters
        env.run()
        assert env.now == pytest.approx(2.252)

    def test_a_completed_handshake_leaves_no_deadline_to_wait_out(
        self, env, net, ca, gridmap
    ):
        server_port = Port(net, Endpoint("site", "gatekeeper"))
        client_port = Port(net, Endpoint("client", "app"))

        def server(env):
            hello = yield server_port.recv_kind(HELLO)
            yield from accept(server_port, hello, ca, gridmap, timeout=30.0)

        def client(env):
            yield from initiate(
                client_port, server_port.endpoint, ca.issue("alice"), timeout=30.0
            )

        env.process(server(env))
        env.process(client(env))
        env.run()
        assert env.now == pytest.approx(0.508, abs=1e-6)
