"""Shared fixtures for GRAM tests: a small grid with one client host."""

import pytest

from repro.gram import CostModel, GramClient, Site
from repro.gsi import CertificateAuthority
from repro.net import Network
from repro.simcore import Environment


def sleeper_program(duration=5.0):
    """Program factory: run for ``duration`` simulated seconds."""

    def program(ctx):
        yield ctx.env.timeout(duration)
        return ctx.rank

    return program


def crasher_program(ctx):
    """Program that raises (models an application bug)."""
    yield ctx.env.timeout(0.1)
    raise RuntimeError("application bug")


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    network = Network(env)
    network.add_host("workstation")
    return network


@pytest.fixture
def ca():
    return CertificateAuthority()


@pytest.fixture
def programs():
    return {
        "sleeper": sleeper_program(5.0),
        "quick": sleeper_program(0.0),
        "buggy": crasher_program,
    }


@pytest.fixture
def site(env, net, ca, programs):
    s = Site(env, net, "origin", nodes=64, ca=ca, programs=programs)
    s.authorize("alice")
    return s


@pytest.fixture
def client(net, ca):
    cred = ca.issue("alice")
    return GramClient(net, "workstation", cred)


@pytest.fixture
def stranger(net, ca):
    cred = ca.issue("mallory")  # valid credential, but in no gridmap
    return GramClient(net, "workstation", cred)


def rsl_for(contact, count=1, executable="sleeper", extra=""):
    return (
        f"&(resourceManagerContact={contact})"
        f"(count={count})(executable={executable}){extra}"
    )


def drive(env, gen):
    """Run ``gen`` as a process to completion; returns its value."""
    return env.run(env.process(gen))


def client_mailboxes(net):
    """Endpoints still bound on the client host, as sorted strings."""
    return sorted(
        str(endpoint) for endpoint in net._mailboxes if endpoint.host == "workstation"
    )
