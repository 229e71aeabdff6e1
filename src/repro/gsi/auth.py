"""Mutual authentication handshake (simulated GSI).

The paper's Fig. 3 breakdown attributes ~0.5 s of each GRAM request to
"a call to the Grid Security Infrastructure (GSI) library that performs
a mutual authentication of the requestor and target machine", noting
the operations are "computationally intensive and also require network
communication".  We model exactly that: a four-message handshake
(hello → challenge → response → result) plus CPU delays on both sides
whose sum defaults to the paper's 0.5 s.

Client side::

    session = yield from initiate(port, gatekeeper_ep, credential, config)

Server side (inside a service loop that received ``hello``)::

    session = yield from accept(port, hello_msg, ca, gridmap, config, now)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import AuthenticationError, AuthTimeout
from repro.gsi.credentials import CertificateAuthority, Credential
from repro.gsi.gridmap import GridMap
from repro.net.address import Endpoint
from repro.net.message import Message
from repro.net.transport import Port
from repro.simcore.resources import TIMED_OUT

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment
    from repro.simcore.tracing import TraceContext

_session_ids = itertools.count(1)

#: Handshake message kinds.
HELLO = "gsi.hello"
CHALLENGE = "gsi.challenge"
RESPONSE = "gsi.response"
RESULT = "gsi.result"


@dataclass(frozen=True)
class AuthConfig:
    """Cost parameters of the handshake.

    Defaults reproduce the paper's ~0.5 s authentication contribution
    (0.25 s of public-key work on each side).
    """

    client_cpu: float = 0.25
    server_cpu: float = 0.25

    @property
    def total_cpu(self) -> float:
        return self.client_cpu + self.server_cpu


@dataclass(frozen=True)
class AuthSession:
    """Outcome of a successful mutual authentication."""

    session_id: int
    subject: str
    local_user: str
    peer: Endpoint


def initiate(
    port: Port,
    dst: Endpoint,
    credential: Credential,
    config: Optional[AuthConfig] = None,
    timeout: Optional[float] = None,
    ctx: "Optional[TraceContext]" = None,
) -> Generator:
    """Client half of the handshake; returns an :class:`AuthSession`.

    Raises :class:`AuthenticationError` if the server rejects us or the
    handshake times out.  ``ctx`` rides on the HELLO so the server can
    parent its auth span under the caller's request.
    """
    config = config or AuthConfig()
    env = port.env
    corr = next(_session_ids)
    port.send(dst, HELLO, payload={"credential": credential},
              reply_to=port.endpoint, corr_id=corr, ctx=ctx)

    # The server answers with CHALLENGE, or with an early RESULT on
    # verification/authorization failure.
    challenge = yield from _await(port, corr, (CHALLENGE, RESULT), timeout)
    if challenge.kind == RESULT:
        raise AuthenticationError(challenge.payload["reason"])
    # Public-key response computation on the client.
    if config.client_cpu > 0:
        yield env.timeout(config.client_cpu)
    port.send(dst, RESPONSE, payload={"nonce": challenge.payload["nonce"]},
              reply_to=port.endpoint, corr_id=corr, ctx=ctx)

    result = yield from _await(port, corr, RESULT, timeout)
    outcome = result.payload
    if not outcome["ok"]:
        raise AuthenticationError(outcome["reason"])
    return AuthSession(
        session_id=corr,
        subject=credential.subject,
        local_user=outcome["local_user"],
        peer=dst,
    )


def _await(port: Port, corr: int, kind, timeout: Optional[float]):
    """Wait for a correlated handshake message, with optional deadline.

    ``kind`` may be a single kind string or a tuple of acceptable kinds.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    message = yield port.recv(
        lambda m: m.corr_id == corr and m.kind in kinds, timeout
    )
    if message is TIMED_OUT:
        raise AuthTimeout(
            f"handshake timed out waiting for {kind}", timeout=timeout
        )
    return message


def accept(
    port: Port,
    hello: Message,
    ca: CertificateAuthority,
    gridmap: GridMap,
    config: Optional[AuthConfig] = None,
    timeout: Optional[float] = None,
) -> Generator:
    """Server half of the handshake; returns an :class:`AuthSession`.

    Raises :class:`AuthenticationError` on verification failure or
    unmapped subjects (after informing the client).
    """
    config = config or AuthConfig()
    env = port.env
    credential: Credential = hello.payload["credential"]
    client = hello.reply_to
    corr = hello.corr_id

    # Credential verification is the expensive public-key operation.
    if config.server_cpu > 0:
        yield env.timeout(config.server_cpu)

    if not ca.verify(credential, now=env.now):
        port.send(client, RESULT, corr_id=corr,
                  payload={"ok": False, "reason": "credential verification failed"})
        raise AuthenticationError(
            f"credential for {credential.subject!r} failed verification"
        )
    if not gridmap.authorized(credential.subject):
        port.send(client, RESULT, corr_id=corr,
                  payload={"ok": False,
                           "reason": f"subject {credential.identity!r} not in gridmap"})
        raise AuthenticationError(
            f"subject {credential.identity!r} not authorized"
        )

    nonce = next(_session_ids)
    port.send(client, CHALLENGE, corr_id=corr, payload={"nonce": nonce})

    response = yield from _await(port, corr, RESPONSE, timeout)
    if response.payload["nonce"] != nonce:
        port.send(client, RESULT, corr_id=corr,
                  payload={"ok": False, "reason": "bad challenge response"})
        raise AuthenticationError("bad challenge response")

    local_user = gridmap.lookup(credential.subject)
    port.send(client, RESULT, corr_id=corr,
              payload={"ok": True, "local_user": local_user})
    return AuthSession(
        session_id=corr,
        subject=credential.subject,
        local_user=local_user,
        peer=client,
    )
