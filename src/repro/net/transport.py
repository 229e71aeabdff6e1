"""Node-side transport helpers.

A :class:`Port` wraps a bound endpoint with convenient ``send``/
``recv`` methods so simulated services read like socket code:

    port = Port(network, Endpoint("hostA", "gatekeeper"))
    msg = yield port.recv()          # blocks for the next message
    port.send(msg.reply("ok", ...))
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.net.address import Endpoint
from repro.net.message import Message
from repro.net.network import Network
from repro.simcore.resources import StoreGet

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.tracing import TraceContext

_port_ids = itertools.count(1)


def ephemeral_endpoint(host: str, label: str = "tmp") -> Endpoint:
    """A unique client-side endpoint, like an OS-assigned ephemeral port."""
    return Endpoint(host, f"{label}.{next(_port_ids)}")


class Port:
    """A bound endpoint with blocking receive and fire-and-forget send."""

    def __init__(self, network: Network, endpoint: Endpoint) -> None:
        self.network = network
        self.endpoint = endpoint
        self.mailbox = network.bind(endpoint)
        # Correlation ids are per-port (not module-global) so a run is
        # reproducible in isolation: the first RPC from a fresh grid
        # always gets corr_id 1, regardless of what ran earlier in the
        # same process.
        self._corr_ids = itertools.count(1)

    @property
    def env(self):
        return self.network.env

    def next_corr_id(self) -> int:
        """A fresh correlation id, unique within this port."""
        return next(self._corr_ids)

    def send(
        self,
        dst: Endpoint,
        kind: str,
        payload: Any = None,
        reply_to: Optional[Endpoint] = None,
        corr_id: Optional[int] = None,
        ctx: "Optional[TraceContext]" = None,
    ) -> Message:
        """Send a message from this port."""
        message = Message(
            src=self.endpoint,
            dst=dst,
            kind=kind,
            payload=payload,
            reply_to=reply_to,
            corr_id=corr_id,
            trace_ctx=ctx,
        )
        self.network.send(message)
        return message

    def send_message(self, message: Message) -> None:
        """Send a pre-built message (source must be this endpoint)."""
        if message.src != self.endpoint:
            message.src = self.endpoint
        self.network.send(message)

    def recv(
        self,
        filter: Optional[Callable[[Message], bool]] = None,
        timeout: Optional[float] = None,
    ) -> StoreGet:
        """Event firing with the next (matching) inbound message, or with
        :data:`~repro.simcore.resources.TIMED_OUT` after ``timeout`` seconds."""
        return self.mailbox.get(filter, timeout)

    def recv_kind(self, kind: str) -> StoreGet:
        """Event firing with the next message of the given kind."""
        return self.mailbox.get(filter=lambda m: m.kind == kind)

    def pending(self) -> int:
        """Number of messages waiting in the mailbox."""
        return len(self.mailbox)

    def close(self) -> None:
        """Unbind this port's mailbox from the network (idempotent).

        After close, in-flight messages addressed here are dropped as
        "unbound" on arrival.  Ephemeral reply ports should be closed
        once their RPC concludes so long-lived services do not retain a
        mailbox per request ever served; callers that deliberately
        leave ports open to collect late replies (and keep drop counts
        unchanged) simply never call it.
        """
        self.network.unbind(self.endpoint)

    def __repr__(self) -> str:
        return f"<Port {self.endpoint}>"
