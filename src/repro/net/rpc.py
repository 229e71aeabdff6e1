"""Request/response RPC over the message network.

``call()`` sends a request message carrying a fresh correlation id and
returns an event that fires with the reply payload — or fails with
:class:`~repro.errors.RPCTimeout` if no reply arrives in time.  This is
the primitive from which the GRAM client library and the DUROC control
library are built; the paper's co-allocation protocol relies on exactly
this "request may fail or time out" behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import NetworkError, RPCTimeout
from repro.net.address import Endpoint
from repro.net.message import Message
from repro.net.transport import Port
from repro.simcore.metrics import NULL_METRICS
from repro.simcore.resources import TIMED_OUT

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.tracing import TraceContext

#: Reply-kind suffix convention: a request of kind "x" is answered with
#: a message of kind "x.reply".
REPLY_SUFFIX = ".reply"


class RPCError(NetworkError):
    """A remote handler signalled failure; carries the remote payload."""

    def __init__(self, payload: Any) -> None:
        super().__init__(payload)
        self.payload = payload


def call(
    port: Port,
    dst: Endpoint,
    kind: str,
    payload: Any = None,
    timeout: Optional[float] = None,
    ctx: "Optional[TraceContext]" = None,
) -> Generator:
    """Perform an RPC; designed to be delegated to with ``yield from``.

    Returns the reply payload.  Raises :class:`RPCTimeout` on timeout
    and :class:`RPCError` if the remote answered with ``kind + ".error"``.
    ``ctx`` rides on the request so the remote handler can parent its
    spans under the caller's.
    """
    network = port.network
    env = network.env
    # Unobserved runs (NULL_METRICS) make no metering calls.
    metered = network.metrics is not NULL_METRICS
    corr = port.next_corr_id()
    if metered:
        started = env.now
        series = network.kind_series(kind)
        series.rpc_calls.inc()
    endpoint = port.endpoint
    network.send(Message(endpoint, dst, kind, payload, endpoint, corr, trace_ctx=ctx))

    message: Message = yield port.mailbox.get(lambda m: m.corr_id == corr, timeout)
    if message is TIMED_OUT:
        if metered:
            series.rpc_timeouts.inc()
        raise RPCTimeout(
            f"rpc {kind!r} to {dst} timed out after {timeout:g}s",
            endpoint=dst,
            kind=kind,
            timeout=timeout,
        )

    if metered:
        series.rpc_latency.observe(env.now - started)
    if message.kind == kind + ".error":
        raise RPCError(message.payload)
    return message.payload


def reply_ok(port: Port, request: Message, payload: Any = None) -> None:
    """Send the success reply for ``request``."""
    reply = request.reply(request.kind + REPLY_SUFFIX, payload)
    # A request received on this port already names it as the source.
    if reply.src is port.endpoint:
        port.network.send(reply)
    else:
        port.send_message(reply)


def reply_error(port: Port, request: Message, payload: Any = None) -> None:
    """Send the failure reply for ``request``."""
    reply = request.reply(request.kind + ".error", payload)
    if reply.src is port.endpoint:
        port.network.send(reply)
    else:
        port.send_message(reply)
