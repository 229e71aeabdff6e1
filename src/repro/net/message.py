"""Message envelopes carried by the simulated network."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.net.address import Endpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.simcore.tracing import TraceContext


@dataclass(slots=True)
class Message:
    """A unit of delivery: source, destination, kind tag, and payload.

    ``kind`` is a small string protocol tag (e.g. ``"gram.submit"``,
    ``"duroc.checkin"``) used by receivers to demultiplex; ``payload``
    is an arbitrary (ideally immutable) Python object.  ``reply_to`` and
    ``corr_id`` support request/response correlation in the RPC layer.
    ``trace_ctx`` carries the sender's trace context so the receiver can
    parent its spans causally (see ``repro.simcore.tracing``).

    A message in flight is its own kernel event: :meth:`Network.send
    <repro.net.network.Network.send>` sets ``network`` and
    ``callbacks`` and schedules the envelope, and the kernel hands it
    to the delivery callback, which clears ``network`` again.  Nothing
    waits on a delivery, so the event flags are constants of the
    class; ``callbacks`` is None except while the message is in flight.
    """

    #: The kernel's event flags: a delivery is never cancelled and
    #: never fails.
    cancelled: ClassVar[bool] = False
    _ok: ClassVar[bool] = True
    _defused: ClassVar[bool] = False

    src: Endpoint
    dst: Endpoint
    kind: str
    payload: Any = None
    reply_to: Endpoint | None = None
    corr_id: int | None = None
    #: Numbered per world by the network that sends it (0 until sent).
    msg_id: int = 0
    sent_at: float | None = None
    delivered_at: float | None = None
    trace_ctx: "TraceContext | None" = None
    #: The delivery callbacks while in flight (else None).
    callbacks: "tuple[Callable[[Message], None], ...] | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The network delivering the message while in flight (else None).
    network: "Network | None" = field(default=None, init=False, repr=False, compare=False)

    def reply(self, kind: str, payload: Any = None) -> "Message":
        """Build a response message correlated with this request."""
        if self.reply_to is None:
            raise ValueError(f"message {self.kind!r} has no reply_to endpoint")
        return Message(
            self.dst, self.reply_to, kind, payload, None, self.corr_id,
            trace_ctx=self.trace_ctx,
        )

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.kind} {self.src} -> {self.dst}"
            f"{' corr=' + str(self.corr_id) if self.corr_id is not None else ''}>"
        )
