"""Message envelopes carried by the simulated network."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.net.address import Endpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.tracing import TraceContext

_msg_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """A unit of delivery: source, destination, kind tag, and payload.

    ``kind`` is a small string protocol tag (e.g. ``"gram.submit"``,
    ``"duroc.checkin"``) used by receivers to demultiplex; ``payload``
    is an arbitrary (ideally immutable) Python object.  ``reply_to`` and
    ``corr_id`` support request/response correlation in the RPC layer.
    ``trace_ctx`` carries the sender's trace context so the receiver can
    parent its spans causally (see ``repro.simcore.tracing``).
    """

    src: Endpoint
    dst: Endpoint
    kind: str
    payload: Any = None
    reply_to: Endpoint | None = None
    corr_id: int | None = None
    size_bytes: int = 256
    msg_id: int = field(default_factory=_msg_ids.__next__)
    sent_at: float | None = None
    delivered_at: float | None = None
    trace_ctx: "TraceContext | None" = None
    #: Sender's vector clock at send time: the runtime verification
    #: recorder's own immutable clock object, shared, not a copy (see
    #: ``repro.verify``); None when no recorder is attached.
    vclock: "Mapping[str, int] | None" = None

    def reply(self, kind: str, payload: Any = None) -> "Message":
        """Build a response message correlated with this request."""
        if self.reply_to is None:
            raise ValueError(f"message {self.kind!r} has no reply_to endpoint")
        return Message(
            src=self.dst,
            dst=self.reply_to,
            kind=kind,
            payload=payload,
            corr_id=self.corr_id,
            trace_ctx=self.trace_ctx,
        )

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.kind} {self.src} -> {self.dst}"
            f"{' corr=' + str(self.corr_id) if self.corr_id is not None else ''}>"
        )
