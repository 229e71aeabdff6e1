"""The vector-clock recorder: a :class:`~repro.simcore.probe.Probe`.

One :class:`Recorder` observes one run.  It maintains a vector clock
per *locus of control* — a co-allocator job, a remote application
process, a site service — ticks it on every observed event, hands the
sender's (immutable) clock to every :class:`~repro.net.message.Message`
at send time (``Message.vclock``), and merges it into the receiver's
clock at delivery.  The result is an append-only :class:`ProtoEvent`
list whose clocks encode the run's happens-before relation exactly
(tests/verify/test_happens_before.py holds them to it).

Loci: components register their endpoints with
:meth:`Recorder.register_locus` (the DUROC job registers its one port,
where check-ins and GRAM callbacks both arrive, as the ``jobid@host``
locus, since its listener/driver processes and its agent's commit share
state legitimately in the single-threaded simulation).  Unregistered
endpoints are their own
locus, which is the right granularity for spawned application
processes — each binds a unique per-pid port.

Everything here is deterministic: no wall clock, no RNG, ids from the
event list's length.  Attaching a recorder never schedules events or
draws random numbers, so a monitored run is byte-identical to an
unmonitored one (tested).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.simcore.probe import Probe
from repro.verify.events import (
    ACCESS,
    DELIVER,
    DROP,
    EVENT,
    SEND,
    ProtoEvent,
)
from repro.verify.vclock import VClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message

#: The clock of a locus nothing has been observed on yet.
_ZERO = VClock()

#: Payload fields worth keeping on message events (scalars only).
_SCALAR_TYPES = (str, int, float, bool)


def _payload_summary(payload: Any) -> dict[str, Any]:
    """Scalar fields of a dict payload, endpoints rendered as strings."""
    if not isinstance(payload, dict):
        return {}
    out: dict[str, Any] = {}
    for key, value in payload.items():
        if isinstance(value, _SCALAR_TYPES) or value is None:
            out[key] = value
        elif hasattr(value, "host") and hasattr(value, "service"):
            out[key] = str(value)
    return out


class Recorder(Probe):
    """Record a run's protocol events under vector clocks."""

    def __init__(self) -> None:
        self.events: list[ProtoEvent] = []
        self._clocks: dict[str, VClock] = {}
        self._locus: dict[str, str] = {}
        self._last_on_node: dict[str, int] = {}
        self._send_seq: dict[int, int] = {}
        self._deliveries: dict[int, int] = {}

    def register_locus(self, endpoint: str, locus: str) -> None:
        self._locus[endpoint] = locus

    def node_of(self, endpoint: Any) -> str:
        """The locus an endpoint (or node label) resolves to."""
        key = str(endpoint)
        return self._locus.get(key, key)

    # -- event recording ----------------------------------------------------

    def _append(
        self,
        node: str,
        kind: str,
        name: str,
        clock: VClock,
        attrs: dict[str, Any],
        link: Optional[int] = None,
        advances_node: bool = True,
    ) -> int:
        """Log one event; returns its sequence number."""
        env = self.env
        seq = len(self.events) + 1
        prev = None
        if advances_node:
            prev = self._last_on_node.get(node)
            self._last_on_node[node] = seq
        self.events.append(ProtoEvent(
            seq, env.now if env is not None else 0.0,
            node, kind, name, clock, attrs, prev, link,
        ))
        return seq

    # -- Probe interface ----------------------------------------------------
    #
    # Clocks are immutable, so a locus's first advance starts from the
    # shared _ZERO and a message carries its sender's clock itself.

    def on_send(self, message: "Message") -> None:
        src, dst = str(message.src), str(message.dst)
        node = self._locus.get(src, src)
        clock = self._clocks[node] = self._clocks.get(node, _ZERO).tick(node)
        message.vclock = clock
        attrs: dict[str, Any] = {"msg_id": message.msg_id, "src": src, "dst": dst}
        if message.corr_id is not None:
            attrs["corr_id"] = message.corr_id
        attrs.update(_payload_summary(message.payload))
        self._send_seq[message.msg_id] = self._append(
            node, SEND, message.kind, clock, attrs
        )

    def on_deliver(self, message: "Message") -> None:
        src, dst, msg_id = str(message.src), str(message.dst), message.msg_id
        node = self._locus.get(dst, dst)
        clock = self._clocks[node] = self._clocks.get(node, _ZERO).merge_tick(
            message.vclock, node
        )
        copy = self._deliveries[msg_id] = self._deliveries.get(msg_id, 0) + 1
        attrs: dict[str, Any] = {"msg_id": msg_id, "src": src, "dst": dst, "copy": copy}
        attrs.update(_payload_summary(message.payload))
        self._append(
            node, DELIVER, message.kind, clock, attrs,
            link=self._send_seq.get(msg_id),
        )

    def on_drop(self, message: "Message", reason: str) -> None:
        # Drops never advance any locus's clock — the destination did
        # not observe anything.  Recorded on a pseudo-node for loss
        # accounting, carrying the send-time clock.
        clock = message.vclock
        if not isinstance(clock, VClock):  # sent unobserved, or stamped by another
            clock = VClock(clock)
        self._append(
            "net",
            DROP,
            message.kind,
            clock,
            {
                "msg_id": message.msg_id,
                "src": str(message.src),
                "dst": str(message.dst),
                "reason": reason,
            },
            link=self._send_seq.get(message.msg_id),
            advances_node=False,
        )

    def event(self, node: str, name: str, attrs: dict[str, Any]) -> None:
        locus = self._locus.get(node, node)
        clock = self._clocks[locus] = self._clocks.get(locus, _ZERO).tick(locus)
        self._append(locus, EVENT, name, clock, dict(attrs))

    def access(
        self, node: str, resource: str, mode: str, attrs: dict[str, Any]
    ) -> None:
        locus = self._locus.get(node, node)
        clock = self._clocks[locus] = self._clocks.get(locus, _ZERO).tick(locus)
        merged = dict(attrs)
        merged["mode"] = mode
        self._append(locus, ACCESS, resource, clock, merged)

    # -- convenience ---------------------------------------------------------

    @property
    def queue_exhausted(self) -> bool:
        """True when the bound environment has no live events pending."""
        if self.env is None:
            return True
        return self.env.peek() == float("inf")
