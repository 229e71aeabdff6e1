"""The happens-before recorder: a :class:`~repro.simcore.probe.Probe`.

One :class:`Recorder` observes one run.  It appends one
:class:`ProtoEvent` per observation — a message send, delivery or drop,
a named component event, a state access — on the event's *locus of
control* (a co-allocator job, a remote application process, a site
service), with two edges: ``prev``, the locus's previous event (program
order), and ``link``, a delivery's or drop's matching send (the message
edge).  Those edges are the run's happens-before relation; the
recorder builds no clock while the run executes, and
:class:`~repro.verify.events.EventLog` derives vector clocks from the
edges only when a monitor asks a cross-locus question
(tests/verify/test_happens_before.py holds them to reachability).
An event's attributes are stored as an
:class:`~repro.verify.events.AttrRow`: the values, and a key tuple
shared by every event with the same layout.

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

from repro.net.address import Endpoint
from repro.simcore.probe import Probe
from repro.verify.events import (
    ACCESS,
    DELIVER,
    DROP,
    EVENT,
    SEND,
    AttrRow,
    ProtoEvent,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message

#: Payload fields worth keeping on message events (scalars only).
_SCALAR_TYPES = (str, int, float, bool)


def _add_payload(attrs: dict[str, Any], payload: Any) -> None:
    """Add a dict payload's scalar fields to ``attrs``, endpoints as
    their ``host:port`` text."""
    if not isinstance(payload, dict):
        return
    for key, value in payload.items():
        if isinstance(value, _SCALAR_TYPES) or value is None:
            attrs[key] = value
        elif isinstance(value, Endpoint):
            attrs[key] = str(value)


class Recorder(Probe):
    """Record a run's protocol events with their happens-before edges."""

    def __init__(self) -> None:
        self.events: list[ProtoEvent] = []
        self._locus: dict[str, str] = {}
        self._last_on_node: dict[str, int] = {}
        self._send_seq: dict[int, int] = {}
        self._deliveries: dict[int, int] = {}
        #: key tuple -> itself: one shared key tuple per attrs layout.
        self._layouts: dict[tuple[str, ...], tuple[str, ...]] = {}

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
        attrs: dict[str, Any],
        link: Optional[int] = None,
        advances_node: bool = True,
    ) -> int:
        """Log one event, its attrs stored as a compact row; returns its
        sequence number."""
        env = self.env
        seq = len(self.events) + 1
        prev = None
        if advances_node:
            prev = self._last_on_node.get(node)
            self._last_on_node[node] = seq
        keys = tuple(attrs)
        row = AttrRow(self._layouts.setdefault(keys, keys), tuple(attrs.values()))
        self.events.append(ProtoEvent(
            seq, env.now if env is not None else 0.0,
            node, kind, name, row, prev, link,
        ))
        return seq

    # -- Probe interface ----------------------------------------------------

    def on_send(self, message: "Message") -> None:
        src, dst = str(message.src), str(message.dst)
        attrs: dict[str, Any] = {"msg_id": message.msg_id, "src": src, "dst": dst}
        if message.corr_id is not None:
            attrs["corr_id"] = message.corr_id
        _add_payload(attrs, message.payload)
        self._send_seq[message.msg_id] = self._append(
            self._locus.get(src, src), SEND, message.kind, attrs
        )

    def on_deliver(self, message: "Message") -> None:
        src, dst, msg_id = str(message.src), str(message.dst), message.msg_id
        copy = self._deliveries[msg_id] = self._deliveries.get(msg_id, 0) + 1
        attrs: dict[str, Any] = {"msg_id": msg_id, "src": src, "dst": dst, "copy": copy}
        _add_payload(attrs, message.payload)
        self._append(
            self._locus.get(dst, dst), DELIVER, message.kind, attrs,
            link=self._send_seq.get(msg_id),
        )

    def on_drop(self, message: "Message", reason: str) -> None:
        # A drop advances no locus — the destination observed nothing.
        # It is recorded on a pseudo-node for loss accounting, linked to
        # its send.
        self._append(
            "net",
            DROP,
            message.kind,
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
        self._append(self._locus.get(node, node), EVENT, name, attrs)

    def access(
        self, node: str, resource: str, mode: str, attrs: dict[str, Any]
    ) -> None:
        merged = dict(attrs)
        merged["mode"] = mode
        self._append(self._locus.get(node, node), ACCESS, resource, merged)

    # -- convenience ---------------------------------------------------------

    @property
    def queue_exhausted(self) -> bool:
        """True when the bound environment has no live events pending."""
        if self.env is None:
            return True
        return self.env.peek() == float("inf")
