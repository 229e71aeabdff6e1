"""The happens-before event log.

A :class:`ProtoEvent` is one observed protocol event — a message send,
delivery, or drop, a named component event, or a state access — stamped
with the simulated time and the recording locus's vector clock.  The
:class:`EventLog` indexes a run's events and answers happens-before
queries; :meth:`EventLog.witness_path` reconstructs a *connected*
causal chain (program-order and message edges only) ending at a given
event, which monitors embed in their findings as the violation witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterator, Mapping, NamedTuple, Optional

from repro.verify.vclock import VClock

#: Event kinds recorded by the probe.
SEND = "send"
DELIVER = "deliver"
DROP = "drop"
EVENT = "event"
ACCESS = "access"


class ProtoEvent(NamedTuple):
    """One observed event of a verified run (immutable, positional:
    the recorder builds one per observation)."""

    seq: int
    time: float
    node: str
    kind: str
    name: str
    clock: VClock
    attrs: Mapping[str, Any] = MappingProxyType({})
    #: Sequence number of the previous event on the same node (program
    #: order), or None for the node's first event.
    prev: Optional[int] = None
    #: For DELIVER/DROP events: sequence number of the matching SEND.
    link: Optional[int] = None

    def describe(self) -> str:
        """One-line rendering used in witness paths and reports."""
        extra = ""
        if self.kind == ACCESS:
            extra = f" [{self.attrs.get('mode', '?')}]"
        job = self.attrs.get("job")
        if job is not None:
            extra += f" job={job}"
        slot = self.attrs.get("slot")
        if slot is not None:
            extra += f" slot={slot}"
        rank = self.attrs.get("rank")
        if rank is not None:
            extra += f" rank={rank}"
        return f"#{self.seq} t={self.time:.6g} {self.node} {self.kind} {self.name}{extra}"


@dataclass(frozen=True)
class RunContext:
    """What the runner knows about a finished run, beyond its events."""

    run_id: str
    #: True when the simulation ran its event queue dry (as opposed to
    #: stopping at a horizon with events still pending) — the condition
    #: under which "will eventually happen" claims become refutable.
    queue_exhausted: bool = True
    end_time: float = 0.0


class EventLog:
    """An indexed, queryable record of one verified run."""

    def __init__(self, events: list[ProtoEvent]) -> None:
        self.events = events
        self._by_seq: dict[int, ProtoEvent] = {e.seq: e for e in events}
        # Monitors query by name and by kind once per request; both
        # indexes keep log order.
        self._by_name: dict[str, list[ProtoEvent]] = {}
        self._by_kind: dict[str, list[ProtoEvent]] = {}
        for e in events:
            self._by_name.setdefault(e.name, []).append(e)
            self._by_kind.setdefault(e.kind, []).append(e)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ProtoEvent]:
        return iter(self.events)

    def get(self, seq: int) -> Optional[ProtoEvent]:
        return self._by_seq.get(seq)

    # -- selection ----------------------------------------------------------

    def named(self, name: str, kind: Optional[str] = None, **attrs: Any) -> list[ProtoEvent]:
        """Events with the given name (and kind / attr filter)."""
        return [
            e
            for e in self._by_name.get(name, ())
            if (kind is None or e.kind == kind)
            and all(e.attrs.get(k) == v for k, v in attrs.items())
        ]

    def of_kind(self, kind: str) -> list[ProtoEvent]:
        return list(self._by_kind.get(kind, ()))

    def accesses(self) -> list[ProtoEvent]:
        return self.of_kind(ACCESS)

    # -- happens-before -----------------------------------------------------

    def happens_before(self, a: ProtoEvent, b: ProtoEvent) -> bool:
        """True iff ``a`` causally precedes ``b``."""
        return a.seq != b.seq and a.clock.leq(b.clock)

    def concurrent(self, a: ProtoEvent, b: ProtoEvent) -> bool:
        """Neither event precedes the other."""
        return a.seq != b.seq and a.clock.concurrent(b.clock)

    # -- witnesses -----------------------------------------------------------

    def witness_path(
        self, target: ProtoEvent, limit: int = 24
    ) -> list[ProtoEvent]:
        """A connected happens-before chain ending at ``target``.

        Walks backwards preferring message edges (a delivery's matching
        send) over program order, so the witness crosses loci where
        causality crossed the network.  Consecutive entries of the
        returned list are always related by one program-order or one
        send→deliver edge; the whole path therefore certifies
        ``path[0] -> ... -> target`` under happens-before.
        """
        chain: list[ProtoEvent] = [target]
        current = target
        while len(chain) < max(2, limit):
            nxt: Optional[ProtoEvent] = None
            if current.link is not None:
                nxt = self._by_seq.get(current.link)
            if nxt is None and current.prev is not None:
                nxt = self._by_seq.get(current.prev)
            if nxt is None:
                break
            chain.append(nxt)
            current = nxt
        chain.reverse()
        return chain

    def render_witness(self, target: ProtoEvent, limit: int = 24) -> tuple[str, ...]:
        """The witness path as display lines for a finding."""
        return tuple(e.describe() for e in self.witness_path(target, limit))
