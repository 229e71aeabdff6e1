"""The flight recorder: bounded black-box capture with triggered dumps.

At the 10⁵–10⁶-event scale the ROADMAP targets, the streaming telemetry
pipeline deliberately *discards* spans and the bounded tables *evict*
state — so by the time a fault campaign or a ``repro.verify`` monitor
fires, the context that explains the failure is gone.  This module is
the always-on black box that closes that gap: a
:class:`FlightRecorder` is a :class:`~repro.simcore.probe.Probe` that
stores every hook it hears as one plain tuple of immutable values in
per-category :class:`FlightRing` buffers of fixed capacity —
O(capacity) memory by construction, policed by the ``mem-*`` lint —
and builds the record objects only when a dump reads them: in a
healthy run no trigger trips, and every observation is evicted unread.

Declarative :class:`Trigger` rules watch the observed stream: fault
activation (:mod:`repro.faults`), breaker-open / retry-exhaustion
(:mod:`repro.resilience`), a co-allocation abort decision, an
unhandled process failure surfacing through the kernel, or a user
predicate.  When one matches, the recorder freezes its buffers and
captures a *dump*: a canonical sorted-key JSON document carrying the
trigger reason, the simulated timestamp, and the last-N records of
every category, each with trace/span ids so the dump correlates with
the streaming pipeline's kept traces.  Dumps are pure functions of the
observed event stream — the same seeded run always produces
byte-identical dump bytes (raw message ids, the one module-global
counter in the stream, are remapped to recorder-local first-seen ids).

Like every probe, the recorder is observation-only: it never schedules
events or draws random numbers, so a recorded run's simulation is
byte-identical to a bare one (asserted by the ``blackbox_stress``
benchmark).  Post-mortem rendering lives in :mod:`repro.obs.blackbox`
(``python -m repro.obs blackbox``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from repro.simcore.probe import Probe
from repro.simcore.tracing import Mark, Span

if TYPE_CHECKING:  # pragma: no cover
    # Imported lazily at construction time: repro.core's package init
    # reaches repro.net, which imports repro.obs — a module-level
    # import here would close that cycle (same break as streaming.py).
    from repro.core.bounded import BoundedDict
    from repro.net.message import Message

#: Dump format tag, bumped on incompatible record changes.
FLIGHT_FORMAT = "repro.obs.flightrec/1"

#: Default per-category ring capacity.
DEFAULT_CAPACITY = 256

#: Default cap on dumps retained per run (later trips are counted, not
#: kept — a trigger matching at event rate must not grow memory).
DEFAULT_MAX_DUMPS = 8

_SCALARS = (str, int, float, bool)


def _clean(value: Any) -> Any:
    """A JSON-representable, deterministic copy of an attribute value."""
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return str(value)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class KernelRecord:
    """One kernel operation: an event dispatched or scheduled."""

    seq: int
    time: float
    op: str  #: ``"step"`` | ``"schedule"``
    when: float  #: the event's deadline (``== time`` for steps)
    queue_size: int  #: resident queue depth after a schedule (0 for steps)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "time": self.time,
            "op": self.op,
            "when": self.when,
            "queue_size": self.queue_size,
        }


@dataclass(frozen=True, slots=True)
class MessageRecord:
    """One network operation: a message sent, delivered, or dropped.

    ``msg`` is the *recorder-local* message id — raw
    :attr:`~repro.net.message.Message.msg_id` values come from a
    module-global counter and would differ between two runs in one
    process; first-seen remapping keeps dumps byte-identical.
    """

    seq: int
    time: float
    op: str  #: ``"send"`` | ``"deliver"`` | ``"drop"``
    msg: int
    kind: str
    src: str
    dst: str
    corr_id: Optional[int]
    trace_id: Optional[str]
    span_id: Optional[int]
    reason: Optional[str]  #: drop reason (``None`` for send/deliver)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "time": self.time,
            "op": self.op,
            "msg": self.msg,
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "corr_id": self.corr_id,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "reason": self.reason,
        }


@dataclass(frozen=True, slots=True)
class ProtoRecord:
    """One protocol observation: a named event or a state access."""

    seq: int
    time: float
    op: str  #: ``"event"`` | ``"access"``
    node: str
    name: str  #: event name, or the resource for accesses
    attrs: dict[str, Any]  #: cleaned (JSON-able) attributes

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "time": self.time,
            "op": self.op,
            "node": self.node,
            "name": self.name,
            "attrs": self.attrs,
        }


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One telemetry operation: a span opened/closed, or a mark."""

    seq: int
    time: float
    op: str  #: ``"open"`` | ``"close"`` | ``"mark"``
    name: str
    trace_id: Optional[str]
    span_id: Optional[int]
    parent_id: Optional[int]

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "time": self.time,
            "op": self.op,
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


FlightRecord = Union[KernelRecord, MessageRecord, ProtoRecord, SpanRecord]


def _message_record(
    seq: int, time: float, op: str, msg: int, kind: str, src: Any, dst: Any, *rest: Any
) -> MessageRecord:
    """A stored message tuple holds the endpoints; their strings are read-time work."""
    return MessageRecord(seq, time, op, msg, kind, str(src), str(dst), *rest)


#: Category -> what builds its records from the tuples its ring stores.
_RENDER: dict[str, Callable[..., FlightRecord]] = {
    "kernel": KernelRecord,
    "message": _message_record,
    "proto": ProtoRecord,
    "span": SpanRecord,
}

#: Record categories, in canonical dump order.
CATEGORIES = tuple(_RENDER)


# ---------------------------------------------------------------------------
# The ring buffer
# ---------------------------------------------------------------------------


class FlightRing:
    """A fixed-capacity ring of flight records, oldest-first eviction.

    Storage is preallocated once; a push is a single subscript store
    and a counter bump — O(1), allocation-free, no resident growth —
    so the recorder can ride the kernel dispatch path.  Eviction is a
    pure function of the push sequence (the oldest record is always
    the victim), the :mod:`repro.core.bounded` determinism contract.
    """

    __slots__ = ("capacity", "pushed", "render", "_slots", "_cleared")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = int(capacity)
        #: Lifetime pushes (``pushed - len(self)`` records were evicted).
        self.pushed = 0
        #: Builds the record of a stored argument tuple when
        #: :meth:`snapshot` reads it (``None``: entries are records).
        self.render: Optional[Callable[..., FlightRecord]] = None
        self._slots: list[Any] = [None] * self.capacity
        #: ``pushed`` as of the last :meth:`clear`.
        self._cleared = 0

    def push(self, record: Any) -> None:
        self._slots[self.pushed % self.capacity] = record
        self.pushed += 1

    def __len__(self) -> int:
        return min(self.pushed - self._cleared, self.capacity)

    @property
    def evicted(self) -> int:
        """Records displaced by later pushes."""
        return self.pushed - len(self)

    def snapshot(self) -> list[Any]:
        """The live records, oldest first."""
        slots, capacity, render = self._slots, self.capacity, self.render
        live = [slots[i % capacity] for i in range(self.pushed - len(self), self.pushed)]
        return live if render is None else [render(*entry) for entry in live]

    def clear(self) -> None:
        """Drop every record (the lifetime ``pushed`` count survives)."""
        self._slots = [None] * self.capacity
        self._cleared = self.pushed

    def __repr__(self) -> str:
        return f"<FlightRing {len(self)}/{self.capacity} pushed={self.pushed}>"


# ---------------------------------------------------------------------------
# Triggers
# ---------------------------------------------------------------------------


class Trigger:
    """One declarative dump rule.

    Subclasses override :meth:`match_event` (protocol events observed
    through the probe seam) and/or :meth:`match_message` (network
    operations), returning a human-readable *reason* string when the
    observation should trip the recorder, ``None`` otherwise.
    Matching must be pure — no side effects, no randomness — so a
    triggered run dumps identically on every replay.
    """

    #: Stable trigger name recorded in the dump.
    name = "trigger"

    def match_event(
        self, node: str, name: str, attrs: dict[str, Any]
    ) -> Optional[str]:
        """Reason to trip on this protocol event, or ``None``."""
        return None

    def match_message(self, op: str, message: "Message") -> Optional[str]:
        """Reason to trip on this message op (send/deliver/drop)."""
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def _overrides(trigger: Trigger, matcher: str) -> bool:
    """Whether ``trigger`` does anything on ``matcher`` (overrides it)."""
    return getattr(getattr(trigger, matcher), "__func__", None) is not getattr(Trigger, matcher)


class OnFault(Trigger):
    """A :mod:`repro.faults` spec activated (``fault.apply``)."""

    name = "fault"

    def __init__(self, kinds: Optional[Sequence[str]] = None) -> None:
        #: Restrict to these FaultSpec class names (``None`` = any).
        self.kinds = frozenset(kinds) if kinds is not None else None

    def match_event(
        self, node: str, name: str, attrs: dict[str, Any]
    ) -> Optional[str]:
        if name != "fault.apply":
            return None
        fault = str(attrs.get("fault", "?"))
        if self.kinds is not None and fault not in self.kinds:
            return None
        site = attrs.get("host") or attrs.get("src") or ""
        return f"fault.apply:{fault}:{site}" if site else f"fault.apply:{fault}"


class OnBreakerOpen(Trigger):
    """A circuit breaker tripped OPEN (:mod:`repro.resilience`)."""

    name = "breaker_open"

    def match_event(
        self, node: str, name: str, attrs: dict[str, Any]
    ) -> Optional[str]:
        if name != "resilience.breaker_open":
            return None
        return f"breaker_open:{attrs.get('endpoint', node)}"


class OnRetryExhausted(Trigger):
    """A retry episode gave up (``RetryExhausted`` raised)."""

    name = "retry_exhausted"

    def match_event(
        self, node: str, name: str, attrs: dict[str, Any]
    ) -> Optional[str]:
        if name != "resilience.retry_exhausted":
            return None
        return (
            f"retry_exhausted:{attrs.get('operation', '?')}"
            f":attempts={attrs.get('attempts', '?')}"
        )


class OnAbort(Trigger):
    """The co-allocator decided to abort (barrier abort / 2PC rollback)."""

    name = "coallocation_abort"

    def match_event(
        self, node: str, name: str, attrs: dict[str, Any]
    ) -> Optional[str]:
        if name != "duroc.abort.decision":
            return None
        return (
            f"coallocation_abort:job={attrs.get('job', '?')}"
            f":reason={attrs.get('reason', '?')}"
        )


class OnProcessFailure(Trigger):
    """An unhandled process exception surfaced through the kernel."""

    name = "process_failure"

    def match_event(
        self, node: str, name: str, attrs: dict[str, Any]
    ) -> Optional[str]:
        if name != "process.unhandled":
            return None
        return f"process_unhandled:{attrs.get('error', '?')}"


class OnPredicate(Trigger):
    """A user-defined rule over protocol events and/or message ops.

    Predicates return a truthy value to trip — a string becomes the
    dump reason, any other truthy value uses the trigger's name.
    """

    def __init__(
        self,
        event: Optional[Callable[[str, str, dict[str, Any]], Any]] = None,
        message: Optional[Callable[[str, "Message"], Any]] = None,
        name: str = "predicate",
    ) -> None:
        self._event = event
        self._message = message
        self.name = name

    def _reason(self, verdict: Any) -> Optional[str]:
        if not verdict:
            return None
        return verdict if isinstance(verdict, str) else self.name

    def match_event(
        self, node: str, name: str, attrs: dict[str, Any]
    ) -> Optional[str]:
        if self._event is None:
            return None
        return self._reason(self._event(node, name, attrs))

    def match_message(self, op: str, message: "Message") -> Optional[str]:
        if self._message is None:
            return None
        return self._reason(self._message(op, message))


#: The default rule set: every failure signal the platform emits.
DEFAULT_TRIGGERS: tuple[Trigger, ...] = (
    OnFault(),
    OnBreakerOpen(),
    OnRetryExhausted(),
    OnAbort(),
    OnProcessFailure(),
)


# ---------------------------------------------------------------------------
# The recorder
# ---------------------------------------------------------------------------


class FlightRecorder(Probe):
    """The always-on black box: bounded capture, triggered dumps.

    Attach through :meth:`repro.gridenv.GridBuilder.with_probe` or
    :func:`repro.simcore.probe.attach`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        triggers: Sequence[Trigger] = DEFAULT_TRIGGERS,
        max_dumps: int = DEFAULT_MAX_DUMPS,
    ) -> None:
        if max_dumps < 1:
            raise ValueError(f"max_dumps must be >= 1, got {max_dumps!r}")
        self.capacity = int(capacity)
        self._triggers: tuple[Trigger, ...] = tuple(triggers)
        # Partitioned once, by the stream each rule overrides a matcher
        # for (FanoutProbe's technique): no per-observation no-op calls.
        self._event_triggers = tuple(
            t for t in self._triggers if _overrides(t, "match_event")
        )
        self._message_triggers = tuple(
            t for t in self._triggers if _overrides(t, "match_message")
        )
        self.max_dumps = int(max_dumps)
        #: Category name -> ring, in canonical dump order.
        self.rings: dict[str, FlightRing] = {}
        for category, render in _RENDER.items():
            ring = self.rings[category] = FlightRing(self.capacity)
            ring.render = render
        self._kernel = self.rings["kernel"]
        self._message = self.rings["message"]
        self._proto = self.rings["proto"]
        self._span = self.rings["span"]
        #: Captured dumps, oldest first, at most ``max_dumps``.
        self.dumps: list[dict[str, Any]] = []
        #: Trips observed after the dump cap was reached.
        self.dumps_suppressed = 0
        #: While frozen, every hook drops its observation.
        self.frozen = False
        self._seq = 0
        from repro.core.bounded import BoundedDict

        #: raw Message.msg_id -> recorder-local id, first-seen order.
        self._msg_local: BoundedDict[int, int] = BoundedDict(4 * self.capacity)
        self._msg_next = 0
        #: Peak retained count as of the last :meth:`reset`.
        self._retained_floor = 0

    @property
    def triggers(self) -> tuple[Trigger, ...]:
        """The rule set, fixed at construction (where it is partitioned)."""
        return self._triggers

    def retained(self) -> int:
        """Live records across rings and the message-id table."""
        return sum(map(len, self.rings.values())) + len(self._msg_local)

    @property
    def retained_high_water(self) -> int:
        """Peak of :meth:`retained`.

        Rings and the id table only ever fill up between two
        :meth:`reset` calls, so the peak is the current count or the
        one the last reset saw — nothing is counted per record.
        """
        return max(self._retained_floor, self.retained())

    @property
    def records_observed(self) -> int:
        """Lifetime observations recorded (the global sequence counter)."""
        return self._seq

    def _now(self) -> float:
        env = self.env
        return env.now if env is not None else 0.0

    def _local_msg_id(self, raw: int) -> int:
        table = self._msg_local
        if raw in table:  # a probe; the read below refreshes recency
            return table[raw]
        self._msg_next += 1
        table[raw] = self._msg_next
        return self._msg_next

    # -- probe hooks (the hot path) ----------------------------------------
    #
    # Each stores one tuple in its record class's field order — immutable
    # values, plus the recorder's own cleaned copy of any attrs — and
    # FlightRing.snapshot builds the records.  The kernel and message
    # hooks (nine records in ten) read the clock in line.

    def on_schedule(self, when: float, queue_size: int) -> None:
        if self.frozen:
            return
        seq = self._seq = self._seq + 1
        env = self.env
        now = env.now if env is not None else 0.0
        self._kernel.push((seq, now, "schedule", when, queue_size))

    def on_step(self, now: float) -> None:
        if self.frozen:
            return
        seq = self._seq = self._seq + 1
        self._kernel.push((seq, now, "step", now, 0))

    def _message_op(
        self, op: str, message: "Message", reason: Optional[str]
    ) -> None:
        if self.frozen:
            return
        seq = self._seq = self._seq + 1
        env = self.env
        ctx = message.trace_ctx
        self._message.push((
            seq,
            env.now if env is not None else 0.0,
            op,
            self._local_msg_id(message.msg_id),
            message.kind,
            message.src,
            message.dst,
            message.corr_id,
            ctx.trace_id if ctx is not None else None,
            ctx.span_id if ctx is not None else None,
            reason,
        ))
        for trigger in self._message_triggers:
            matched = trigger.match_message(op, message)
            if matched is not None:
                self.trip(matched, trigger=trigger.name)
                break

    def on_send(self, message: "Message") -> None:
        self._message_op("send", message, None)

    def on_deliver(self, message: "Message") -> None:
        self._message_op("deliver", message, None)

    def on_drop(self, message: "Message", reason: str) -> None:
        self._message_op("drop", message, reason)

    def event(self, node: str, name: str, attrs: dict[str, Any]) -> None:
        if self.frozen:
            return
        seq = self._seq = self._seq + 1
        # attrs may hold mutable values: cleaned now, never at read time.
        self._proto.push((seq, self._now(), "event", node, name, _clean(attrs)))
        for trigger in self._event_triggers:
            matched = trigger.match_event(node, name, attrs)
            if matched is not None:
                self.trip(matched, trigger=trigger.name)
                break

    def access(
        self, node: str, resource: str, mode: str, attrs: dict[str, Any]
    ) -> None:
        if self.frozen:
            return
        seq = self._seq = self._seq + 1
        cleaned = _clean(attrs)
        cleaned["mode"] = mode
        self._proto.push((seq, self._now(), "access", node, resource, cleaned))

    def on_span_open(
        self, trace_id: str, span_id: int, parent_id: Optional[int], name: str
    ) -> None:
        if self.frozen:
            return
        seq = self._seq = self._seq + 1
        self._span.push(
            (seq, self._now(), "open", name, trace_id, span_id, parent_id)
        )

    def on_span_close(self, span: Span) -> None:
        if self.frozen:
            return
        seq = self._seq = self._seq + 1
        self._span.push((
            seq, span.end, "close", span.name,
            span.trace_id, span.span_id, span.parent_id,
        ))

    def on_mark(self, mark: Mark) -> None:
        if self.frozen:
            return
        seq = self._seq = self._seq + 1
        self._span.push(
            (seq, mark.time, "mark", mark.name, mark.trace_id, None, mark.parent_id)
        )

    # -- freeze / dump ------------------------------------------------------

    def freeze(self) -> None:
        """Stop recording: every subsequent observation is dropped."""
        self.frozen = True

    def resume(self) -> None:
        """Resume recording after a :meth:`freeze`."""
        self.frozen = False

    def trip(self, reason: str, trigger: str = "manual") -> Optional[dict[str, Any]]:
        """Freeze, capture a dump, resume; returns the dump.

        Beyond ``max_dumps`` the trip is counted
        (:attr:`dumps_suppressed`) and ``None`` is returned — a
        trigger matching at event rate must not grow memory.
        """
        self.freeze()
        try:
            if len(self.dumps) >= self.max_dumps:
                self.dumps_suppressed += 1
                return None
            dump = self._capture(trigger, reason)
            self.dumps.append(dump)
            return dump
        finally:
            self.resume()

    def reset(self) -> None:
        """Clear rings and dumps (lifetime counters survive)."""
        self._retained_floor = self.retained_high_water
        for ring in self.rings.values():
            ring.clear()
        self.dumps = []

    def _capture(self, trigger: str, reason: str) -> dict[str, Any]:
        counts: dict[str, Any] = {}
        records: dict[str, Any] = {}
        for category, ring in self.rings.items():
            counts[category] = {
                "pushed": ring.pushed,
                "live": len(ring),
                "evicted": ring.evicted,
            }
            records[category] = [record.to_dict() for record in ring.snapshot()]
        return {
            "format": FLIGHT_FORMAT,
            "trigger": {
                "trigger": trigger,
                "reason": reason,
                "time": self._now(),
                "seq": self._seq,
            },
            "counts": counts,
            "retained_high_water": self.retained_high_water,
            "dumps_suppressed": self.dumps_suppressed,
            "records": records,
        }

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder capacity={self.capacity} seq={self._seq} "
            f"dumps={len(self.dumps)}{' frozen' if self.frozen else ''}>"
        )


# ---------------------------------------------------------------------------
# Dump serialization
# ---------------------------------------------------------------------------


def dump_json(dump: dict[str, Any]) -> str:
    """A dump's canonical byte form: sorted keys, 2-space indent."""
    return json.dumps(dump, sort_keys=True, indent=2) + "\n"


def dump_digest(dump: dict[str, Any]) -> str:
    """SHA-256 of the canonical dump bytes (the replay-identity proof)."""
    return hashlib.sha256(dump_json(dump).encode()).hexdigest()


def write_dump(dump: dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a dump in canonical form; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_json(dump))
    return path
