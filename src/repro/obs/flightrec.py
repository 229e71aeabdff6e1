"""The flight recorder: bounded black-box capture with triggered dumps.

A long-lived world moves on, so by the time a fault campaign or a
``repro.verify`` monitor fires, the context that explains the failure
may be gone.  This module is the always-on black box that
closes that gap: a :class:`FlightRecorder` is a
:class:`~repro.simcore.probe.Probe` that stores every hook it hears as
one plain tuple of immutable values, in the field order :data:`FIELDS`
names, in one ``deque(maxlen=CAPACITY)`` per category — O(capacity)
memory by construction — and builds the record dicts only when a dump
reads them: in a healthy run nothing trips, and every observation is
evicted unread.

:data:`RULES` maps the platform's failure signals to a dump: fault
activation (:mod:`repro.faults`), retry exhaustion
(:mod:`repro.resilience`), a co-allocation abort decision, and an
unhandled process failure surfacing through the kernel.  When a
protocol event named there is heard, the recorder captures a *dump*: a
canonical sorted-key JSON document carrying the trigger reason, the
simulated timestamp, and the last :data:`CAPACITY` records of every
category, each with trace/span ids so the dump correlates with the
tracer's span tree.  Dumps are pure functions of the observed event
stream — the same seeded run always produces byte-identical dump bytes
(raw message ids, the one module-global counter in the stream, are
remapped to recorder-local first-seen ids).

Like every probe, the recorder is observation-only: it never schedules
events or draws random numbers, so a recorded run's simulation is
byte-identical to a bare one (asserted by
``tests/obs/test_flightrec.py``).  Post-mortem rendering lives in
:mod:`repro.obs.blackbox` (``python -m repro.obs blackbox``).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro.simcore.probe import Probe
from repro.simcore.tracing import Mark, Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message

#: Dump format tag, bumped on incompatible record changes.
FLIGHT_FORMAT = "repro.obs.flightrec/1"

#: Records kept per category (older ones are evicted unread).
CAPACITY = 256

#: Raw message ids remembered for remapping; past it the oldest
#: inserted id is forgotten (a later sighting gets a fresh local id).
MSG_IDS_MAX = 4 * CAPACITY

#: Dumps kept per run (later trips are counted, not kept — a rule
#: matching at event rate must not grow memory).
MAX_DUMPS = 8

#: Category -> the fields of its records, in the order its hooks store
#: them; categories in canonical dump order.  ``msg`` is the
#: recorder-local message id; ``when`` an event's deadline (``== time``
#: for steps); ``queue_size`` the queue depth after a schedule (0 for
#: steps); ``name`` a proto event's name or an access's resource;
#: ``reason`` a drop's reason (``None`` for send/deliver).
FIELDS: dict[str, tuple[str, ...]] = {
    "kernel": ("seq", "time", "op", "when", "queue_size"),
    "message": (
        "seq", "time", "op", "msg", "kind", "src", "dst",
        "corr_id", "trace_id", "span_id", "reason",
    ),
    "proto": ("seq", "time", "op", "node", "name", "attrs"),
    "span": ("seq", "time", "op", "name", "trace_id", "span_id", "parent_id"),
}


def _fault_reason(attrs: dict[str, Any]) -> str:
    site = attrs.get("host") or attrs.get("src") or ""
    fault = attrs.get("fault", "?")
    return f"fault.apply:{fault}:{site}" if site else f"fault.apply:{fault}"


#: Protocol event name -> (trigger name, the dump reason of its attrs):
#: every failure signal the platform emits.
RULES: dict[str, tuple[str, Callable[[dict[str, Any]], str]]] = {
    "fault.apply": ("fault", _fault_reason),
    "resilience.retry_exhausted": ("retry_exhausted", lambda attrs: (
        f"retry_exhausted:{attrs.get('operation', '?')}"
        f":attempts={attrs.get('attempts', '?')}"
    )),
    "duroc.abort.decision": ("coallocation_abort", lambda attrs: (
        f"coallocation_abort:job={attrs.get('job', '?')}"
        f":reason={attrs.get('reason', '?')}"
    )),
    "process.unhandled": ("process_failure", lambda attrs: (
        f"process_unhandled:{attrs.get('error', '?')}"
    )),
}

_SCALARS = (str, int, float, bool)


def _clean(value: Any) -> Any:
    """A JSON-representable copy of an attribute value.

    Keys keep their insertion order: every dump is serialised with
    ``sort_keys=True`` (:func:`dump_json`, the blackbox renderer).
    """
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    return str(value)


def _record(category: str, entry: tuple[Any, ...]) -> dict[str, Any]:
    """The dump record of one stored tuple."""
    record = dict(zip(FIELDS[category], entry))
    if category == "message":  # endpoints are stored, their text is read-time work
        record["src"], record["dst"] = str(record["src"]), str(record["dst"])
    return record


class FlightRecorder(Probe):
    """The always-on black box: bounded capture, triggered dumps.

    Attach through :meth:`repro.gridenv.GridBuilder.with_probe` or
    :func:`repro.simcore.probe.attach`.
    """

    def __init__(self) -> None:
        #: Category -> its ring, in canonical dump order.
        self.rings: dict[str, deque[tuple[Any, ...]]] = {
            category: deque(maxlen=CAPACITY) for category in FIELDS
        }
        #: Category -> lifetime pushes (``pushed - len(ring)`` were evicted).
        self.pushed: dict[str, int] = dict.fromkeys(FIELDS, 0)
        self._kernel = self.rings["kernel"]
        self._message = self.rings["message"]
        self._proto = self.rings["proto"]
        self._span = self.rings["span"]
        #: Captured dumps, oldest first, at most :data:`MAX_DUMPS`.
        self.dumps: list[dict[str, Any]] = []
        #: Trips observed after the dump cap was reached.
        self.dumps_suppressed = 0
        self._seq = 0
        #: raw Message.msg_id -> recorder-local id, first-seen order.
        self._msg_local: dict[int, int] = {}
        self._msg_next = 0

    def retained(self) -> int:
        """Live records across rings and the message-id table.

        Neither ever shrinks, so this is also the peak.
        """
        return sum(map(len, self.rings.values())) + len(self._msg_local)

    def _now(self) -> float:
        env = self.env
        return env.now if env is not None else 0.0

    def _local_msg_id(self, raw: int) -> int:
        table = self._msg_local
        local = table.get(raw)
        if local is None:
            self._msg_next += 1
            local = table[raw] = self._msg_next
            if len(table) > MSG_IDS_MAX:
                del table[next(iter(table))]
        return local

    # -- probe hooks (the hot path) ----------------------------------------
    #
    # Each stores one tuple in its category's FIELDS order — immutable
    # values, plus the recorder's own cleaned copy of any attrs — and a
    # dump builds the records.  The kernel and message hooks (nine
    # records in ten) read the clock in line.

    def on_schedule(self, when: float, queue_size: int) -> None:
        seq = self._seq = self._seq + 1
        env = self.env
        now = env.now if env is not None else 0.0
        self.pushed["kernel"] += 1
        self._kernel.append((seq, now, "schedule", when, queue_size))

    def on_step(self, now: float) -> None:
        seq = self._seq = self._seq + 1
        self.pushed["kernel"] += 1
        self._kernel.append((seq, now, "step", now, 0))

    def _message_op(
        self, op: str, message: "Message", reason: Optional[str]
    ) -> None:
        seq = self._seq = self._seq + 1
        env = self.env
        ctx = message.trace_ctx
        self.pushed["message"] += 1
        self._message.append((
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

    def on_send(self, message: "Message") -> None:
        self._message_op("send", message, None)

    def on_deliver(self, message: "Message") -> None:
        self._message_op("deliver", message, None)

    def on_drop(self, message: "Message", reason: str) -> None:
        self._message_op("drop", message, reason)

    def event(self, node: str, name: str, attrs: dict[str, Any]) -> None:
        seq = self._seq = self._seq + 1
        self.pushed["proto"] += 1
        # attrs may hold mutable values: cleaned now, never at read time.
        self._proto.append((seq, self._now(), "event", node, name, _clean(attrs)))
        rule = RULES.get(name)
        if rule is not None:
            trigger, reason = rule
            self.trip(reason(attrs), trigger=trigger)

    def access(
        self, node: str, resource: str, mode: str, attrs: dict[str, Any]
    ) -> None:
        seq = self._seq = self._seq + 1
        cleaned = _clean(attrs)
        cleaned["mode"] = mode
        self.pushed["proto"] += 1
        self._proto.append((seq, self._now(), "access", node, resource, cleaned))

    def on_span_open(
        self, trace_id: str, span_id: int, parent_id: Optional[int], name: str
    ) -> None:
        seq = self._seq = self._seq + 1
        self.pushed["span"] += 1
        self._span.append(
            (seq, self._now(), "open", name, trace_id, span_id, parent_id)
        )

    def on_span_close(self, span: Span) -> None:
        seq = self._seq = self._seq + 1
        self.pushed["span"] += 1
        self._span.append((
            seq, span.end, "close", span.name,
            span.trace_id, span.span_id, span.parent_id,
        ))

    def on_mark(self, mark: Mark) -> None:
        seq = self._seq = self._seq + 1
        self.pushed["span"] += 1
        self._span.append(
            (seq, mark.time, "mark", mark.name, mark.trace_id, None, mark.parent_id)
        )

    # -- dump ---------------------------------------------------------------

    def trip(self, reason: str, trigger: str = "manual") -> Optional[dict[str, Any]]:
        """Capture a dump of the rings as they stand; returns the dump.

        Beyond :data:`MAX_DUMPS` the trip is counted
        (:attr:`dumps_suppressed`) and ``None`` is returned.
        """
        if len(self.dumps) >= MAX_DUMPS:
            self.dumps_suppressed += 1
            return None
        counts: dict[str, Any] = {}
        records: dict[str, Any] = {}
        for category, ring in self.rings.items():
            pushed = self.pushed[category]
            counts[category] = {
                "pushed": pushed,
                "live": len(ring),
                "evicted": pushed - len(ring),
            }
            records[category] = [_record(category, entry) for entry in ring]
        dump = {
            "format": FLIGHT_FORMAT,
            "trigger": {
                "trigger": trigger,
                "reason": reason,
                "time": self._now(),
                "seq": self._seq,
            },
            "counts": counts,
            "retained_high_water": self.retained(),
            "dumps_suppressed": self.dumps_suppressed,
            "records": records,
        }
        self.dumps.append(dump)
        return dump

    def __repr__(self) -> str:
        return f"<FlightRecorder seq={self._seq} dumps={len(self.dumps)}>"


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
