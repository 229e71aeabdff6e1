"""Lazy rendering equals eager rendering.

The flight recorder stores one tuple per observation and builds its
records when a dump reads them.  CI compares dump A with dump B of the
same commit, which cannot see a record that renders differently late
than it would have on the spot; the shadow probe here renders every
observation to its dump dict *at hook time*, and each dump must equal
the shadow's last-N as of the trip.
"""

import json

import pytest

from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.core.bounded import BoundedDict
from repro.errors import AllocationAborted
from repro.faults import HostCrash
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.net.address import Endpoint
from repro.net.message import Message
from repro.obs.flightrec import (
    CATEGORIES,
    DEFAULT_TRIGGERS,
    FlightRecorder,
    OnPredicate,
    _clean,
    dump_json,
)
from repro.simcore.probe import Probe

CAPACITY = 64


class EagerShadow(Probe):
    """Every observation as its dump dict, rendered when it is heard."""

    def __init__(self, capacity: int) -> None:
        self.rendered = {category: [] for category in CATEGORIES}
        self._seq = 0
        self._msg_local = BoundedDict(4 * capacity)
        self._msg_next = 0

    def _render(self, category, time, op, **fields):
        self._seq += 1
        self.rendered[category].append({"seq": self._seq, "time": time, "op": op, **fields})

    def on_schedule(self, when, queue_size):
        self._render("kernel", self.env.now, "schedule", when=when, queue_size=queue_size)

    def on_step(self, now):
        self._render("kernel", now, "step", when=now, queue_size=0)

    def _message_op(self, op, message, reason):
        local = self._msg_local.get(message.msg_id)
        if local is None:
            self._msg_next += 1
            local = self._msg_local[message.msg_id] = self._msg_next
        ctx = message.trace_ctx
        self._render(
            "message", self.env.now, op, msg=local, kind=message.kind,
            src=str(message.src), dst=str(message.dst), corr_id=message.corr_id,
            trace_id=ctx.trace_id if ctx is not None else None,
            span_id=ctx.span_id if ctx is not None else None, reason=reason,
        )

    def on_send(self, message):
        self._message_op("send", message, None)

    def on_deliver(self, message):
        self._message_op("deliver", message, None)

    def on_drop(self, message, reason):
        self._message_op("drop", message, reason)

    def event(self, node, name, attrs):
        self._render("proto", self.env.now, "event", node=node, name=name, attrs=_clean(attrs))

    def access(self, node, resource, mode, attrs):
        self._render(
            "proto", self.env.now, "access", node=node, name=resource,
            attrs={**_clean(attrs), "mode": mode},
        )

    def on_span_open(self, trace_id, span_id, parent_id, name):
        self._render(
            "span", self.env.now, "open", name=name,
            trace_id=trace_id, span_id=span_id, parent_id=parent_id,
        )

    def on_span_close(self, span):
        self._render(
            "span", span.end, "close", name=span.name,
            trace_id=span.trace_id, span_id=span.span_id, parent_id=span.parent_id,
        )

    def on_mark(self, mark):
        self._render(
            "span", mark.time, "mark", name=mark.name,
            trace_id=mark.trace_id, span_id=None, parent_id=mark.parent_id,
        )


def test_every_dump_equals_the_eager_rendering():
    on_loss = OnPredicate(
        message=lambda op, m: f"lost:{m.kind}" if op == "drop" else None, name="loss"
    )
    recorder = FlightRecorder(capacity=CAPACITY, triggers=(*DEFAULT_TRIGGERS, on_loss))
    shadow = EagerShadow(CAPACITY)
    grid = (
        GridBuilder(seed=7)
        .add_machine("RM1", nodes=8)
        .add_machine("RM2", nodes=8)
        .with_faults(HostCrash("RM2", at=0.5, duration=30.0))
        .with_monitors()
        .with_probe(recorder, shadow)
        .build()
    )
    duroc = grid.duroc()
    request = CoAllocationRequest([
        SubjobSpec(f"{site}:gatekeeper", 2, DEFAULT_EXECUTABLE,
                   start_type=SubjobType.REQUIRED)
        for site in ("RM1", "RM2")
    ])

    def agent(env):
        with pytest.raises(AllocationAborted):
            yield from duroc.run(request)

    grid.run(grid.process(agent(grid.env)))
    recorder.trip("end of run")

    # Three trips mid-run (an event rule, a message rule, an event rule
    # with the rings long since wrapped), then the manual one.
    assert [d["trigger"]["trigger"] for d in recorder.dumps] == [
        "fault", "loss", "coallocation_abort", "manual",
    ]
    assert recorder.rings["kernel"].evicted > CAPACITY
    assert recorder.rings["message"].pushed > 4 * CAPACITY  # ids were evicted too
    for dump in recorder.dumps:
        for category in CATEGORIES:
            counts = dump["counts"][category]
            assert counts["live"] == min(counts["pushed"], CAPACITY)
            eager = shadow.rendered[category][counts["pushed"] - counts["live"]:counts["pushed"]]
            assert dump["records"][category] == eager, category
        for record in dump["records"]["message"]:
            assert type(record["src"]) is str and type(record["dst"]) is str
        assert json.loads(dump_json(dump)) == dump
    ops = {r["op"] for d in recorder.dumps for rs in d["records"].values() for r in rs}
    assert ops >= {"schedule", "step", "send", "deliver", "drop", "event", "access",
                   "open", "close"}


def test_unattached_recorder_stamps_time_zero():
    recorder = FlightRecorder()
    assert recorder.env is None
    message = Message(src=Endpoint("a", "x"), dst=Endpoint("b", "y"), kind="k")
    recorder.on_schedule(3.0, 1)
    recorder.on_send(message)
    recorder.on_drop(message, "rule")
    recorder.event("n", "quiet", {})
    recorder.access("n", "table", "w", {})
    recorder.on_span_open("trace-1", 1, None, "s")
    dump = recorder.trip("unit")
    records = [r for category in CATEGORIES for r in dump["records"][category]]
    assert [r["seq"] for r in records] == [1, 2, 3, 4, 5, 6]
    assert [r["time"] for r in records] == [0.0] * 6
    assert dump["trigger"]["time"] == 0.0


def test_triggers_are_fixed_at_construction():
    """The rule set is partitioned by stream once, in ``__init__``."""
    recorder = FlightRecorder()
    with pytest.raises(AttributeError):
        recorder.triggers = ()
    recorder.event("unit", "fault.apply", {"fault": "HostCrash"})
    assert len(recorder.dumps) == 1
