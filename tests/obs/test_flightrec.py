"""The flight recorder: bounded capture, triggers, canonical dumps.

The contract gated here:

* rings evict deterministically, oldest first, in O(CAPACITY) memory;
* the recorder observes every category, spans included, as a plain
  probe attached via ``GridBuilder.with_probe``;
* the rule table dumps on the platform's failure signals, and the
  dump bytes are a pure function of the observed stream;
* recording never perturbs the run (observation-only).
"""

import hashlib
import json
import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.framework import Finding, Severity
from repro.errors import ReproError
from repro.faults import HostCrash
from repro.gridenv import GridBuilder
from repro.obs.flightrec import (
    CAPACITY,
    FLIGHT_FORMAT,
    MAX_DUMPS,
    RULES,
    FlightRecorder,
    dump_digest,
    dump_json,
    write_dump,
)
from repro.simcore.environment import Environment
from repro.simcore.probe import Probe, attach
from repro.verify.monitors import Monitor
from repro.verify.recorder import Recorder
from repro.verify.runner import verify_recorder


class EventStreamDigest(Probe):
    """Order-sensitive digest of the simulation-visible event stream.

    Hashes every kernel schedule and step and every network
    send/deliver/drop in order, so two runs have equal digests exactly
    when their kernels queued and dispatched the same events at the
    same times and the network moved the same messages in the same
    order.
    """

    def __init__(self):
        self._digest = hashlib.sha256()

    def on_schedule(self, when, queue_size):
        self._digest.update(struct.pack("<dq", when, queue_size))

    def on_step(self, now):
        self._digest.update(struct.pack("<d", now))

    def on_send(self, message):
        self._digest.update(
            f"s|{message.src}|{message.dst}|{message.kind}|{message.payload!r}".encode()
        )

    def on_deliver(self, message):
        self._digest.update(
            f"d|{message.src}|{message.dst}|{message.kind}|{message.payload!r}".encode()
        )

    def on_drop(self, message, reason):
        self._digest.update(f"x|{reason}|{message.src}|{message.dst}".encode())

    def hexdigest(self):
        return self._digest.hexdigest()


class TestFlightRing:
    """Each category's ring keeps its last ``CAPACITY`` records."""

    @staticmethod
    def _proto_after(count):
        recorder = FlightRecorder()
        for i in range(count):
            recorder.event("unit", f"ev.{i}", {})
        return recorder, recorder.trip("unit")

    def test_push_and_snapshot_oldest_first(self):
        recorder, dump = self._proto_after(3)
        assert len(recorder.rings["proto"]) == recorder.pushed["proto"] == 3
        assert dump["counts"]["proto"] == {"pushed": 3, "live": 3, "evicted": 0}
        assert [r["name"] for r in dump["records"]["proto"]] == ["ev.0", "ev.1", "ev.2"]

    def test_wraparound_evicts_oldest(self):
        recorder, dump = self._proto_after(CAPACITY + 6)
        assert len(recorder.rings["proto"]) == CAPACITY
        assert dump["counts"]["proto"] == {
            "pushed": CAPACITY + 6, "live": CAPACITY, "evicted": 6,
        }
        names = [r["name"] for r in dump["records"]["proto"]]
        assert names == [f"ev.{i}" for i in range(6, CAPACITY + 6)]


def _crash_grid(recorder):
    return (
        GridBuilder(seed=7)
        .add_machine("RM1", nodes=8)
        .add_machine("RM2", nodes=8)
        .with_faults(HostCrash("RM2", at=0.5, duration=1.0))
        .with_probe(recorder)
        .build()
    )


class TestRecorderOnGrid:
    def test_builder_detects_and_binds(self):
        recorder = FlightRecorder()
        grid = _crash_grid(recorder)
        assert grid.flightrec is recorder
        assert recorder.env is grid.env

    def test_fault_trigger_dumps(self):
        recorder = FlightRecorder()
        grid = _crash_grid(recorder)
        grid.run(until=3.0)
        assert len(recorder.dumps) == 1
        trigger = recorder.dumps[0]["trigger"]
        assert trigger["trigger"] == "fault"
        assert trigger["reason"] == "fault.apply:HostCrash:RM2"
        assert trigger["time"] == 0.5

    def test_dump_carries_all_categories(self):
        recorder = FlightRecorder()
        grid = _crash_grid(recorder)
        duroc = grid.duroc()  # noqa: F841 — opens spans via the tracer
        grid.run(until=3.0)
        dump = recorder.dumps[0]
        assert dump["format"] == FLIGHT_FORMAT
        assert [r["op"] for r in dump["records"]["kernel"]]
        assert [r["op"] for r in dump["records"]["proto"]] == ["event"]
        proto = dump["records"]["proto"][0]
        assert proto["name"] == "fault.apply"
        assert proto["attrs"]["fault"] == "HostCrash"

    def test_dual_role_records_spans(self):
        recorder = FlightRecorder()
        grid = (
            GridBuilder(seed=7)
            .add_machine("RM1", nodes=8)
            .with_probe(recorder)
            .build()
        )
        grid.tracer.record("unit.span", 0.0, 1.0)
        ops = [r["op"] for r in recorder.trip("unit")["records"]["span"]]
        assert "close" in ops

    def test_observation_only(self):
        def run(extra_probes):
            sig = EventStreamDigest()
            grid = (
                GridBuilder(seed=11)
                .add_machine("RM1", nodes=8)
                .add_machine("RM2", nodes=8)
                .with_faults(HostCrash("RM2", at=0.5, duration=1.0))
                .with_probe(sig, *extra_probes)
                .build()
            )
            grid.run(until=3.0)
            return sig.hexdigest()

        assert run(()) == run((FlightRecorder(),))

    def test_same_seed_same_dump_bytes(self):
        texts = []
        for _ in range(2):
            recorder = FlightRecorder()
            grid = _crash_grid(recorder)
            grid.run(until=3.0)
            texts.append(dump_json(recorder.dumps[0]))
        assert texts[0] == texts[1]


class TestRetainedHighWater:
    """The dump's peak against a per-record count of the same tables.

    Each op repeats up to past ``CAPACITY`` (and the message-id table's
    ``4 * CAPACITY``), so every table fills and then evicts.
    """

    OPS = st.lists(
        st.tuples(
            st.sampled_from(
                ["step", "schedule", "send", "deliver", "event", "access", "span",
                 "mark", "trip"]
            ),
            st.integers(1, 5 * CAPACITY),
        ),
        max_size=12,
    )

    @staticmethod
    def _apply(recorder, op, index):
        from repro.net.address import Endpoint
        from repro.net.message import Message
        from repro.simcore.tracing import Mark, Span

        if op == "step":
            recorder.on_step(float(index))
        elif op == "schedule":
            recorder.on_schedule(float(index), 1)
        elif op in ("send", "deliver"):
            message = Message(
                src=Endpoint("a", "x"), dst=Endpoint("b", "y"), kind="k",
                msg_id=index,
            )
            getattr(recorder, f"on_{op}")(message)
        elif op == "event":
            recorder.event("n", "fault.apply" if index == 0 else "quiet", {"fault": "HostCrash"})
        elif op == "access":
            recorder.access("n", "table", "w", {})
        elif op == "span":
            recorder.on_span_open("trace-1", 1, None, "s")
            recorder.on_span_close(Span("s", 0.0, 1.0, trace_id="trace-1", span_id=1))
        elif op == "mark":
            recorder.on_mark(Mark("m", 0.0))
        elif index == 0:
            recorder.trip("manual")

    @given(ops=OPS)
    @settings(max_examples=40, deadline=None)
    def test_derived_peak_equals_census_oracle(self, ops):
        recorder = FlightRecorder()

        def census():
            return sum(map(len, recorder.rings.values())) + len(recorder._msg_local)

        peak = 0
        for op, repeat in ops:
            for index in range(repeat):
                dumped = len(recorder.dumps)
                self._apply(recorder, op, index)
                for dump in recorder.dumps[dumped:]:
                    # A dump carries the peak as of its own trip.
                    assert dump["retained_high_water"] == census()
            # Nothing is ever dropped but by eviction, so the count
            # never falls and the current count is the peak.
            assert recorder.retained() == census() >= peak
            peak = census()
        assert peak <= 8 * CAPACITY


class TestTriggers:
    def _event(self, recorder, name, attrs):
        recorder.event("unit", name, attrs)

    #: (event name, attrs) -> the (trigger, reason) its dump carries.
    TABLE = [
        ("fault.apply", {"fault": "HostCrash", "host": "RM2"},
         ("fault", "fault.apply:HostCrash:RM2")),
        ("fault.apply", {"fault": "LinkDrop", "src": "RM1"},
         ("fault", "fault.apply:LinkDrop:RM1")),
        ("fault.apply", {"fault": "Overload"},
         ("fault", "fault.apply:Overload")),
        ("resilience.retry_exhausted", {"operation": "gram.submit", "attempts": 4},
         ("retry_exhausted", "retry_exhausted:gram.submit:attempts=4")),
        ("duroc.abort.decision", {"job": "job-1", "reason": "barrier_timeout"},
         ("coallocation_abort", "coallocation_abort:job=job-1:reason=barrier_timeout")),
        ("process.unhandled", {"error": "RuntimeError"},
         ("process_failure", "process_unhandled:RuntimeError")),
    ]

    def _tripped(self, name, attrs):
        recorder = FlightRecorder()
        self._event(recorder, name, attrs)
        trigger = recorder.dumps[0]["trigger"]
        return trigger["trigger"], trigger["reason"]

    def test_default_catalogue(self):
        # The table covers every rule, and each rule's event trips
        # with exactly the (trigger, reason) the table names.
        assert {name for name, _, _ in self.TABLE} == set(RULES)
        assert {trigger for trigger, _ in RULES.values()} == {
            "fault", "retry_exhausted",
            "coallocation_abort", "process_failure",
        }
        for name, attrs, expected in self.TABLE:
            assert self._tripped(name, attrs) == expected, name
        # Every trip past MAX_DUMPS is counted, not kept.
        recorder = FlightRecorder()
        for name, attrs, _ in self.TABLE * 2:
            self._event(recorder, name, attrs)
        assert len(recorder.dumps) == MAX_DUMPS
        assert recorder.dumps_suppressed == 2 * len(self.TABLE) - MAX_DUMPS

    def test_fault_kind_filter(self):
        # Every fault kind trips; the reason names the kind and, when
        # the event carries one, the site (``host`` before ``src``).
        faults = [row for row in self.TABLE if row[0] == "fault.apply"]
        assert {attrs.get("host", attrs.get("src")) for _, attrs, _ in faults} == {
            "RM2", "RM1", None,
        }
        for name, attrs, expected in faults:
            assert self._tripped(name, attrs) == expected, attrs
        # Reverting a fault is not a fault.
        recorder = FlightRecorder()
        self._event(recorder, "fault.revert", {"fault": "HostCrash"})
        assert recorder.dumps == []

    def test_predicate_string_reason(self):
        # An event no rule names records, but does not trip.
        recorder = FlightRecorder()
        for name in ("fault.revert", "duroc.state", "quiet", "boom"):
            self._event(recorder, name, {"fault": "HostCrash"})
        assert recorder.dumps == [] and recorder.pushed["proto"] == 4
        # A listed one trips with the string its rule builds.
        self._event(recorder, "resilience.retry_exhausted",
                    {"operation": "gram.submit", "attempts": 4})
        assert recorder.dumps[0]["trigger"]["reason"] == (
            "retry_exhausted:gram.submit:attempts=4"
        )

    def test_retry_exhausted(self):
        recorder = FlightRecorder()
        self._event(
            recorder, "resilience.retry_exhausted",
            {"operation": "gram.submit", "attempts": 4, "why": "attempts"},
        )
        assert recorder.dumps[0]["trigger"]["reason"] == (
            "retry_exhausted:gram.submit:attempts=4"
        )

    def test_abort_decision(self):
        recorder = FlightRecorder()
        self._event(
            recorder, "duroc.abort.decision",
            {"job": "job-1", "reason": "barrier_timeout"},
        )
        assert recorder.dumps[0]["trigger"]["trigger"] == "coallocation_abort"

    def test_unhandled_process_failure(self):
        recorder = FlightRecorder()
        env = Environment()
        attach(env, recorder)

        def exploder(env):
            yield env.timeout(0.1)
            raise RuntimeError("kaboom")

        env.process(exploder(env), name="exploder")
        with pytest.raises(RuntimeError):
            env.run()
        assert recorder.dumps[0]["trigger"]["reason"] == (
            "process_unhandled:RuntimeError"
        )

    def test_max_dumps_suppression(self):
        recorder = FlightRecorder()
        for i in range(MAX_DUMPS + 3):
            self._event(recorder, "fault.apply", {"fault": "HostCrash"})
        assert len(recorder.dumps) == MAX_DUMPS
        assert recorder.dumps_suppressed == 3
        # Observation continues after suppressed trips.
        assert recorder.pushed["proto"] == MAX_DUMPS + 3

    def test_manual_trip(self):
        recorder = FlightRecorder()
        self._event(recorder, "step.one", {})
        dump = recorder.trip("operator request")
        assert dump["trigger"] == {
            "trigger": "manual", "reason": "operator request",
            "time": 0.0, "seq": 1,
        }
        # Recording goes on after a trip.
        self._event(recorder, "recorded.again", {})
        assert recorder.pushed["proto"] == 2


class _StubMonitor(Monitor):
    name = "stub"

    def check(self, log, ctx):
        yield Finding(
            file=ctx.run_id, line=1, col=1, rule="stub-finding",
            severity=Severity.ERROR, message="synthetic finding",
        )


class TestVerifyIntegration:
    def test_finding_trips_the_recorder(self):
        flightrec = FlightRecorder()
        recorder = Recorder()
        grid = (
            GridBuilder(seed=3)
            .add_machine("RM1", nodes=4)
            .with_monitors(recorder)
            .with_probe(flightrec)
            .build()
        )
        grid.run(until=1.0)
        _entry, findings = verify_recorder(
            recorder, "unit/run", monitors=[_StubMonitor()],
            flightrec=flightrec,
        )
        assert findings
        assert flightrec.dumps[0]["trigger"]["trigger"] == "verify.finding"
        assert "stub-finding" in flightrec.dumps[0]["trigger"]["reason"]

    def test_no_findings_no_dump(self):
        flightrec = FlightRecorder()
        recorder = Recorder()
        grid = (
            GridBuilder(seed=3)
            .add_machine("RM1", nodes=4)
            .with_monitors(recorder)
            .with_probe(flightrec)
            .build()
        )
        grid.run(until=1.0)
        verify_recorder(recorder, "unit/run", monitors=[], flightrec=flightrec)
        assert flightrec.dumps == []


class TestDumpSerialization:
    def test_canonical_bytes(self, tmp_path):
        recorder = FlightRecorder()
        recorder.event("unit", "fault.apply", {"fault": "HostCrash"})
        dump = recorder.dumps[0]
        text = dump_json(dump)
        assert text.endswith("\n")
        assert json.loads(text) == dump
        assert text == json.dumps(dump, sort_keys=True, indent=2) + "\n"
        path = write_dump(dump, tmp_path / "nested" / "dump.json")
        assert path.read_text() == text
        assert len(dump_digest(dump)) == 64

    def test_builder_rejects_non_observers(self):
        with pytest.raises(ReproError):
            GridBuilder(seed=1).add_machine("RM1", nodes=2).with_probe(object())


class TestTimelineFilters:
    def _dump(self):
        recorder = FlightRecorder()
        recorder.event("duroc1@client", "duroc.state", {"state": "submitted"})
        recorder.event("agent@RM2", "gram.state", {"state": "active"})
        return recorder.trip("unit")

    def test_node_matches_locus_host(self):
        from repro.obs.blackbox import merge_timeline

        dump = self._dump()
        assert len(merge_timeline(dump)) == 2
        entries = merge_timeline(dump, node="RM2")
        assert [e["name"] for e in entries] == ["gram.state"]
        # Endpoint-style addresses match on their host component too.
        from repro.obs.blackbox import _names_node

        assert _names_node("RM2:gatekeeper", "RM2")
        assert _names_node("agent@RM2", "RM2")
        assert not _names_node("RM21:gatekeeper", "RM2")

    def test_window_restricts_to_trigger_horizon(self):
        recorder = FlightRecorder()
        env = Environment()
        attach(env, recorder)

        def emitter(env):
            recorder.event("n", "early", {})
            yield env.timeout(5.0)
            recorder.event("n", "late", {})

        env.process(emitter(env), name="emitter")
        env.run()
        from repro.obs.blackbox import merge_timeline

        dump = recorder.trip("unit")
        names = [
            e["name"]
            for e in merge_timeline(dump, window=1.0)
            if e["category"] == "proto"
        ]
        assert names == ["late"]


@pytest.mark.parametrize(
    "package", ["repro.resilience", "repro.obs", "repro.core", "repro.verify"]
)
def test_cold_import_has_no_cycle(package):
    """Each entry package imports cleanly in a fresh interpreter.

    Regression guard: ``repro.resilience`` → ``repro.obs`` (metrics) →
    flightrec → ``repro.core`` → gram → ``repro.resilience`` closed a
    cycle when flightrec imported from ``repro.core`` at module level;
    flightrec imports nothing from ``repro.core`` now, and must not.
    """
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        check=True, env=env, cwd="/",
    )
