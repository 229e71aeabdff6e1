"""The flight recorder: bounded capture, triggers, canonical dumps.

The contract gated here (and re-asserted at stress scale by the
``blackbox_stress`` benchmark):

* rings evict deterministically, oldest first, in O(capacity) memory;
* the recorder observes every category, spans included, as a plain
  probe attached via ``GridBuilder.with_probe``;
* triggers freeze-and-dump on the platform's failure signals, and the
  dump bytes are a pure function of the observed stream;
* recording never perturbs the run (observation-only).
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.framework import Finding, Severity
from repro.core.bounded import RetainedCensus
from repro.errors import ReproError
from repro.faults import HostCrash
from repro.gridenv import GridBuilder
from repro.obs.flightrec import (
    DEFAULT_TRIGGERS,
    FLIGHT_FORMAT,
    FlightRecorder,
    FlightRing,
    OnFault,
    OnPredicate,
    dump_digest,
    dump_json,
    write_dump,
)
from repro.prof.bench import EventStreamDigest
from repro.simcore.environment import Environment
from repro.simcore.probe import attach
from repro.verify.monitors import Monitor
from repro.verify.recorder import Recorder
from repro.verify.runner import verify_recorder


class TestFlightRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRing(0)

    def test_push_and_snapshot_oldest_first(self):
        ring = FlightRing(4)
        for i in range(3):
            ring.push(i)
        assert len(ring) == 3
        assert ring.evicted == 0
        assert ring.snapshot() == [0, 1, 2]

    def test_wraparound_evicts_oldest(self):
        ring = FlightRing(4)
        for i in range(10):
            ring.push(i)
        assert len(ring) == 4
        assert ring.pushed == 10
        assert ring.evicted == 6
        assert ring.snapshot() == [6, 7, 8, 9]

    def test_clear_preserves_lifetime_count(self):
        ring = FlightRing(2)
        for i in range(5):
            ring.push(i)
        ring.clear()
        assert len(ring) == 0
        assert ring.pushed == 5
        assert ring.snapshot() == []
        ring.push("x")
        assert ring.snapshot() == ["x"]


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
        recorder = FlightRecorder(capacity=64)
        grid = _crash_grid(recorder)
        grid.run(until=3.0)
        assert len(recorder.dumps) == 1
        trigger = recorder.dumps[0]["trigger"]
        assert trigger["trigger"] == "fault"
        assert trigger["reason"] == "fault.apply:HostCrash:RM2"
        assert trigger["time"] == 0.5

    def test_dump_carries_all_categories(self):
        recorder = FlightRecorder(capacity=64)
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
        recorder = FlightRecorder(capacity=64)
        grid = (
            GridBuilder(seed=7)
            .add_machine("RM1", nodes=8)
            .with_probe(recorder)
            .build()
        )
        grid.tracer.record("unit.span", 0.0, 1.0)
        ops = [r.op for r in recorder.rings["span"].snapshot()]
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
            recorder = FlightRecorder(capacity=64)
            grid = _crash_grid(recorder)
            grid.run(until=3.0)
            texts.append(dump_json(recorder.dumps[0]))
        assert texts[0] == texts[1]


class TestRetainedHighWater:
    """The O(1) derived peak against a per-record census of the same tables."""

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("step"), st.floats(0, 10, allow_nan=False)),
            st.tuples(st.just("schedule"), st.floats(0, 10, allow_nan=False)),
            st.tuples(st.just("send"), st.integers(0, 40)),
            st.tuples(st.just("deliver"), st.integers(0, 40)),
            st.tuples(st.just("event"), st.sampled_from(["quiet", "fault.apply"])),
            st.tuples(st.just("access"), st.just(None)),
            st.tuples(st.just("span"), st.just(None)),
            st.tuples(st.just("mark"), st.just(None)),
            st.tuples(st.just("trip"), st.just(None)),
            st.tuples(st.just("freeze"), st.booleans()),
            st.tuples(st.just("reset"), st.just(None)),
        ),
        max_size=120,
    )

    @staticmethod
    def _apply(recorder, op, arg):
        from repro.net.address import Endpoint
        from repro.net.message import Message
        from repro.simcore.tracing import Mark, Span

        if op == "step":
            recorder.on_step(arg)
        elif op == "schedule":
            recorder.on_schedule(arg, 1)
        elif op in ("send", "deliver"):
            message = Message(
                src=Endpoint("a", "x"), dst=Endpoint("b", "y"), kind="k",
                msg_id=arg,
            )
            getattr(recorder, f"on_{op}")(message)
        elif op == "event":
            recorder.event("n", arg, {"fault": "HostCrash"})
        elif op == "access":
            recorder.access("n", "table", "w", {})
        elif op == "span":
            recorder.on_span_open("trace-1", 1, None, "s")
            recorder.on_span_close(Span("s", 0.0, 1.0, trace_id="trace-1", span_id=1))
        elif op == "mark":
            recorder.on_mark(Mark("m", 0.0))
        elif op == "trip":
            recorder.trip("manual")
        elif op == "freeze":
            recorder.freeze() if arg else recorder.resume()
        else:
            recorder.reset()

    @given(ops=OPS, capacity=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_derived_peak_equals_census_oracle(self, ops, capacity):
        recorder = FlightRecorder(capacity=capacity, max_dumps=1000)
        census = RetainedCensus()
        census.register_all(recorder.rings.values())
        census.register(recorder._msg_local)
        dumped = 0
        for op, arg in ops:
            self._apply(recorder, op, arg)
            census.observe()
            assert recorder.retained() == census.retained()
            assert recorder.retained_high_water == census.high_water
            for dump in recorder.dumps[dumped:]:
                # A dump carries the peak as of its own trip.
                assert dump["retained_high_water"] == census.high_water
            dumped = len(recorder.dumps) if op != "reset" else 0
        assert recorder.retained_high_water <= 8 * capacity


class TestTriggers:
    def _event(self, recorder, name, attrs):
        recorder.event("unit", name, attrs)

    def test_default_catalogue(self):
        names = {trigger.name for trigger in DEFAULT_TRIGGERS}
        assert names == {
            "fault", "breaker_open", "retry_exhausted",
            "coallocation_abort", "process_failure",
        }

    def test_breaker_open(self):
        recorder = FlightRecorder()
        self._event(
            recorder, "resilience.breaker_open",
            {"endpoint": "RM1:gatekeeper", "failures": 3},
        )
        assert recorder.dumps[0]["trigger"]["reason"] == (
            "breaker_open:RM1:gatekeeper"
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

    def test_fault_kind_filter(self):
        recorder = FlightRecorder(triggers=(OnFault(kinds=("Overload",)),))
        self._event(recorder, "fault.apply", {"fault": "HostCrash"})
        assert recorder.dumps == []
        self._event(recorder, "fault.apply", {"fault": "Overload"})
        assert len(recorder.dumps) == 1

    def test_predicate_string_reason(self):
        recorder = FlightRecorder(
            triggers=(OnPredicate(
                event=lambda node, name, attrs: (
                    f"saw:{name}" if name == "boom" else None
                ),
            ),)
        )
        self._event(recorder, "quiet", {})
        assert recorder.dumps == []
        self._event(recorder, "boom", {})
        assert recorder.dumps[0]["trigger"]["reason"] == "saw:boom"

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
        recorder = FlightRecorder(max_dumps=2)
        for i in range(5):
            self._event(recorder, "fault.apply", {"fault": "HostCrash"})
        assert len(recorder.dumps) == 2
        assert recorder.dumps_suppressed == 3
        # Observation continues after suppressed trips.
        assert recorder.records_observed == 5

    def test_manual_trip_and_freeze(self):
        recorder = FlightRecorder()
        self._event(recorder, "step.one", {})
        dump = recorder.trip("operator request")
        assert dump["trigger"] == {
            "trigger": "manual", "reason": "operator request",
            "time": 0.0, "seq": 1,
        }
        assert not recorder.frozen  # trip resumes recording
        recorder.freeze()
        self._event(recorder, "dropped.while.frozen", {})
        assert recorder.records_observed == 1
        recorder.resume()
        self._event(recorder, "recorded.again", {})
        assert recorder.records_observed == 2


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
    cycle when flightrec imported ``repro.core.bounded`` at module
    level; the import is lazy now, and must stay that way.
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
