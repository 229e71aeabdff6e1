"""Unit tests for the trace recorder and RNG registry."""

import numpy as np
import pytest

from repro.net.address import Endpoint
from repro.net.message import Message
from repro.net.network import KindSeries
from repro.obs.flightrec import KernelRecord, MessageRecord, ProtoRecord, SpanRecord
from repro.simcore import (
    Environment,
    Mark,
    NullTracer,
    Probe,
    RngRegistry,
    TraceContext,
    Tracer,
    attach,
    jittered,
)
from repro.simcore.events import AllOf, AnyOf, Condition, Event, Timeout
from repro.simcore.metrics import (
    BoundCounter,
    BoundGauge,
    BoundHistogram,
    BoundRate,
    _HistogramSeries,
)
from repro.simcore.process import Initialize, Process, _InterruptEvent
from repro.simcore.resources import BaseRequest, ContainerGet, StoreGet, _Deadline
from repro.simcore.tracing import Span, _NullSpan, _OpenSpan

#: Classes instantiated per kernel event, message, span or metric write.
PER_EVENT_CLASSES = (
    Event, Timeout, Condition, AllOf, AnyOf,
    Initialize, _InterruptEvent, Process,
    BaseRequest, StoreGet, ContainerGet, _Deadline,
    Message, Endpoint, KindSeries,
    Span, Mark, TraceContext, _OpenSpan, _NullSpan,
    BoundCounter, BoundGauge, BoundHistogram, BoundRate, _HistogramSeries,
    KernelRecord, MessageRecord, ProtoRecord, SpanRecord,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def tracer(env):
    return Tracer(env)


class TestTracer:
    def test_record_span(self, tracer):
        span = tracer.record("phase", 1.0, 3.5, site="RM1")
        assert span.duration == 2.5
        assert tracer.spans_named("phase") == [span]

    def test_span_context_manager(self, env, tracer):
        def proc(env):
            with tracer.span("sync-work", tag="x"):
                pass  # synchronous section
            yield env.timeout(1)

        env.run(env.process(proc(env)))
        (span,) = tracer.spans_named("sync-work")
        assert span.duration == 0.0
        assert span.attrs == {"tag": "x"}

    def test_open_span_across_yields(self, env, tracer):
        def proc(env):
            open_span = tracer.span("slow-work")
            yield env.timeout(2.5)
            open_span.close()

        env.run(env.process(proc(env)))
        (span,) = tracer.spans_named("slow-work")
        assert span.duration == 2.5

    def test_attr_filtering(self, tracer):
        tracer.record("op", 0, 1, site="a")
        tracer.record("op", 1, 2, site="b")
        assert len(tracer.spans_named("op")) == 2
        assert len(tracer.spans_named("op", site="a")) == 1

    def test_total(self, tracer):
        tracer.record("op", 0, 1)
        tracer.record("op", 5, 7)
        assert tracer.total("op") == 3.0

    def test_marks(self, env, tracer):
        def proc(env):
            yield env.timeout(4)
            tracer.mark("commit", job="j1")

        env.run(env.process(proc(env)))
        (mark,) = tracer.marks_named("commit")
        assert mark.time == 4.0
        assert tracer.marks_named("commit", job="j2") == []

    def test_timeline_ordering(self, tracer):
        tracer.record("b", 1, 3)
        tracer.record("a", 0, 2)
        entries = list(tracer.timeline())
        times = [t for t, _, _ in entries]
        assert times == sorted(times)

    def test_fingerprint_order_insensitive(self, env):
        # Storage order must not matter; allocation order (which fixes
        # span ids) is part of a trace's identity and is kept equal.
        t1, t2 = Tracer(env), Tracer(env)
        t1.record("x", 0, 1)
        t1.record("y", 1, 2)
        t2.record("x", 0, 1)
        t2.record("y", 1, 2)
        t2.spans.reverse()
        assert t1.fingerprint() == t2.fingerprint()

    def test_fingerprint_detects_difference(self, env):
        t1, t2 = Tracer(env), Tracer(env)
        t1.record("x", 0, 1)
        t2.record("x", 0, 1.5)
        assert t1.fingerprint() != t2.fingerprint()

    def test_null_tracer_drops_everything(self):
        tracer = NullTracer()
        tracer.record("x", 0, 1)
        tracer.mark("m")
        assert tracer.spans == []
        assert tracer.marks == []

    def test_name_index_survives_non_append_mutation(self, tracer):
        tracer.record("op", 0, 1)
        tracer.record("op", 1, 2)
        assert len(tracer.spans_named("op")) == 2  # index built
        tracer.spans.clear()  # a consumer reset the trace
        assert tracer.spans_named("op") == []
        tracer.record("op", 2, 3)
        assert len(tracer.spans_named("op")) == 1

    @pytest.mark.parametrize(
        "cls", PER_EVENT_CLASSES, ids=lambda cls: cls.__name__
    )
    def test_record_dataclasses_are_slotted(self, cls):
        # One class without __slots__ anywhere up the MRO gives every
        # instance a __dict__ again, at event rate.
        unslotted = [
            k.__name__ for k in cls.__mro__
            if k is not object and "__slots__" not in vars(k)
        ]
        assert unslotted == []


class TestProbeSeam:
    def test_probe_hears_open_close_and_mark(self, env):
        heard = []

        class Listener(Probe):
            def on_span_open(self, trace_id, span_id, parent_id, name):
                heard.append(("open", name, span_id, parent_id))

            def on_span_close(self, span):
                heard.append(("close", span.name, span.span_id, span.parent_id))

            def on_mark(self, mark):
                heard.append(("mark", mark.name, None, mark.parent_id))

        attach(env, Listener())
        tracer = Tracer(env)
        with tracer.span("a") as a:
            tracer.record("b", 0.0, 0.0, parent=a)
            tracer.mark("m", parent=a)
        assert heard == [
            ("open", "a", 1, None),
            ("open", "b", 2, 1),
            ("close", "b", 2, 1),
            ("mark", "m", None, 1),
            ("close", "a", 1, None),
        ]


class TestRngRegistry:
    def test_streams_are_deterministic(self):
        a = RngRegistry(seed=5).stream("gram").random(4)
        b = RngRegistry(seed=5).stream("gram").random(4)
        assert np.allclose(a, b)

    def test_streams_differ_by_name(self):
        rngs = RngRegistry(seed=5)
        assert not np.allclose(
            rngs.stream("x").random(4), rngs.stream("y").random(4)
        )

    def test_streams_differ_by_seed(self):
        assert not np.allclose(
            RngRegistry(0).stream("x").random(4),
            RngRegistry(1).stream("x").random(4),
        )

    def test_stream_is_cached(self):
        rngs = RngRegistry()
        assert rngs.stream("a") is rngs.stream("a")
        assert "a" in rngs

    def test_adding_stream_does_not_perturb_existing(self):
        rngs1 = RngRegistry(seed=3)
        s1 = rngs1.stream("alpha")
        first = s1.random(3)

        rngs2 = RngRegistry(seed=3)
        rngs2.stream("beta")  # extra stream created first
        second = rngs2.stream("alpha").random(3)
        assert np.allclose(first, second)


class TestJittered:
    def test_zero_cv_is_exact(self):
        rng = np.random.default_rng(0)
        assert jittered(rng, 2.0, cv=0.0) == 2.0
        assert jittered(None, 2.0, cv=0.5) == 2.0

    def test_positive_and_near_mean(self):
        rng = np.random.default_rng(0)
        draws = [jittered(rng, 2.0, cv=0.3) for _ in range(500)]
        assert all(d > 0 for d in draws)
        assert abs(sum(draws) / len(draws) - 2.0) < 0.1

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            jittered(None, -1.0)
