"""Unit tests for op counters and the probe fan-out seam.

``OpCounters`` reads tallies their owners keep; the per-event
:class:`TallyProbe` below counts the same facts independently, hook by
hook, and is the oracle the pulled numbers are checked against here and
in ``test_counters_oracle.py``.
"""

import inspect

import pytest

from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.net.address import Endpoint
from repro.net.message import Message
from repro.net.network import Network
from repro.prof.counters import OpCounters
from repro.simcore.environment import Environment
from repro.simcore.probe import HOOKS, FanoutProbe, Probe, attach


class TallyProbe(Probe):
    """Counts kernel and network operations one hook call at a time."""

    def __init__(self):
        self.events_processed = 0
        self.events_scheduled = 0
        self.heap_high_water = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    def on_schedule(self, when, queue_size):
        self.events_scheduled += 1
        self.heap_high_water = max(self.heap_high_water, queue_size)

    def on_step(self, now):
        self.events_processed += 1

    def on_send(self, message):
        self.messages_sent += 1

    def on_deliver(self, message):
        self.messages_delivered += 1

    def on_drop(self, message, reason):
        self.messages_dropped += 1

    def snapshot(self):
        return {
            "sim.events_processed": float(self.events_processed),
            "sim.events_scheduled": float(self.events_scheduled),
            "sim.heap_high_water": float(self.heap_high_water),
            "sim.messages_sent": float(self.messages_sent),
            "sim.messages_delivered": float(self.messages_delivered),
            "sim.messages_dropped": float(self.messages_dropped),
        }


def run_timeouts(*probes, n=5):
    env = Environment()
    attach(env, *probes)

    def proc(env):
        for _ in range(n):
            yield env.timeout(1.0)

    env.run(env.process(proc(env)))
    return env


class TestOpCounters:
    def test_kernel_events_counted(self):
        snap = OpCounters(run_timeouts(n=5)).snapshot()
        assert snap["sim.events_processed"] > 0
        assert snap["sim.events_scheduled"] >= snap["sim.heap_high_water"] > 0

    def test_network_messages_counted(self):
        env = Environment()
        network = Network(env)
        network.add_host("a")
        dst = Endpoint("a", "inbox")
        network.bind(dst)
        for i in range(3):
            network.send(
                Message(src=Endpoint("a", "out"), dst=dst, kind="ping", payload=i)
            )
        env.run()
        snap = OpCounters(env, network).snapshot()
        assert snap["sim.messages_sent"] == 3
        assert snap["sim.messages_delivered"] == 3
        assert snap["sim.messages_dropped"] == 0

    def test_snapshot_keys_and_types(self):
        snap = OpCounters(run_timeouts(n=2)).snapshot()
        assert set(snap) == {
            "sim.events_processed",
            "sim.events_scheduled",
            "sim.heap_high_water",
            "sim.messages_sent",
            "sim.messages_delivered",
            "sim.messages_dropped",
        }
        assert all(isinstance(v, float) for v in snap.values())

    def test_counters_never_perturb_the_run(self):
        # The observation-only contract: a profiled grid produces the
        # exact same trace as an unprofiled one.
        def build(profiled):
            builder = GridBuilder(seed=7).add_machine("m", nodes=8)
            if profiled:
                builder = builder.with_profiling()
            grid = builder.build()
            client = grid.gram_client()
            contact = grid.site("m").contact

            def scenario(env):
                yield from client.submit(
                    contact,
                    f"&(resourceManagerContact={contact})(count=2)"
                    f"(executable={DEFAULT_EXECUTABLE})",
                )

            grid.run(grid.process(scenario(grid.env)))
            return grid

        plain = build(profiled=False)
        profiled = build(profiled=True)
        assert [s.key() for s in plain.tracer.spans] == [
            s.key() for s in profiled.tracer.spans
        ]
        assert plain.now == profiled.now
        assert profiled.counters is not None
        assert profiled.counters.snapshot()["sim.events_processed"] > 0
        assert profiled.env.probe is None  # counters hear nothing
        assert plain.counters is None


class TestFanoutProbe:
    def test_forwards_every_hook_in_order(self):
        calls = []

        class Recorder(Probe):
            def __init__(self, tag):
                self.tag = tag

            def on_schedule(self, when, queue_size):
                calls.append((self.tag, "schedule"))

            def on_step(self, now):
                calls.append((self.tag, "step"))

            def on_send(self, message):
                calls.append((self.tag, "send"))

            def on_deliver(self, message):
                calls.append((self.tag, "deliver"))

            def on_drop(self, message, reason):
                calls.append((self.tag, "drop"))

        fan = FanoutProbe([Recorder("a"), Recorder("b")])
        fan.on_schedule(1.0, 1)
        fan.on_step(1.0)
        fan.on_send(None)
        fan.on_deliver(None)
        fan.on_drop(None, "rule")
        assert calls == [
            ("a", "schedule"), ("b", "schedule"),
            ("a", "step"), ("b", "step"),
            ("a", "send"), ("b", "send"),
            ("a", "deliver"), ("b", "deliver"),
            ("a", "drop"), ("b", "drop"),
        ]

    def test_vocabulary_is_pinned(self):
        # HOOKS is introspected off Probe; a callable added there that
        # is not an event hook would be fanned out silently.
        assert set(HOOKS) == {
            "on_schedule", "on_step", "on_send", "on_deliver", "on_drop",
            "event", "access", "register_locus",
            "on_span_open", "on_span_close", "on_mark",
        }

    def test_forwards_the_whole_vocabulary(self):
        # Every hook Probe declares reaches every fanned-out probe with
        # its arguments intact — including hooks added after this test.
        heard = []

        class Listener(Probe):
            pass

        def listen(name):
            return lambda self, *args: heard.append((name, args))

        sent = []
        for name in HOOKS:
            setattr(Listener, name, listen(name))
            arity = len(inspect.signature(getattr(Probe, name)).parameters) - 1
            sent.append((name, tuple(range(arity))))
        fan = FanoutProbe([Listener(), Listener()])
        for name, args in sent:
            getattr(fan, name)(*args)
        assert heard == [call for call in sent for _ in range(2)]

        # ... and only the probes that override it: a hook one probe
        # overrides is that probe's own method, a hook nobody overrides
        # stays Probe's no-op.
        class StepOnly(Probe):
            def on_step(self, now):
                heard.append(("step-only", now))

        del heard[:]
        everything, step_only = Listener(), StepOnly()
        fan = FanoutProbe([Probe(), step_only])
        assert fan.on_step == step_only.on_step
        for name in set(HOOKS) - {"on_step"}:
            assert getattr(fan, name).__func__ is getattr(Probe, name)
        fan = FanoutProbe([step_only, Probe(), everything])
        assert fan.on_send == everything.on_send
        fan.on_step(3.0)
        assert heard == [("step-only", 3.0), ("on_step", (3.0,))]

    def test_fanout_counts_match_solo_counts(self):
        solo = TallyProbe()
        env = run_timeouts(solo, n=4)
        first, second = TallyProbe(), TallyProbe()
        run_timeouts(first, second, n=4)
        assert first.snapshot() == second.snapshot() == solo.snapshot()
        assert solo.snapshot() == OpCounters(env).snapshot()


class TestPulledEqualsTallied:
    """``OpCounters.snapshot()`` against the per-event oracle, to the digit."""

    def test_figure1_with_every_observer_attached(self, tmp_path):
        from repro.obs.flightrec import FlightRecorder
        from repro.obs.streaming import (
            AggregatingSink,
            JsonlStreamSink,
            TelemetryPipeline,
        )
        from repro.prof.bench import _coallocate, _figure1_request

        tally = TallyProbe()
        pipeline = TelemetryPipeline(
            aggregator=AggregatingSink(),
            exporter=JsonlStreamSink(tmp_path / "stream.jsonl", buffer_size=8),
        )
        grid = (
            GridBuilder(seed=42)
            .add_machine("RM1", nodes=16)
            .add_machine("RM2", nodes=64)
            .add_machine("RM3", nodes=64)
            .with_monitors()
            .with_profiling()
            .with_probe(FlightRecorder(), tally)
            .with_span_sink(pipeline)
            .build()
        )
        _coallocate(grid, _figure1_request(grid))
        grid.tracer.close()
        snap = grid.counters.snapshot()
        # The sinked tracer metered itself; nothing else adds a key.
        assert snap.pop("obs.spans_retained_high_water") == (
            grid.tracer.spans_retained_high_water
        ) > 0
        assert snap == tally.snapshot()
        assert snap["sim.messages_sent"] > 0

    @pytest.mark.parametrize("compact_cancelled", [True, False])
    def test_kernel_stress_with_and_without_compaction(self, compact_cancelled):
        from repro.prof.bench import _kernel_stress_run

        tally = TallyProbe()
        _, counters = _kernel_stress_run(
            42, compact_cancelled=compact_cancelled, probes=(tally,)
        )
        assert counters.snapshot() == tally.snapshot()

    def test_drop_rules_and_a_crashed_host(self):
        tally = TallyProbe()
        env = Environment()
        attach(env, tally)
        network = Network(env)
        for host in ("a", "b", "c"):
            network.add_host(host)
        inboxes = {h: Endpoint(h, "inbox") for h in ("a", "b", "c")}
        for endpoint in inboxes.values():
            network.bind(endpoint)
        network.add_drop_rule(lambda message: message.payload % 5 == 0)

        def traffic(env):
            for i in range(40):
                dst = inboxes["abc"[i % 3]]
                network.send(
                    Message(src=Endpoint("a", "out"), dst=dst, kind="ping", payload=i)
                )
                # Sent while "c" is still up, lost in flight.
                if i == 20:
                    network.crash_host("c")
                yield env.timeout(0.001)
            network.send(Message(
                src=Endpoint("a", "out"), dst=Endpoint("b", "nobody"),
                kind="ping", payload=1,
            ))

        env.run(env.process(traffic(env)))
        env.run()
        snap = OpCounters(env, network).snapshot()
        assert snap == tally.snapshot()
        assert snap["sim.messages_dropped"] > 8  # rule + unreachable + unbound
        assert snap["sim.messages_sent"] == (
            snap["sim.messages_delivered"] + snap["sim.messages_dropped"]
        )
