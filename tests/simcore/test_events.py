"""Unit tests for repro.simcore.events."""

import pytest

from repro.errors import SimulationError
from repro.simcore import AllOf, AnyOf, Environment, Event


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_starts_untriggered(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_double_succeed_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, env):
        ev = env.event()
        ev.fail(RuntimeError("x"))
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_fail_stores_exception(self, env):
        ev = env.event()
        exc = ValueError("boom")
        ev.fail(exc)
        assert not ev.ok
        assert ev.value is exc

    def test_callbacks_run_on_processing(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("payload")
        ev.defused = True
        env.run()
        assert seen == ["payload"]
        assert ev.processed

    def test_unhandled_failure_surfaces_in_run(self, env):
        ev = env.event()
        ev.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failure_does_not_surface(self, env):
        ev = env.event()
        ev.fail(RuntimeError("handled"))
        ev.defused = True
        env.run()  # no raise

    def test_trigger_copies_state(self, env):
        src = env.event()
        dst = env.event()
        src.succeed("v")
        dst.trigger(src)
        assert dst.triggered and dst.ok and dst.value == "v"


class TestTimeout:
    def test_fires_at_delay(self, env):
        t = env.timeout(5.0, value="done")
        env.run()
        assert env.now == 5.0
        assert t.value == "done"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_zero_delay_ok(self, env):
        env.timeout(0.0)
        env.run()
        assert env.now == 0.0

    def test_ordering_of_timeouts(self, env):
        order = []
        for d in (3.0, 1.0, 2.0):
            ev = env.timeout(d, value=d)
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_fifo_at_same_instant(self, env):
        order = []
        for label in "abc":
            ev = env.timeout(1.0, value=label)
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        a, b = env.timeout(1, "a"), env.timeout(2, "b")
        result = env.run(env.all_of([a, b]))
        assert env.now == 2
        assert result.todict() == {a: "a", b: "b"}

    def test_any_of_fires_on_first(self, env):
        a, b = env.timeout(1, "a"), env.timeout(2, "b")
        result = env.run(env.any_of([a, b]))
        assert env.now == 1
        assert a in result and b not in result

    def test_empty_all_of_is_immediate(self, env):
        result = env.run(env.all_of([]))
        assert len(result) == 0

    def test_empty_any_of_is_immediate(self, env):
        result = env.run(env.any_of([]))
        assert len(result) == 0

    def test_operator_forms(self, env):
        a, b = env.timeout(1, "a"), env.timeout(2, "b")
        both = a & b
        env.run(both)
        assert env.now == 2

    def test_or_operator(self, env):
        a, b = env.timeout(1, "a"), env.timeout(2, "b")
        either = a | b
        env.run(either)
        assert env.now == 1

    def test_condition_failure_propagates(self, env):
        a = env.event()
        b = env.timeout(5)
        cond = env.all_of([a, b])
        a.fail(RuntimeError("sub-event failed"))
        with pytest.raises(RuntimeError, match="sub-event failed"):
            env.run(cond)

    def test_nested_condition_value_flattens(self, env):
        a, b, c = env.timeout(1, 1), env.timeout(2, 2), env.timeout(3, 3)
        cond = (a & b) & c
        result = env.run(cond)
        assert result.todict() == {a: 1, b: 2, c: 3}

    def test_cross_environment_mix_rejected(self, env):
        other = Environment()
        a = env.timeout(1)
        b = other.timeout(1)
        with pytest.raises(SimulationError):
            AllOf(env, [a, b])

    def test_already_processed_events_accepted(self, env):
        a = env.timeout(1, "a")
        env.run()
        cond = AnyOf(env, [a])
        env.run(cond)
        assert cond.value.todict() == {a: "a"}

    def test_decided_condition_stops_listening(self, env):
        # A pending constituent that kept the decided condition's check
        # would hold the condition, its value and every event in it in
        # a reference cycle (event -> callbacks -> check -> condition ->
        # events) that only the cycle collector can free — one per RPC
        # whose deadline is retired.
        fast = env.timeout(1)
        slow = env.timeout(10)
        other_listener = []
        slow.callbacks.append(other_listener.append)
        cond = fast | slow
        assert len(slow.callbacks) == 2
        env.run(until=2)
        assert cond.processed and list(cond.value) == [fast]
        assert slow.callbacks == [other_listener.append]
        env.run()
        assert other_listener == [slow]

    def test_condition_decided_at_construction_never_listens(self, env):
        done = env.timeout(1)
        env.run()
        pending = env.timeout(5)
        cond = env.any_of([done, pending])
        assert cond.triggered
        assert pending.callbacks == []

    def test_failed_condition_stops_listening(self, env):
        bad = env.event()
        slow = env.timeout(10)
        cond = bad & slow
        cond.defused = True
        bad.fail(KeyError("x"))
        env.run(until=1)
        assert not cond.ok
        assert slow.callbacks == []
