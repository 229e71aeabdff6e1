"""Unit tests for repro.simcore.events."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simcore import AllOf, Environment


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
    """``env.all_of``, the kernel's one join: a countdown that fires with
    ``None``; each constituent keeps its own value."""

    def test_all_of_waits_for_all(self, env):
        a, b = env.timeout(1, "a"), env.timeout(2, "b")
        result = env.run(env.all_of([a, b]))
        assert env.now == 2
        assert result is None
        assert (a.value, b.value) == ("a", "b")

    def test_empty_all_of_is_immediate(self, env):
        join = env.all_of([])
        assert join.triggered
        assert env.run(join) is None
        assert env.now == 0

    def test_condition_failure_propagates(self, env):
        a = env.event()
        b = env.timeout(5)
        cond = env.all_of([a, b])
        a.fail(RuntimeError("sub-event failed"))
        with pytest.raises(RuntimeError, match="sub-event failed"):
            env.run(cond)
        assert a.defused

    def test_cross_environment_mix_rejected(self, env):
        other = Environment()
        a = env.timeout(1)
        b = other.timeout(1)
        with pytest.raises(SimulationError):
            AllOf(env, [a, b])

    def test_already_processed_events_accepted(self, env):
        a = env.timeout(1, "a")
        env.run()
        b = env.timeout(2, "b")
        cond = AllOf(env, [a, b])
        assert not cond.triggered
        env.run(cond)
        assert env.now == 3
        assert cond.value is None and a.value == "a"

    def test_condition_decided_at_construction_never_listens(self, env):
        # A constituent that had already failed decides the join before
        # it listens to anything else.
        done = env.event()
        done.fail(KeyError("x"))
        done.defused = True
        env.run()
        pending = env.timeout(5)
        cond = env.all_of([done, pending])
        cond.defused = True
        assert cond.triggered and not cond.ok
        assert pending.callbacks == []

    def test_failed_condition_stops_listening(self, env):
        # A pending constituent that kept the failed join's check would
        # hold the join and every event in it in a reference cycle
        # (event -> callbacks -> check -> join -> events) that only the
        # cycle collector can free.
        bad = env.event()
        slow = env.timeout(10)
        other_listener = []
        slow.callbacks.append(other_listener.append)
        cond = env.all_of([bad, slow])
        cond.defused = True
        assert len(slow.callbacks) == 2
        bad.fail(KeyError("x"))
        env.run(until=1)
        assert not cond.ok
        assert slow.callbacks == [other_listener.append]
        env.run()
        assert other_listener == [slow]


#: How a drawn constituent behaves: it succeeds or fails at its time,
#: and it may already have been processed when the join is built.
CONSTITUENTS = st.lists(
    st.tuples(
        st.sampled_from(("timeout", "succeed", "fail")),
        st.integers(min_value=0, max_value=6),
        st.booleans(),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(CONSTITUENTS)
def test_all_of_fires_at_the_latest_or_fails_at_the_first_failure(drawn):
    env = Environment()

    def make(index, kind, at):
        if kind == "timeout":
            return env.timeout(at, index)
        event = env.event()

        def fire(_):
            if kind == "succeed":
                event.succeed(index)
            else:
                event.fail(ValueError(index))
                # A failure after the join has failed reaches no waiter.
                event.defused = True

        env.timeout(at).callbacks.append(fire)
        return event

    # Constituents drawn as done are processed before the join is built
    # at ``start``; the others fire ``at`` seconds after it (delays are
    # relative to the clock).
    events = {
        i: make(i, kind, at) for i, (kind, at, done) in enumerate(drawn) if done
    }
    env.run(until=7)
    start = env.now
    for i, (kind, at, done) in enumerate(drawn):
        if not done:
            events[i] = make(i, kind, at)
    constituents = [events[i] for i in range(len(drawn))]

    join = env.all_of(constituents)
    join.defused = True
    decided = []

    def on_join(_):
        check = join._check
        decided.append((
            env.now,
            [e for e in constituents if e.callbacks and check in e.callbacks],
        ))

    join.callbacks.append(on_join)
    env.run()

    early_failures = [
        i for i, (kind, _, done) in enumerate(drawn) if kind == "fail" and done
    ]
    late_failures = [
        (at, i) for i, (kind, at, done) in enumerate(drawn)
        if kind == "fail" and not done
    ]
    if early_failures:
        # Decided at construction by the first failed one it counts.
        at, first = 0, early_failures[0]
    elif late_failures:
        # The kernel fires same-instant failures in scheduling order.
        at, first = min(late_failures)
    if early_failures or late_failures:
        assert not join.ok
        assert join.value is constituents[first].value
        assert decided == [(start + at, [])]
    else:
        latest = max((at for _, at, done in drawn if not done), default=0)
        assert join.ok and join.value is None
        assert decided == [(start + latest, [])]
