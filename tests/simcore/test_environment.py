"""Unit tests for repro.simcore.environment."""

import pytest

from repro.errors import SimulationError
from repro.simcore import Environment


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=100.0).now == 100.0

    def test_run_until_time(self, env):
        env.timeout(10)
        env.run(until=5.0)
        assert env.now == 5.0

    def test_run_until_past_raises(self, env):
        env.timeout(1)
        env.run(until=5)
        with pytest.raises(SimulationError):
            env.run(until=2)

    def test_run_exhausts_queue(self, env):
        env.timeout(3)
        env.run()
        assert env.now == 3.0
        assert env.queue_size == 0

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.timeout(7)
        assert env.peek() == 7.0

    def test_clock_monotonic(self, env):
        times = []

        def proc(env):
            for delay in (1, 0, 2, 0, 3):
                yield env.timeout(delay)
                times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == sorted(times)

    def test_run_until_event_returns_value(self, env):
        ev = env.timeout(4, value="val")
        assert env.run(until=ev) == "val"
        assert env.now == 4

    def test_run_until_already_processed_event(self, env):
        ev = env.timeout(1, value="x")
        env.run()
        assert env.run(until=ev) == "x"

    def test_run_until_failed_event_raises(self, env):
        ev = env.event()

        def failer(env):
            yield env.timeout(1)
            ev.fail(KeyError("nope"))

        env.process(failer(env))
        with pytest.raises(KeyError):
            env.run(until=ev)

    def test_run_until_event_never_fires(self, env):
        ev = env.event()
        env.timeout(1)
        with pytest.raises(SimulationError, match="ran out of events"):
            env.run(until=ev)

    def test_negative_schedule_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.schedule(env.event(), delay=-1)

    def test_nan_schedule_delay_rejected(self, env):
        # NaN passes ``delay < 0``; scheduled, it would run the clock backwards.
        with pytest.raises(SimulationError):
            env.schedule(env.event(), delay=float("nan"))
        assert len(env.queue) == 0

    def test_nan_timeout_rejected_and_clock_stays_monotonic(self, env):
        fired = []

        def arm(delay):
            env.timeout(delay).callbacks.append(lambda _: fired.append(env.now))

        arm(5)
        with pytest.raises(SimulationError):
            arm(float("nan"))
        for delay in (1, 3, 2):
            arm(delay)
        env.run()
        assert fired == [1, 2, 3, 5]

    def test_step_on_empty_queue_raises(self, env):
        from repro.simcore.environment import EmptySchedule

        with pytest.raises(EmptySchedule):
            env.step()

    def test_run_stops_exactly_at_until_with_simultaneous_events(self, env):
        fired = []
        ev = env.timeout(5, value="at-5")
        ev.callbacks.append(lambda e: fired.append(e.value))
        env.run(until=5)
        # Events scheduled exactly at the horizon run before the stop
        # (NORMAL priority < stop priority).
        assert fired == ["at-5"]


class TestHeapCompaction:
    """Cancelled-event compaction: smaller heap, identical pop order."""

    def _churn(self, env, rounds=600):
        """Arm-and-retire watchdog timers, the compaction-worthy shape."""

        def proc(env):
            for _ in range(rounds):
                watchdog = env.timeout(10_000.0)
                yield env.timeout(0.01)
                watchdog.cancelled = True

        env.process(proc(env))

    def test_compaction_bounds_queue_size(self):
        env = Environment()
        self._churn(env)
        high_water = 0

        real_schedule = env.schedule

        def watching_schedule(*args, **kwargs):
            nonlocal high_water
            real_schedule(*args, **kwargs)
            high_water = max(high_water, env.queue_size)

        env.schedule = watching_schedule
        env.run()
        # 600 cancelled watchdogs would pile up without compaction; the
        # doubling floor keeps the queue within a small constant of the
        # live population (~2 events).
        assert high_water <= 2 * max(128, 4)

    def test_compaction_off_accumulates_cancelled(self):
        env = Environment(compact_cancelled=False)
        self._churn(env)
        peak = 0

        def proc(env):
            nonlocal peak
            while True:
                yield env.timeout(0.01)
                peak = max(peak, env.queue_size)

        env.process(proc(env))
        env.run(until=6.5)
        assert peak > 500  # the retired watchdogs stay queued

    def test_pop_order_identical_with_and_without_compaction(self):
        def workload(env, order):
            def worker(env, idx):
                for round_ in range(40):
                    watchdog = env.timeout(50.0)
                    yield env.timeout(0.01 * (1 + (idx + round_) % 7))
                    watchdog.cancelled = True
                    order.append((env.now, idx, round_))

            for idx in range(20):
                env.process(worker(env, idx))
            env.run()

        with_compaction: list = []
        workload(Environment(compact_cancelled=True), with_compaction)
        without: list = []
        workload(Environment(compact_cancelled=False), without)
        assert with_compaction == without

    def test_compacted_events_still_fire_when_not_cancelled(self):
        env = Environment()
        fired = []
        for i in range(500):
            ev = env.timeout(float(i), value=i)
            ev.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == list(range(500))

    def test_peek_skips_cancelled_head(self):
        env = Environment()
        doomed = env.timeout(1.0)
        env.timeout(2.0)
        doomed.cancelled = True
        assert env.peek() == 2.0
