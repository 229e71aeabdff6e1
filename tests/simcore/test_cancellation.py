"""Tests for scheduled-event cancellation (retired timers)."""

import pytest

from repro.simcore import Environment


@pytest.fixture
def env():
    return Environment()


class TestCancelledEvents:
    def test_cancelled_timeout_never_fires(self, env):
        fired = []
        t = env.timeout(5, value="x")
        t.callbacks.append(lambda e: fired.append(e.value))
        t.cancelled = True
        env.run()
        assert fired == []

    def test_cancelled_timer_does_not_advance_clock(self, env):
        """The whole point: a retired 300 s watchdog must not drag the
        simulation's end time out to t=300."""
        long_timer = env.timeout(300)
        env.timeout(2)
        long_timer.cancelled = True
        env.run()
        assert env.now == 2.0

    def test_peek_skips_cancelled(self, env):
        early = env.timeout(1)
        env.timeout(10)
        early.cancelled = True
        assert env.peek() == 10.0

    def test_live_events_unaffected(self, env):
        order = []
        keep = env.timeout(1, value="keep")
        keep.callbacks.append(lambda e: order.append(e.value))
        drop = env.timeout(2, value="drop")
        drop.callbacks.append(lambda e: order.append(e.value))
        drop.cancelled = True
        late = env.timeout(3, value="late")
        late.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["keep", "late"]
        assert env.now == 3.0

    def test_run_until_ignores_cancelled_horizon_events(self, env):
        ghost = env.timeout(50)
        ghost.cancelled = True
        env.timeout(2)
        env.run(until=100)
        # The horizon stop-event fires at 100 regardless.
        assert env.now == 100.0


class TestWatchdogRetirement:
    def test_duroc_simulation_ends_promptly(self):
        """End-to-end: a released-and-finished co-allocation leaves no
        300 s watchdog tail (the bug the examples exposed)."""
        from repro.core import CoAllocationRequest, SubjobSpec
        from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder

        grid = GridBuilder(seed=67).add_machine("m", nodes=8).build()
        duroc = grid.duroc()  # default 300 s subjob timeout
        request = CoAllocationRequest(
            [SubjobSpec(contact=grid.site("m").contact, count=2,
                        executable=DEFAULT_EXECUTABLE)]
        )

        def agent(env):
            job = duroc.submit(request)
            result = yield from job.commit()
            return result

        grid.run(grid.process(agent(grid.env)))
        grid.run()  # full drain
        assert grid.now < 30.0
