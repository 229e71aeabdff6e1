"""Tests for the pending-event heap the environment owns.

The contract (DESIGN.md §7): entries carry a unique ``(time, priority,
sequence)`` key, ``schedule()`` pushes and ``step()`` pops them in
ascending key order, cancelled entries are discarded without firing,
and ``env.queue`` reports the heap's gauges.  Compaction bounds and
pop-order-under-compaction live in ``test_environment.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridenv import GridBuilder
from repro.prof.bench import DEFAULT_SEED, _kernel_stress_run
from repro.simcore import Environment, Probe
from repro.simcore.environment import EmptySchedule

_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    # Tie-prone times: exact multiples of common periods.
    st.integers(min_value=0, max_value=4000).map(lambda k: k * 0.25),
    st.integers(min_value=0, max_value=1000).map(lambda k: k * 0.002),
)


@given(st.lists(st.tuples(_TIMES, st.integers(0, 1)), max_size=150))
@settings(max_examples=200, deadline=None)
def test_bulk_drain_matches_sorted_keys(entries):
    """Running dry is a sort by (time, priority, sequence)."""
    env = Environment()
    fired = []
    for seq, (when, priority) in enumerate(entries):
        event = env.event()
        event.callbacks.append(lambda _event, seq=seq: fired.append(seq))
        env.schedule(event, priority=priority, delay=when)
    env.run()
    expected = sorted(
        (when, priority, seq) for seq, (when, priority) in enumerate(entries)
    )
    assert fired == [seq for _, _, seq in expected]


def test_environment_live_size_excludes_cancelled():
    env = Environment()
    keep = env.timeout(10.0)
    drop = env.timeout(20.0)
    drop.cancelled = True
    assert env.queue_size >= 2
    assert env.live_size == 1
    assert keep is not None


def test_explicit_compact_drops_cancelled_entries():
    env = Environment(compact_cancelled=False)
    timers = [env.timeout(float(i)) for i in range(10)]
    for timer in timers[:4]:
        timer.cancelled = True
    assert len(env.queue) == env.queue_size == 10
    assert env.live_size == 6
    env.compact()
    assert len(env.queue) == 6
    assert env.queue.stats()["discards"] == 4.0
    assert env.queue.stats()["compactions"] == 1.0


class _Tally(Probe):
    """Counts pushes and pops independently of the kernel's own gauges."""

    def __init__(self):
        self.scheduled = 0
        self.stepped = []
        self.high_water = 0

    def on_schedule(self, when, queue_size):
        self.scheduled += 1
        self.high_water = max(self.high_water, queue_size)

    def on_step(self, now):
        self.stepped.append(now)


class TestQueueStats:
    def test_gauges_after_timer_churn(self):
        tally = _Tally()
        tracer, _ = _kernel_stress_run(DEFAULT_SEED, probes=(tally,))
        env = tracer.env
        stats = env.queue.stats()
        assert all(isinstance(value, float) for value in stats.values())
        assert stats["pushes"] == tally.scheduled
        assert stats["pops"] == len(tally.stepped)
        assert stats["pushes"] == stats["pops"] + stats["discards"] + stats["size"]
        assert stats["size"] == len(env.queue) == 0
        assert stats["live_size"] == 0
        # The values the separate HeapQueue produced on this workload
        # (commit e7741ed): direct scheduling compacts at the same pushes.
        assert stats["high_water"] == tally.high_water == 600.0
        assert stats["compactions"] == 29.0
        assert stats["discards"] == 9000.0

    def test_identity_holds_mid_run(self):
        env = Environment()
        timers = [env.timeout(float(i % 7)) for i in range(50)]
        for timer in timers[::3]:
            timer.cancelled = True
        for _ in range(10):
            env.step()
        env.peek()
        stats = env.queue.stats()
        assert stats["pops"] == 10.0
        assert stats["size"] == len(env.queue)
        assert stats["pushes"] == stats["pops"] + stats["discards"] + stats["size"]


def _chatty_workload(env, log):
    """Same-instant timeouts, URGENT process resumptions scheduled
    mid-instant, and cancellations."""

    def worker(env, name, period):
        for round_ in range(20):
            watchdog = env.timeout(1000.0)
            yield env.timeout(period)
            watchdog.cancelled = True
            log.append((env.now, name, round_))

    def igniter(env):
        # Same-instant fan-out: every resumption lands at one timestamp.
        yield env.timeout(5.0)
        for idx in range(30):
            env.process(worker(env, f"spark{idx}", 0.5 + 0.25 * (idx % 4)))
        log.append((env.now, "ignite", -1))

    for idx in range(10):
        env.process(worker(env, f"base{idx}", 0.25 * (1 + idx % 8)))
    env.process(igniter(env))


@pytest.mark.parametrize("probed", [False, True], ids=["bare", "probed"])
def test_run_and_a_step_loop_dispatch_the_same_events(probed):
    """``run()`` is nothing but ``step()`` until the schedule is empty."""
    logs, tallies = [], []
    for drive in ("run", "step"):
        env = Environment()
        tally = _Tally()
        if probed:
            env.probe = tally
        log = []
        _chatty_workload(env, log)
        if drive == "run":
            env.run()
        else:
            with pytest.raises(EmptySchedule):
                while True:
                    env.step()
        logs.append((log, env.now, env.queue.stats()))
        tallies.append((tally.scheduled, tally.stepped))
    assert logs[0] == logs[1]
    assert tallies[0] == tallies[1]
    assert bool(tallies[0][1]) == probed


class TestQueueSeamIsGone:
    def test_environment_takes_no_queue(self):
        with pytest.raises(TypeError):
            Environment(queue="heap")

    def test_grid_builder_takes_no_queue(self):
        with pytest.raises(TypeError):
            GridBuilder(queue="heap")
