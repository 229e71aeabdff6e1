"""``Environment.close()``: the end of a simulated world.

Closing ends every live process where it waits (its ``finally`` blocks
run once, in creation order), withdraws the receives it waited on,
retires pending timers and detaches the observers, so a dropped world
is freed by reference counting alone.
"""

import gc

import pytest

from repro.errors import SimulationError
from repro.simcore import TIMED_OUT, Environment, Process, Store, Tracer
from repro.simcore.resources import StoreGet, _Deadline


def guarded(env, log, name, event):
    try:
        yield event
    finally:
        log.append(name)


def test_finally_blocks_run_once_in_creation_order():
    env = Environment()
    store = Store(env)
    log = []
    env.process(guarded(env, log, "timeout", env.timeout(10.0)))
    env.process(guarded(env, log, "get", store.get()))
    env.process(guarded(env, log, "never-started", env.event()))
    env.run(until=1.0)
    env.process(guarded(env, log, "not-yet-initialised", env.event()))
    env.close()
    # A generator closed before its first step has no frame to unwind.
    assert log == ["timeout", "get", "never-started"]
    env.close()
    assert log == ["timeout", "get", "never-started"]
    assert env._closed and not env._processes and len(env.queue) == 0


def test_a_process_started_by_a_finally_block_is_closed_too():
    env = Environment()
    log = []

    def spawner(env):
        try:
            yield env.timeout(10.0)
        finally:
            env.process(guarded(env, log, "child", env.timeout(1.0)))
            log.append("parent")

    env.process(spawner(env))
    env.run(until=1.0)
    env.close()
    assert log == ["parent"]
    assert not env._processes


def test_finished_processes_leave_the_table():
    env = Environment()
    done = env.process(guarded(env, [], "done", env.timeout(1.0)))
    waiting = env.process(guarded(env, [], "waiting", env.timeout(5.0)))
    env.run(until=2.0)
    assert list(env._processes) == [waiting]
    assert not done.is_alive


def test_run_after_close_raises():
    env = Environment()
    env.timeout(1.0)
    env.close()
    with pytest.raises(SimulationError, match="closed"):
        env.run()
    with pytest.raises(SimulationError, match="closed"):
        env.run(until=5.0)


def test_a_process_cannot_close_its_own_environment():
    env = Environment()

    def closer(env):
        yield env.timeout(1.0)
        env.close()

    proc = env.process(closer(env))
    with pytest.raises(SimulationError, match="cannot close"):
        env.run(proc)
    assert not env._closed


def test_closing_mid_barrier_withdraws_every_timed_receive():
    """Processes blocked in a timed receive, as at a start-up barrier:
    closing neither raises nor fires anything."""
    env = Environment()
    store = Store(env)
    log = []

    def member(env, rank):
        try:
            reply = yield store.get(lambda item: item == rank, timeout=120.0)
            log.append(reply)
        finally:
            log.append(("closed", rank))

    for rank in range(3):
        env.process(member(env, rank))
    # A bare timed get no process waits on, and an item nobody wants.
    orphan = store.get(lambda item: item == "never", timeout=60.0)
    store.put("stray")
    env.run(until=10.0)
    env.close()
    assert log == [("closed", 0), ("closed", 1), ("closed", 2)]
    assert not store._waiters and list(store.items) == ["stray"]
    assert orphan.deadline is None and not orphan.triggered
    assert TIMED_OUT not in log


def test_the_tracer_keeps_its_spans():
    env = Environment()
    env.tracer = tracer = Tracer(env)

    def worker(env):
        start = env.now
        yield env.timeout(2.0)
        tracer.record("work", start, env.now)
        yield env.timeout(100.0)

    env.process(worker(env))
    env.run(until=3.0)
    env.close()
    assert env.tracer is not tracer and tracer.env is env
    assert [span.name for span in tracer.spans] == ["work"]


def alive(cls):
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_a_closed_world_is_freed_without_the_collector():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        kinds = (Process, Store, StoreGet, _Deadline, Environment)
        before = [alive(cls) for cls in kinds]
        env = Environment()
        env.tracer = Tracer(env)
        store = Store(env)

        def member(env):
            yield store.get(timeout=120.0)

        def poller(env):
            while True:
                yield env.timeout(1.0)

        for _ in range(5):
            env.process(member(env))
        env.process(poller(env))
        env.run(until=10.0)
        env.close()
        del env, store
        assert [alive(cls) for cls in kinds] == before
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
