"""``Store.get(filter, timeout)``: a receive with a deadline is one event.

The request fires with the item or with ``TIMED_OUT``; the deadline is
a kernel timer that loses every tie, is retired by the ``put`` that
grants the request, and is unlinked from the request by whichever side
decides (no cycle is left for the collector).
"""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.simcore import Environment, Process, Store
from repro.simcore.resources import TIMED_OUT, StoreGet, _Deadline


class Item:
    """A weak-referenceable payload."""


def put_at(env, store, when, item):
    env.timeout(when - env.now).callbacks.append(lambda event: store.put(item))


def receiver(env, store, log, filter=None, timeout=None):
    value = yield store.get(filter, timeout)
    log.append((env.now, value))


def test_item_put_in_the_deadlines_instant_is_delivered():
    env = Environment()
    store = Store(env)
    # The deadline is armed before the put's timer: in schedule order
    # it would fire first.  It loses the tie on priority.
    request = store.get(timeout=2.0)
    put_at(env, store, 2.0, "on time")
    env.run()
    assert env.now == 2.0 and request.value == "on time"
    assert not store.items and not store._waiters


def test_the_deadline_loses_the_tie_inside_a_process_too():
    env = Environment()
    store = Store(env)
    log = []
    env.process(receiver(env, store, log, timeout=2.0))
    env.run(until=1.0)
    put_at(env, store, 2.0, "on time")
    env.run()
    assert log == [(2.0, "on time")]


def test_item_put_an_instant_later_is_not_and_stays_queued():
    env = Environment()
    store = Store(env)
    log = []
    env.process(receiver(env, store, log, timeout=2.0))
    put_at(env, store, 2.0 + 1e-9, "late")
    env.run()
    assert log == [(2.0, TIMED_OUT)]
    assert list(store.items) == ["late"]
    # ... for the next get, which it serves at once.
    request = store.get(timeout=5.0)
    assert request.triggered and request.value == "late"


def test_expiry_withdraws_the_waiter_and_fires_timed_out():
    env = Environment()
    store = Store(env)
    request = store.get(lambda item: item == "wanted", timeout=3.0)
    assert list(store._waiters) == [request]
    env.run(until=2.0)
    assert not request.triggered and list(store._waiters) == [request]
    env.run()
    assert env.now == 3.0
    assert request.processed and request.value is TIMED_OUT
    assert not store._waiters
    # The item it wanted is nobody's now.
    store.put("wanted")
    assert list(store.items) == ["wanted"]


def test_expired_wait_costs_two_events_and_a_granted_one_one():
    env = Environment()
    store = Store(env)
    store.get(timeout=1.0)
    env.run()
    assert env.queue.stats()["pops"] == 2  # the deadline, then the request

    env = Environment()
    store = Store(env)
    store.get(timeout=1.0)
    store.put("x")
    env.run()
    stats = env.queue.stats()
    assert (stats["pushes"], stats["pops"], stats["discards"]) == (2, 1, 1)
    assert env.now == 0.0  # the retired deadline did not prolong the run


def test_timed_get_served_from_queued_items_arms_no_timer():
    env = Environment()
    store = Store(env)
    store.put("a")
    store.put("b")
    untimed = store.get()
    pushes = env.queue.stats()["pushes"]
    timed = store.get(timeout=5.0)
    assert env.queue.stats()["pushes"] == pushes + 1  # the request itself
    assert timed.deadline is None and untimed.deadline is None
    env.run()
    assert (untimed.value, timed.value) == ("a", "b")
    assert env.now == 0.0


def test_timeout_none_is_todays_get():
    env = Environment()
    store = Store(env)
    request = store.get(lambda item: item > 1)
    assert request.deadline is None
    assert env.queue.stats()["pushes"] == 0
    env.run()
    assert not request.triggered and list(store._waiters) == [request]
    store.put(1)
    store.put(2)
    env.run()
    assert request.value == 2 and list(store.items) == [1]


def test_zero_timeout_polls_the_current_instant():
    env = Environment()
    store = Store(env)
    log = []
    env.process(receiver(env, store, log, timeout=0.0))
    env.process(receiver(env, store, log, lambda item: item == "never", 0.0))
    put_at(env, store, 0.0, "now")
    env.run()
    assert log == [(0.0, "now"), (0.0, TIMED_OUT)]


def test_negative_timeout_is_refused_and_queues_nothing():
    env = Environment()
    store = Store(env)
    with pytest.raises(SimulationError):
        store.get(timeout=-1.0)
    assert not store._waiters and env.queue.stats()["pushes"] == 0


def test_cancel_retires_the_deadline():
    env = Environment()
    store = Store(env)
    request = store.get(timeout=4.0)
    deadline = request.deadline
    assert request.cancel()
    assert deadline.cancelled and deadline.request is None
    assert request.deadline is None and not store._waiters
    env.run()
    assert env.now == 0.0  # nothing left to fire


def test_fifo_order_among_timed_and_untimed_waiters():
    env = Environment()
    store = Store(env)
    first = store.get(timeout=1.0)
    second = store.get()
    third = store.get(timeout=9.0)
    env.run(until=1.5)
    assert first.value is TIMED_OUT
    store.put("x")
    store.put("y")
    env.run()
    assert (second.value, third.value) == ("x", "y")
    assert env.now == 1.5


def alive(cls):
    """Instances of exactly ``cls`` the interpreter still holds (kernel
    events are slotted, so they cannot be weakly referenced)."""
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


class TestNoCycleIsLeftForTheCollector:
    """Reference counting alone must free a decided request (PR 12's
    lesson: request <-> timer cycles were most of the collector's work).
    The collector is switched off here so only refcounts can free."""

    def setup_method(self):
        self._was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        self.baseline = {cls: alive(cls) for cls in (StoreGet, _Deadline, Process)}

    def teardown_method(self):
        if self._was_enabled:
            gc.enable()

    def extra(self, cls):
        return alive(cls) - self.baseline[cls]

    def test_granted_get_is_freed_while_its_deadline_sits_in_the_heap(self):
        env = Environment()
        store = Store(env)
        request = store.get(timeout=100.0)
        deadline = request.deadline
        item = Item()
        item_ref = weakref.ref(item)
        store.put(item)
        env.run(until=1.0)
        assert request.value is item
        # The retired deadline is still resident, holding neither.
        assert any(entry[3] is deadline for entry in env._heap)
        assert deadline.cancelled and deadline.request is None
        del request, item
        assert self.extra(StoreGet) == 0 and item_ref() is None
        assert self.extra(_Deadline) == 1

    def test_expired_get_and_its_deadline_are_freed(self):
        env = Environment()
        store = Store(env)
        request = store.get(timeout=1.0)
        assert (self.extra(StoreGet), self.extra(_Deadline)) == (1, 1)
        env.run()
        assert request.value is TIMED_OUT and request.deadline is None
        assert self.extra(_Deadline) == 0
        del request
        assert self.extra(StoreGet) == 0

    def test_a_waiting_process_is_freed_once_answered(self):
        env = Environment()
        store = Store(env)
        log = []
        env.process(receiver(env, store, log, timeout=50.0))
        env.run(until=1.0)
        assert [self.extra(cls) for cls in (Process, StoreGet, _Deadline)] == [1, 1, 1]
        store.put("x")
        env.run(until=2.0)
        assert log == [(1.0, "x")]
        # The process and its request are gone; the deadline is the
        # heap's alone until its instant comes up.
        assert [self.extra(cls) for cls in (Process, StoreGet, _Deadline)] == [0, 0, 1]
        env.run()
        assert self.extra(_Deadline) == 0 and env.now == 2.0
