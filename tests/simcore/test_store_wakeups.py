"""Targeted ``Store`` wake-ups grant exactly what the full rescan did.

``Store.put`` offers a new item only to the queued waiters and
``Store.get`` tries a new request only against the queued items (the
invariant in the class docstring).  :class:`RescanStore` below is the
implementation that preceded it — after every ``put``/``get`` it
rescanned every waiter against every item, restarting after each
grant — kept here as the oracle: driven in lockstep through random
interleavings of ``put``, ``get()`` and ``get(filter)`` the two must
grant the same items to the same requests during the same call, and
leave the same items and waiters behind.

Timed gets ride the same interleavings.  The oracle has no kernel
timer: it notes when each timed request is due and, as the clock is
advanced, withdraws whichever are still waiting once everything else
in their instant has run — the specification ``Store.get(timeout=)``
implements with a priority and two pointers.  Puts scheduled for a
later instant land *inside* the run, so ties with a deadline occur.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Environment, Store
from repro.simcore.resources import TIMED_OUT, StoreGet


class RescanStore(Store):
    """The pre-targeting ``Store``: append, then rescan everything."""

    def put(self, item):
        self.items.append(item)
        self._wake()

    def __init__(self, env):
        super().__init__(env)
        #: (due, request) of every timed get, in arming order.
        self.due = []

    def get(self, filter=None, timeout=None):
        request = StoreGet(self, filter)
        self._waiters.append(request)
        self._wake()
        if timeout is not None and not request.triggered:
            self.due.append((self.env.now + timeout, request))
        return request

    def run(self, until):
        """Advance the clock, expiring due requests at the end of their instant."""
        env = self.env
        for due in sorted({due for due, _ in self.due if due <= until}):
            env.run(until=due)
            for _, request in [entry for entry in self.due if entry[0] == due]:
                if not request.triggered:
                    self._waiters.remove(request)
                    request.succeed(TIMED_OUT)
        self.due = [entry for entry in self.due if entry[0] > until]
        env.run(until=until)

    def _try_grant(self, request):
        if request.filter is None:
            if self.items:
                request.succeed(self.items.pop(0))
                return True
            return False
        for idx, item in enumerate(self.items):
            if request.filter(item):
                del self.items[idx]
                request.succeed(item)
                return True
        return False

    def _wake(self):
        waiters = self._waiters
        idx = 0
        while idx < len(waiters):
            if self._try_grant(waiters[idx]):
                del waiters[idx]
                # Restart: granting may have consumed items others wanted.
                idx = 0
            else:
                idx += 1


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 11)),
        st.tuples(st.just("get"), st.none()),
        # Overlapping predicates: residues mod 2 and mod 3 share items.
        st.tuples(st.just("get"), st.tuples(st.sampled_from([2, 3]), st.integers(0, 2))),
        # Whole-number delays, so deadlines, delayed puts and the
        # instants the clock stops at coincide often.
        st.tuples(st.just("timed_get"), st.tuples(
            st.one_of(st.none(), st.tuples(st.sampled_from([2, 3]), st.integers(0, 2))),
            st.integers(0, 3),
        )),
        st.tuples(st.just("put_later"), st.tuples(st.integers(0, 3), st.integers(0, 11))),
        st.tuples(st.just("advance"), st.integers(0, 3)),
    ),
    max_size=80,
)


class _Driver:
    def __init__(self, store_cls):
        self.env = Environment()
        self.store = store_cls(self.env)
        self.requests = []
        self.fired = []

    def apply(self, op):
        kind, arg = op
        if kind == "put":
            self.store.put(arg)
        elif kind == "put_later":
            delay, item = arg
            self.env.timeout(delay).callbacks.append(lambda event: self.store.put(item))
        elif kind == "advance":
            until = self.env.now + arg
            if isinstance(self.store, RescanStore):
                self.store.run(until)
            else:
                self.env.run(until=until)
        elif kind in ("get", "timed_get"):
            timeout = None
            if kind == "timed_get":
                arg, timeout = arg
            accepts = None
            if arg is not None:
                modulus, residue = arg
                accepts = lambda item: item % modulus == residue  # noqa: E731
            request = self.store.get(accepts, timeout)
            index = len(self.requests)
            request.callbacks.append(
                lambda event: self.fired.append((self.env.now, index, event.value))
            )
            self.requests.append(request)

    def state(self):
        return (
            [request.triggered for request in self.requests],
            list(self.store.items),
            [self.requests.index(waiter) for waiter in self.store._waiters],
        )


@given(_OPS)
@settings(max_examples=500, deadline=None)
def test_targeted_wakeups_match_the_full_rescan(ops):
    new = _Driver(Store)
    old = _Driver(RescanStore)
    for op in ops:
        new.apply(op)
        old.apply(op)
        # Same grants, during the same call, same leftovers.
        assert new.state() == old.state()
        # The invariant that makes targeting sound.
        for waiter in new.store._waiters:
            assert not any(
                waiter.filter is None or waiter.filter(item)
                for item in new.store.items
            )
    new.env.run()
    old.store.run(new.env.now)
    old.env.run()
    # Events fire in the order they were granted or expired, at the
    # same instants.
    assert new.fired == old.fired
    assert new.state() == old.state()


def test_put_offers_the_item_to_waiters_in_fifo_order():
    env = Environment()
    store = Store(env)
    first = store.get(lambda item: item > 10)
    second = store.get()
    third = store.get()
    store.put(5)
    assert (first.triggered, second.triggered, third.triggered) == (False, True, False)
    assert second.value == 5
    store.put(50)
    assert first.value == 50 and not third.triggered
    assert len(store) == 0
