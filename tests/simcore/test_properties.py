"""Property-based tests for the discrete-event kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Environment, Store


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50))
@settings(max_examples=200)
def test_clock_monotonic_and_events_in_order(delays):
    """Events fire in nondecreasing time order regardless of creation order."""
    env = Environment()
    fired = []
    for delay in delays:
        ev = env.timeout(delay, value=delay)
        ev.callbacks.append(lambda e: fired.append((env.now, e.value)))
    env.run()
    assert len(fired) == len(delays)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # Each event fires exactly at its delay.
    assert sorted(v for _, v in fired) == sorted(delays)
    for t, v in fired:
        assert t == v


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                min_size=2, max_size=20))
@settings(max_examples=100)
def test_same_instant_is_fifo(delays):
    """Events scheduled for the same time fire in creation order."""
    env = Environment()
    fired = []
    for idx, _ in enumerate(delays):
        ev = env.timeout(5.0, value=idx)
        ev.callbacks.append(lambda e: fired.append(e.value))
    env.run()
    assert fired == list(range(len(delays)))


@given(st.lists(st.tuples(st.sampled_from(["put", "get"]),
                          st.integers(0, 100)),
                min_size=1, max_size=60))
@settings(max_examples=150)
def test_store_conserves_items(ops):
    """Whatever goes into a Store comes out exactly once, FIFO."""
    env = Environment()
    store = Store(env)
    put_items = []
    got_items = []

    def consumer(env, n_gets):
        for _ in range(n_gets):
            item = yield store.get()
            got_items.append(item)

    n_puts = sum(1 for op, _ in ops if op == "put")
    n_gets = min(n_puts, sum(1 for op, _ in ops if op == "get"))
    env.process(consumer(env, n_gets))

    def producer(env):
        for op, value in ops:
            if op == "put":
                store.put(value)
                put_items.append(value)
            yield env.timeout(0.1)

    env.process(producer(env))
    env.run()
    assert got_items == put_items[:n_gets]
    assert list(store.items) == put_items[n_gets:]


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_process_join_returns_value(data):
    """Joining any finished process yields its return value."""
    values = data.draw(st.lists(st.integers(), min_size=1, max_size=8))
    env = Environment()

    def worker(env, value, delay):
        yield env.timeout(delay)
        return value

    def parent(env):
        procs = [
            env.process(worker(env, v, i * 0.5))
            for i, v in enumerate(values)
        ]
        results = []
        for proc in procs:
            results.append((yield proc))
        return results

    assert env.run(env.process(parent(env))) == values
