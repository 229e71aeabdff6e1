"""Unit tests for repro.simcore.resources."""

import pytest

from repro.errors import SimulationError
from repro.simcore import Container, Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_grant_within_capacity_is_immediate(self, env):
        res = Resource(env, capacity=2)

        def proc(env):
            yield res.request()
            return env.now

        assert env.run(env.process(proc(env))) == 0.0
        assert res.in_use == 1
        assert res.available == 1

    def test_fifo_queueing(self, env):
        res = Resource(env, capacity=1)
        order = []

        def holder(env):
            yield res.request()
            yield env.timeout(5)
            res.release()

        def waiter(env, tag):
            yield res.request()
            order.append((tag, env.now))
            res.release()

        env.process(holder(env))

        def spawn(env):
            yield env.timeout(1)
            env.process(waiter(env, "first"))
            yield env.timeout(1)
            env.process(waiter(env, "second"))

        env.process(spawn(env))
        env.run()
        assert order == [("first", 5.0), ("second", 5.0)]

    def test_release_without_request_raises(self, env):
        res = Resource(env)
        with pytest.raises(SimulationError):
            res.release()


class TestContainer:
    def test_init_validation(self, env):
        with pytest.raises(SimulationError):
            Container(env, capacity=5, init=6)
        with pytest.raises(SimulationError):
            Container(env, init=-1)

    def test_get_blocks_until_available(self, env):
        pool = Container(env, capacity=10, init=0)
        got_at = []

        def consumer(env):
            yield pool.get(4)
            got_at.append(env.now)

        def producer(env):
            yield env.timeout(3)
            pool.put(4)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got_at == [3.0]
        assert pool.level == 0

    def test_overflow_raises(self, env):
        pool = Container(env, capacity=5, init=5)
        with pytest.raises(SimulationError):
            pool.put(1)

    def test_negative_amounts_rejected(self, env):
        pool = Container(env, capacity=5, init=5)
        with pytest.raises(SimulationError):
            pool.put(-1)
        with pytest.raises(SimulationError):
            pool.get(-1)

    def test_fifo_head_blocks_tail(self, env):
        """Container grants strictly FIFO: a large head request blocks
        a small later one even if the small one could be satisfied."""
        pool = Container(env, capacity=10, init=3)
        order = []

        def taker(env, amount, tag):
            yield pool.get(amount)
            order.append(tag)

        env.process(taker(env, 5, "big"))

        def late_small(env):
            yield env.timeout(1)
            env.process(taker(env, 1, "small"))
            yield env.timeout(1)
            pool.put(4)

        env.process(late_small(env))
        env.run()
        assert order == ["big", "small"]


class TestStore:
    def test_put_get_fifo(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        got = []

        def proc(env):
            got.append((yield store.get()))
            got.append((yield store.get()))

        env.run(env.process(proc(env)))
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((item, env.now))

        def producer(env):
            yield env.timeout(2)
            store.put("item")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [("item", 2.0)]

    def test_filtered_get(self, env):
        store = Store(env)
        store.put({"kind": "x", "n": 1})
        store.put({"kind": "y", "n": 2})

        def proc(env):
            item = yield store.get(filter=lambda m: m["kind"] == "y")
            return item["n"]

        assert env.run(env.process(proc(env))) == 2
        assert len(store) == 1

    def test_filtered_waiter_does_not_block_others(self, env):
        store = Store(env)
        got = []

        def picky(env):
            item = yield store.get(filter=lambda m: m == "wanted")
            got.append(("picky", item, env.now))

        def easy(env):
            item = yield store.get()
            got.append(("easy", item, env.now))

        env.process(picky(env))
        env.process(easy(env))

        def producer(env):
            yield env.timeout(1)
            store.put("other")  # must go to 'easy', not block on 'picky'
            yield env.timeout(1)
            store.put("wanted")

        env.process(producer(env))
        env.run()
        assert ("easy", "other", 1.0) in got
        assert ("picky", "wanted", 2.0) in got

    def test_capacity_overflow(self, env):
        store = Store(env, capacity=1)
        store.put(1)
        with pytest.raises(SimulationError):
            store.put(2)

    def test_len(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put("x")
        assert len(store) == 1
