"""Unit tests for repro.simcore.resources."""

import pytest

from repro.simcore import Environment, Store


@pytest.fixture
def env():
    return Environment()


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

    def test_len(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put("x")
        assert len(store) == 1
