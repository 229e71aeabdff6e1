"""Property tests for the bounded LRU mapping of the long-lived services.

Model-based: every operation sequence is replayed against a plain
``OrderedDict`` LRU reference, and the bounded mapping must agree on
contents and order at every step — that is the determinism contract
the gatekeeper tables and the flight recorder's id table lean on.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounded import BoundedDict

# Small key space so sequences collide, refresh, and evict constantly.
KEYS = st.integers(min_value=0, max_value=15)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), KEYS, st.integers()),
        st.tuples(st.just("get"), KEYS, st.none()),
        st.tuples(st.just("del"), KEYS, st.none()),
    ),
    max_size=80,
)
MAXSIZES = st.integers(min_value=1, max_value=8)


class ModelLRU:
    """Reference LRU over OrderedDict: stalest first, like BoundedDict."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.data: OrderedDict = OrderedDict()
        self.high_water = 0

    def set(self, key, value) -> None:
        if key in self.data:
            del self.data[key]
        self.data[key] = value
        if len(self.data) > self.maxsize:
            self.data.popitem(last=False)
        self.high_water = max(self.high_water, len(self.data))

    def get(self, key):
        if key not in self.data:
            return None
        self.data.move_to_end(key)  # refresh recency
        return self.data[key]

    def delete(self, key) -> None:
        self.data.pop(key, None)


def replay(maxsize: int, ops) -> BoundedDict:
    """Drive a BoundedDict and the model in lockstep, comparing each step."""
    bounded: BoundedDict = BoundedDict(maxsize)
    model = ModelLRU(maxsize)
    for op, key, value in ops:
        if op == "set":
            bounded[key] = value
            model.set(key, value)
        elif op == "get":
            assert bounded.get(key) == model.get(key)
        else:
            bounded.pop(key, None)
            model.delete(key)
        assert list(bounded.items()) == list(model.data.items())
        assert bounded.high_water == model.high_water
    return bounded


@given(maxsize=MAXSIZES, ops=OPS)
@settings(max_examples=200)
def test_matches_reference_lru(maxsize, ops):
    replay(maxsize, ops)


@given(maxsize=MAXSIZES, ops=OPS)
@settings(max_examples=100)
def test_size_never_exceeds_bound(maxsize, ops):
    bounded: BoundedDict = BoundedDict(maxsize)
    for op, key, value in ops:
        if op == "set":
            bounded[key] = value
        elif op == "get":
            bounded.get(key)
        else:
            bounded.pop(key, None)
        assert len(bounded) <= maxsize
    assert bounded.high_water <= maxsize


@given(maxsize=MAXSIZES, ops=OPS)
@settings(max_examples=100)
def test_replay_is_deterministic(maxsize, ops):
    first = replay(maxsize, ops)
    second = replay(maxsize, ops)
    assert list(first.items()) == list(second.items())
    assert first.high_water == second.high_water


def test_peek_and_contains_do_not_touch():
    bounded: BoundedDict = BoundedDict(2)
    bounded["a"] = 1
    bounded["b"] = 2
    assert bounded.peek("a") == 1
    assert "a" in bounded
    # "a" is still the LRU victim: peek/contains refreshed nothing.
    bounded["c"] = 3
    assert "a" not in bounded and "b" in bounded


def test_constructor_validation():
    with pytest.raises(ValueError):
        BoundedDict(0)
