"""Property test: a flight dump holds the last ``CAPACITY`` records.

Each category's ring is a ``collections.deque(maxlen=CAPACITY)`` with a
lifetime push count beside it; a dump must carry exactly the newest
``CAPACITY`` observations, oldest first, and counts that add up.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flightrec import CAPACITY, FlightRecorder


@given(count=st.integers(min_value=0, max_value=3 * CAPACITY))
@settings(max_examples=60, deadline=None)
def test_dump_reflects_last_capacity_events(count):
    recorder = FlightRecorder()
    for index in range(count):
        recorder.event("model", f"ev.{index}", {})
    dump = recorder.trip("snapshot")
    names = [r["name"] for r in dump["records"]["proto"]]
    expected = [f"ev.{i}" for i in range(max(0, count - CAPACITY), count)]
    assert names == expected
    counts = dump["counts"]["proto"]
    assert counts["pushed"] == count
    assert counts["live"] == len(expected)
    assert counts["evicted"] == count - len(expected)
