"""An observer stores on the hot path and renders on read.

The monitors' recorder and the flight recorder each used to double the
host cost of a run, nearly all of it rendering nobody read: a record
object per observation into rings that evict 99 % unread, endpoints
stringified five times per hook between them, five no-op trigger calls
per message, three vector clocks built per event.  Now the monitors
build no clock while the run executes: happens-before is derived from
the recorded edges when a monitor asks.  These are counts, not timings
(docs/OBSERVABILITY.md "What observing costs" has those): eight
concurrent co-allocations under both observers, and what each does per
message and per event must stay where the budget puts it: no vector
clock built during the run and none carried on a message, no flight
record dict built before a dump and then one per live ring entry, an
endpoint's text formatted once rather
than on every str(), and the log kept in compact rows.
"""

import gc
import sys

from repro.core.request import CoAllocationRequest
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.net.address import Endpoint
from repro.net.message import Message
from repro.obs import flightrec
from repro.verify.vclock import VClock

SITES = 8
REQUESTS = 8


def _counting(patch, owner, name, calls, key):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)

    patch.setattr(owner, name, counted)


def _counting_formats(patch, calls):
    """Count the str() calls that build an endpoint's text, not the ones
    that return the text an earlier call kept."""
    real = Endpoint.__str__

    def counted(self):
        if not hasattr(self, "_text"):
            calls["format"] += 1
        return real(self)

    patch.setattr(Endpoint, "__str__", counted)


def _bytes_per_observation(events):
    """sys.getsizeof over the log: the list, each event, and every
    distinct object the events hold (attrs and the containers they are
    stored in, keys, values, loci and names)."""
    seen, total, stack = set(), 0, [events]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total / len(events)


def test_observers_defer_rendering(monkeypatch):
    calls = dict.fromkeys(("format", "vclock", "record"), 0)
    with monkeypatch.context() as patch:
        _counting_formats(patch, calls)
        _counting(patch, VClock, "__init__", calls, "vclock")
        _counting(patch, flightrec, "_record", calls, "record")

        recorder = flightrec.FlightRecorder()
        grid = (
            GridBuilder(seed=42)
            .add_machines("RM", SITES, nodes=64)
            .with_monitors()
            .with_probe(recorder)
            .build()
        )
        duroc = grid.duroc()
        done = []

        def agent(index):
            request = CoAllocationRequest.from_rsl("+" + "".join(
                f"(&(resourceManagerContact=RM{(index + k) % SITES + 1}:gatekeeper)"
                f"(count={k % 3 + 1})(executable={DEFAULT_EXECUTABLE})"
                "(subjobStartType=required))"
                for k in range(SITES)
            ))
            job = duroc.submit(request)
            yield from job.commit()
            yield from job.wait_done()
            done.append(index)

        for index in range(REQUESTS):
            grid.process(agent(index))
        grid.run()
        observed = dict(calls)
        dump = recorder.trip("end of run")

    sent, events = grid.network.sent_count, len(grid.recorder.events)
    assert sorted(done) == list(range(REQUESTS)) and recorder.dumps == [dump]
    assert sent > 1000 and events > 2 * sent and sum(recorder.pushed.values()) > 10 * sent
    # The monitor hooks ask for a message's endpoints and its
    # endpoint-valued payload fields as text, 5.10 str() calls per
    # message; an endpoint formats only on its first str().  0.31 here.
    assert observed["format"] / sent <= 0.5
    # Before the log stored compact rows and shared endpoint text, this
    # load kept 516 bytes per observation; 334 now.
    assert _bytes_per_observation(grid.recorder.events) <= 360  # 30 % below 516
    # The monitors build no vector clock while the run executes, and a
    # message carries none.
    assert observed["vclock"] == 0
    assert "vclock" not in Message.__slots__
    # No record dict was built until something read the rings ...
    assert observed["record"] == 0
    # ... and then exactly one per entry still in them.
    assert calls["record"] == sum(len(ring) for ring in recorder.rings.values())
