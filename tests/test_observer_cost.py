"""An observer stores on the hot path and renders on read.

The monitors' recorder and the flight recorder each used to double the
host cost of a run, nearly all of it rendering nobody read: a record
object per observation into rings that evict 99 % unread, endpoints
stringified five times per hook between them, five no-op trigger calls
per message, three vector clocks built per event.  These are counts,
not timings (docs/OBSERVABILITY.md "What observing costs" has those):
eight concurrent co-allocations under both observers, and what each
does per message and per event must stay where the budget puts it.
"""

from repro.core.request import CoAllocationRequest
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.net.address import Endpoint
from repro.obs import flightrec
from repro.verify.vclock import VClock

SITES = 8
REQUESTS = 8
RECORD_CLASSES = ("KernelRecord", "MessageRecord", "ProtoRecord", "SpanRecord")


def _counting(patch, owner, name, calls, key):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)

    patch.setattr(owner, name, counted)


def test_observers_defer_rendering(monkeypatch):
    calls = dict.fromkeys(("str", "base_match", "vclock", "record"), 0)
    with monkeypatch.context() as patch:
        _counting(patch, Endpoint, "__str__", calls, "str")
        _counting(patch, flightrec.Trigger, "match_message", calls, "base_match")
        _counting(patch, flightrec.Trigger, "match_event", calls, "base_match")
        _counting(patch, VClock, "__init__", calls, "vclock")
        for name in RECORD_CLASSES:
            _counting(patch, getattr(flightrec, name), "__init__", calls, "record")

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
    assert sent > 1000 and events > 2 * sent and recorder.records_observed > 10 * sent
    # Each endpoint of a message is stringified once per monitor hook
    # (send, deliver) and never by the flight recorder: 4, plus the
    # endpoint-valued payload fields and the loci registered.
    assert observed["str"] / sent <= 5
    # No default rule overrides match_message, and every one overrides
    # match_event: the base no-ops are never reached.
    assert observed["base_match"] == 0
    # One clock per event; the empty clock of a new locus is shared.
    assert observed["vclock"] / events <= 1.1
    # Nothing was rendered until something read the rings ...
    assert observed["record"] == 0
    # ... and then only what was still in them.
    assert calls["record"] == sum(len(ring) for ring in recorder.rings.values())
