"""An oracle for the clocks themselves.

``Recorder`` claims its vector clocks encode the run's happens-before
relation exactly.  The other tests check that along edges the recorder
itself drew (a send and its delivery, a witness chain); this one checks
the whole relation, both ways: over every pair of recorded events,
``a.clock <= b.clock`` iff ``a`` is reachable from ``b`` through
program-order (``prev``) and message (``link``) edges — on a clean run
and on one that loses a message and delivers another twice.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.simcore.probe import Probe
from repro.verify import EventLog, Recorder, VClock
from repro.verify.events import DELIVER, DROP

from tests.verify.test_recorder import run_simple


def _ancestors(events) -> dict[int, int]:
    """seq -> bitmask of the seqs reachable over ``prev``/``link`` edges."""
    reach: dict[int, int] = {}
    for event in events:  # log order is a topological order: edges point back
        mask = 0
        for edge in (event.prev, event.link):
            if edge is not None:
                mask |= reach[edge] | (1 << edge)
        reach[event.seq] = mask
    return reach


def _assert_clocks_are_reachability(events) -> int:
    log = EventLog(events)
    reach = _ancestors(events)
    on_a_locus = [e for e in events if e.kind != DROP]
    for b in on_a_locus:
        for a in on_a_locus:
            reachable = bool(reach[b.seq] >> a.seq & 1)
            assert log.happens_before(a, b) == reachable, (a.describe(), b.describe())
    return len(on_a_locus) ** 2


def test_clocks_equal_reachability_on_a_clean_run():
    _, _, recorder = run_simple()
    assert _assert_clocks_are_reachability(recorder.events) > 2_500  # pairs checked


class _FirstCheckinDelivered(Probe):
    message = None

    def on_deliver(self, message):
        if self.message is None and message.kind == "duroc.checkin":
            self.message = message


def run_lossy(seed: int = 7):
    """``run_simple`` with the first check-in lost (its sender repeats
    it) and the first one that arrives delivered a second time."""
    recorder, seen = Recorder(), _FirstCheckinDelivered()
    grid = (
        GridBuilder(seed=seed)
        .add_machine("RM1", nodes=8)
        .add_machine("RM2", nodes=8)
        .with_monitors(recorder)
        .with_probe(seen)
        .build()
    )
    lost = []

    def lose_first_checkin(message) -> bool:
        if message.kind == "duroc.checkin" and not lost:
            lost.append(message)
            return True
        return False

    grid.network.add_drop_rule(lose_first_checkin)
    duroc = grid.duroc()
    request = CoAllocationRequest([
        SubjobSpec(f"{site}:gatekeeper", 2, DEFAULT_EXECUTABLE,
                   start_type=SubjobType.REQUIRED)
        for site in ("RM1", "RM2")
    ])

    def duplicator(env):
        while seen.message is None:
            yield env.timeout(0.01)
        # There is no duplication fault; hand the same envelope to its
        # mailbox again, as the network's own delivery event does.
        grid.network._deliver_message(seen.message)

    grid.process(duplicator(grid.env))
    grid.run(grid.process(duroc.run(request)))
    return recorder


def test_clocks_equal_reachability_under_loss_and_duplication():
    recorder = run_lossy()
    assert [e for e in recorder.events if e.kind == DROP], "nothing was lost"
    copies = [e.attrs["copy"] for e in recorder.events if e.kind == DELIVER]
    assert max(copies) == 2, "nothing was delivered twice"
    _assert_clocks_are_reachability(recorder.events)
    # A drop sits on no locus: it carries its send's clock and advances nothing.
    for drop in (e for e in recorder.events if e.kind == DROP):
        assert drop.prev is None
        assert drop.clock == recorder.events[drop.link - 1].clock


_CLOCKS = st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 9), max_size=6)


@given(mine=_CLOCKS, theirs=st.one_of(st.none(), _CLOCKS), node=st.sampled_from("abcdefg"))
@settings(max_examples=300, deadline=None)
def test_fused_advance_is_merge_then_tick(mine, theirs, node):
    for other in (theirs, None if theirs is None else VClock(theirs)):
        clock = VClock(mine)
        fused = clock.merge_tick(other, node)
        assert fused == clock.merge(other).tick(node)
        assert fused is not clock and fused is not other
        # Neither operand moved: a clock is shared once it is published.
        assert clock.as_dict() == mine
        assert other is None or dict(other) == theirs
