"""Check-in retransmission: who repairs which loss, and on what schedule.

The barrier messages ride a lossy datagram network.  A lost CHECKIN is
repaired by the process's own resend, a lost RELEASE by the
co-allocator's ``resend_release`` when the next resend reaches it; both
are bounded by ``applib.CHECKIN_RESEND``.  Every test drops messages
with ``Network`` drop rules on a two-site grid and reads the outcome
from the probe seam.

Two budgets are counts, not timings: 64 processes held at the barrier
for 100 s send at most 8 check-ins per recorded process, and a released
waiter is resumed by its receive's own event, with no composite event
between them.
"""

from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CoAllocationRequest, RequestState, SubjobSpec
from repro.core.applib import CHECKIN_RESEND, PARAM_SLOT, barrier
from repro.core.barrier import ABORT, CHECKIN, RELEASE
from repro.errors import AllocationAborted, StopProcess
from repro.gridenv import GridBuilder
from repro.simcore.probe import Probe

from .conftest import first

#: Seconds after its first check-in at which a waiting process re-sends
#: it, and at which it gives up — the instant PR 3's sixty 2 s resends
#: ended at.
RESEND_OFFSETS = [2.0, 6.0, 14.0, 30.0, 60.0, 90.0, 120.0]
GIVE_UP = 122.0

BARRIER_KINDS = (CHECKIN, RELEASE, ABORT)


class BarrierLog(Probe):
    """Barrier traffic and barrier events, timestamped."""

    def __init__(self):
        self.sent = []        # (now, message)
        self.delivered = []   # (now, message)
        self.events = []      # (now, name, attrs)
        self.repairs = []     # (now, rank) of every resend_release
        self.records = 0      # BarrierManager.record calls
        self.steps = 0        # kernel events processed so far
        self.released = []    # step at which each RELEASE was delivered
        self.resumed = []     # step at which each process left the barrier

    def on_step(self, now):
        self.steps += 1

    def on_send(self, message):
        if message.kind in BARRIER_KINDS:
            self.sent.append((self.env.now, message))

    def on_deliver(self, message):
        if message.kind in BARRIER_KINDS:
            self.delivered.append((self.env.now, message))
            if message.kind == RELEASE:
                self.released.append(self.steps)

    def event(self, node, name, attrs):
        if name.startswith("barrier."):
            self.events.append((self.env.now, name, attrs))
            if name == "barrier.exit":
                self.resumed.append(self.steps)

    def access(self, node, resource, mode, attrs):
        if attrs.get("op") == "resend_release":
            self.repairs.append((self.env.now, attrs["rank"]))
        elif attrs.get("op") == "record":
            self.records += 1

    def when(self, name, slot, rank):
        """Times of event ``name`` at process (slot, rank)."""
        return [
            now for now, event, attrs in self.events
            if event == name and attrs["slot"] == slot and attrs["rank"] == rank
        ]

    def checkins_from(self, slot, rank):
        return [
            now for now, message in self.sent
            if message.kind == CHECKIN
            and (message.payload["slot_id"], message.payload["rank"]) == (slot, rank)
        ]


class World:
    """A two-site grid whose processes report how they left the barrier."""

    def __init__(self, slow_startup=0.0, counts=(2, 2)):
        self.log = BarrierLog()
        self.configs = {}   # (slot, rank) -> DurocConfig
        self.stopped = {}   # (slot, rank) -> StopProcess value
        self.grid = (
            GridBuilder(seed=3)
            .add_machine("RM1", nodes=64)
            .add_machine("RM2", nodes=64)
            .program("fast", self._program(0.0))
            .program("slow", self._program(slow_startup))
            .with_probe(self.log)
            .build()
        )
        self.request = CoAllocationRequest([
            SubjobSpec(contact=self.grid.site("RM1").contact, count=counts[0],
                       executable="fast"),
            SubjobSpec(contact=self.grid.site("RM2").contact, count=counts[1],
                       executable="slow"),
        ])
        self.job = None
        self.result = None

    def _program(self, startup):
        def program(ctx):
            key = (ctx.params[PARAM_SLOT], ctx.rank)
            port = ctx.port("duroc")
            if startup > 0:
                yield ctx.env.timeout(startup)
            try:
                config = yield from barrier(ctx, port)
            except StopProcess as stop:
                self.stopped[key] = stop.args[0]
                raise
            self.configs[key] = config
            yield ctx.env.timeout(1.0)

        return program

    def drop(self, rule):
        self.grid.network.add_drop_rule(rule)

    def run(self, until=None):
        duroc = self.grid.duroc()

        def agent(env):
            self.job = duroc.submit(self.request)
            try:
                self.result = yield from self.job.commit()
            except AllocationAborted:
                # A loss pattern may abort the request; the tests read
                # the outcome from the job's state and the probe.
                return
            yield from self.job.wait_done()

        self.grid.process(agent(self.grid.env))
        self.grid.run(until=until)
        return self

    def latency(self, site):
        network = self.grid.network
        return network.latency_model.latency(site, self.job.port.endpoint.host)

    def slot_of(self, index):
        return self.job.slots[index].slot_id


def test_schedule_is_pinned():
    assert list(accumulate(CHECKIN_RESEND.schedule())) == RESEND_OFFSETS
    assert CHECKIN_RESEND.deadline == GIVE_UP
    assert CHECKIN_RESEND.jitter == 0.0


def test_lost_first_checkin_is_repaired_by_the_first_resend():
    clean = World().run()
    lossy = World()
    # The last process to arrive is the one the commit waits for.
    lossy.drop(first(
        lambda m: m.kind == CHECKIN and m.src.host == "RM2" and m.payload["rank"] == 1
    ))
    lossy.run()

    last = (lossy.slot_of(1), 1)
    (entered,) = lossy.log.when("barrier.enter", *last)
    recorded = lossy.job.barrier.tables[last[0]].checkins[1].time
    assert recorded == pytest.approx(entered + 2.0 + lossy.latency("RM2"), abs=1e-9)
    assert lossy.log.checkins_from(*last) == pytest.approx([entered, entered + 2.0])
    # Nothing else moved: the commit is late by exactly the first resend.
    assert lossy.result.released_at - clean.result.released_at == pytest.approx(
        2.0, abs=1e-9
    )
    assert lossy.job.state is clean.job.state is RequestState.DONE
    assert [config.sizes for config in lossy.configs.values()] == [(2, 2)] * 4


def test_lost_release_is_repaired_at_the_next_scheduled_resend():
    world = World(slow_startup=20.0)
    world.drop(first(
        lambda m: m.kind == RELEASE and m.dst.host == "RM1" and m.payload["my_rank"] == 1
    ))
    world.run()

    slot = world.slot_of(0)
    (entered,) = world.log.when("barrier.enter", slot, 1)
    (left,) = world.log.when("barrier.exit", slot, 1)
    released_at = world.result.released_at
    # Released ≈ 20 s in: the resends at +2, +6, +14 are behind it, the
    # next one is at +30 — that is the one the co-allocator answers.
    assert entered + 14.0 < released_at < entered + 30.0
    assert world.log.repairs == [
        (pytest.approx(entered + 30.0 + world.latency("RM1")), 1)
    ]
    assert left == pytest.approx(entered + 30.0 + 2 * world.latency("RM1"), abs=1e-9)
    assert left - released_at <= CHECKIN_RESEND.max_delay
    assert world.log.checkins_from(slot, 1) == pytest.approx(
        [entered + offset for offset in (0.0, 2.0, 6.0, 14.0, 30.0)]
    )
    # The repaired rank holds the configuration its peers got first time.
    assert world.configs[(slot, 1)].addresses == world.configs[(slot, 0)].addresses
    assert world.configs[(slot, 1)].sizes == (2, 2)
    assert world.job.state is RequestState.DONE


def test_no_verdict_at_all_is_abandoned_at_the_give_up_horizon():
    world = World()
    world.drop(lambda message: message.kind in (RELEASE, ABORT))
    world.run()

    assert world.configs == {}
    assert len(world.stopped) == 4
    for (slot, rank), stop in world.stopped.items():
        (entered,) = world.log.when("barrier.enter", slot, rank)
        (abandoned,) = world.log.when("barrier.abandoned", slot, rank)
        assert abandoned == pytest.approx(entered + GIVE_UP, abs=1e-9)
        assert stop == ("failed", "no barrier verdict arrived")
        assert world.log.checkins_from(slot, rank) == pytest.approx(
            [entered] + [entered + offset for offset in RESEND_OFFSETS]
        )
        assert world.log.when("barrier.exit", slot, rank) == []


@settings(max_examples=40, deadline=None)
@given(mask=st.lists(st.booleans(), max_size=60))
# Every check-in of one process is lost (the initial one and all seven
# resends): the request aborts at its check-in deadline, after every
# process has abandoned the barrier.
@example(mask=[i in (0, 2, 6, 12, 16, 20, 24, 28) for i in range(29)])
def test_any_loss_pattern_leaves_each_process_one_outcome(mask):
    """Drop barrier messages by a random mask (message *i* is lost iff
    ``mask[i]``): no process both returns a configuration and abandons,
    and every process a RELEASE copy reached while it waited returns the
    configuration of its slot."""
    world = World(slow_startup=3.0)
    fate = iter(mask)
    world.drop(lambda m: m.kind in BARRIER_KINDS and next(fate, False))
    world.run(until=400.0)

    log = world.log
    for _, name, attrs in log.events:
        if name == "barrier.abandoned":
            assert (attrs["slot"], attrs["rank"]) not in world.configs
    assert not set(world.configs) & set(world.stopped)

    entered = {
        (attrs["slot"], attrs["rank"])
        for _, name, attrs in log.events if name == "barrier.enter"
    }
    endpoint_of = {
        message.payload["endpoint"]: (message.payload["slot_id"], message.payload["rank"])
        for _, message in log.sent if message.kind == CHECKIN
    }
    first_verdict = {}
    for now, message in log.delivered:
        if message.kind == CHECKIN:
            continue
        key = endpoint_of[message.dst]
        gave_up = log.when("barrier.abandoned", *key)
        if not gave_up or now < gave_up[0]:
            first_verdict.setdefault(key, message)
    assert set(first_verdict) <= entered
    for key, message in first_verdict.items():
        if message.kind == RELEASE:
            config = world.configs[key]
            assert config.my_rank == key[1]
            assert config.sizes == (2, 2)
            assert config.addresses == message.payload["addresses"]
            peers = [
                world.configs[other] for other in world.configs if other[0] == key[0]
            ]
            assert all(
                (peer.sizes, peer.my_subjob, peer.addresses)
                == (config.sizes, config.my_subjob, config.addresses)
                for peer in peers
            )
        else:
            assert world.stopped[key][0] == "aborted"


def test_checkin_traffic_follows_processes_not_waiting_time():
    """Tripwire, as a count: 64 processes held at the barrier for 100
    simulated seconds by one slow required subjob send a handful of
    check-ins each (51 apiece on the fixed 2 s poll)."""
    world = World(slow_startup=100.0, counts=(64, 1)).run()

    assert world.job.state is RequestState.DONE
    assert world.log.records == 65
    checkins = sum(message.kind == CHECKIN for _, message in world.log.sent)
    assert checkins / world.log.records <= 8


def test_a_released_process_is_resumed_by_its_receives_own_event():
    """Tripwire, as a count: 64 processes held at the barrier are
    released in one instant, and that instant is two kernel events per
    process — the RELEASE delivered, then the timed receive it answers,
    whose own step resumes the waiter (a third, a ``Condition`` over the
    receive and a timer, stood between them until PR 20)."""
    world = World(slow_startup=100.0, counts=(64, 1)).run()
    log = world.log

    assert world.job.state is RequestState.DONE
    assert len(log.released) == len(log.resumed) == 65
    # Every RELEASE is delivered before the first process resumes, so the
    # receives fire in delivery order, one step each.
    assert log.released == list(range(log.released[0], log.released[0] + 65))
    assert log.resumed == [step + 65 for step in log.released]
