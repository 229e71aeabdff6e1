"""A subjob's check-in deadline: one kernel timer that loses every tie.

The timer is scheduled after every ordinary event of its instant, so a
check-in that lands in the deadline's own instant is recorded whichever
of the two was scheduled first.  It is retired as soon as the slot stops
waiting, so it never moves the clock of a drained run.
"""

import pytest

from repro.core import (
    CoAllocationRequest,
    DurocEvent,
    RequestState,
    SubjobSpec,
    SubjobState,
)
from repro.core.barrier import CHECKIN
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.net import Endpoint, Port
from repro.net.message import Message

TIMEOUT = 20.0


def mute_program(ctx):
    """Starts and never checks in: the test checks in on its behalf."""
    yield ctx.port("app").recv()


@pytest.mark.parametrize("scheduled_first", ["checkin", "deadline"])
def test_a_checkin_in_its_deadlines_own_instant_is_recorded(scheduled_first):
    grid = (
        GridBuilder(seed=5)
        .add_machine("RM1", nodes=8)
        .program("mute", mute_program)
        .build()
    )
    env = grid.env
    duroc = grid.duroc(heartbeat_interval=0.0)
    stand_in = Port(grid.network, Endpoint("RM1", "stand-in"))
    outcome = {}

    def check_in(job, at_deadline):
        yield at_deadline
        slot = job.slots[0]
        assert slot.state is SubjobState.SUBMITTED and slot.deadline is not None
        grid.network.mailbox(job.port.endpoint).put(Message(
            stand_in.endpoint, job.port.endpoint, CHECKIN,
            {"slot_id": slot.slot_id, "rank": 0, "ok": True, "reason": None,
             "endpoint": stand_in.endpoint},
        ))

    def agent(env):
        # Both timers start at t=0, like the slot's submission, so they
        # fire at exactly 0.0 + TIMEOUT; only their order differs.
        if scheduled_first == "checkin":
            at_deadline = env.timeout(TIMEOUT)
        job = duroc.submit(CoAllocationRequest([
            SubjobSpec(grid.site("RM1").contact, 1, "mute", timeout=TIMEOUT)
        ]))
        if scheduled_first == "deadline":
            while job.slots[0].deadline is None:  # until the driver arms it
                yield env.timeout(0)
            at_deadline = env.timeout(TIMEOUT)
        env.process(check_in(job, at_deadline))
        outcome["result"] = yield from job.commit()
        return job

    job = grid.run(grid.process(agent(env)))
    (checkin,) = job.barrier.tables[job.slots[0].slot_id].checkins.values()
    assert checkin.time == TIMEOUT
    assert outcome["result"].released_at == TIMEOUT
    assert job.state is RequestState.RELEASED
    assert job.slots[0].state is SubjobState.RELEASED
    assert job.callbacks.events(DurocEvent.SUBJOB_TIMEOUT) == []
    grid.run()
    (release,) = stand_in.mailbox.items
    assert release.kind == "duroc.release"


@pytest.mark.parametrize("settle", ["checkin", "delete"])
def test_a_slot_that_stops_waiting_leaves_no_live_timer(settle):
    grid = GridBuilder(seed=5).add_machine("RM1", nodes=8).build()
    duroc = grid.duroc(default_subjob_timeout=10_000.0)
    contact = grid.site("RM1").contact

    def agent(env):
        job = duroc.submit(CoAllocationRequest([
            SubjobSpec(contact, 2, DEFAULT_EXECUTABLE),
            SubjobSpec(contact, 1, DEFAULT_EXECUTABLE),
        ]))
        yield from job.wait(lambda j: j.slots[0].state is SubjobState.SUBMITTED)
        slot = job.slots[0]
        timer = slot.deadline
        assert timer is not None and not timer.cancelled
        if settle == "checkin":
            yield from job.wait(lambda j: slot.state is SubjobState.CHECKED_IN)
        else:
            job.delete(slot)
        assert slot.deadline is None and timer.cancelled
        yield from job.commit()
        yield from job.wait_done()
        return job, timer

    job, timer = grid.run(grid.process(agent(grid.env)))
    grid.run()
    assert job.state is RequestState.DONE
    # Never processed: the kernel discarded it without moving the clock.
    assert not timer.processed
    assert grid.now < 100.0
    assert all(s.deadline is None for s in job.slots)
