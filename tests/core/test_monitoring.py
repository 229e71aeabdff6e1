"""Tests for §3.4 monitoring: heartbeat liveness detection and events."""

import pytest

from repro.core import (
    CoAllocationRequest,
    DurocEvent,
    RequestState,
    SubjobState,
    SubjobSpec,
    SubjobType,
)
from repro.core.applib import make_program
from repro.errors import AllocationAborted
from repro.faults import HostCrash, schedule
from repro.gram import JobState
from repro.gram.jobmanager import CALLBACK, STATUS
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder

from .conftest import first

#: One-way latency of the fixture grid (``GridBuilder``'s default).
LATENCY = 0.002
RTT = 2 * LATENCY
LOST_CONTACT = "lost contact with job manager"


def crash_at(machine, at):
    """Schedule a crash of ``machine`` via the declarative fault facade."""
    schedule(machine.env, machine, [HostCrash(machine.name, at=at)])


@pytest.fixture
def grid():
    return (
        GridBuilder(seed=61)
        .add_machine("RM1", nodes=16)
        .add_machine("RM2", nodes=16)
        .build()
    )


def request_for(grid, *specs):
    return CoAllocationRequest(list(specs))


def spec(grid, name, count=2, start_type=SubjobType.REQUIRED,
         executable=DEFAULT_EXECUTABLE, timeout=None):
    return SubjobSpec(contact=grid.site(name).contact, count=count,
                      executable=executable, start_type=start_type,
                      timeout=timeout)


class TestHeartbeat:
    def test_detects_crash_before_checkin(self, grid):
        """A machine that dies *after* accepting the submission but
        before its processes check in is noticed by polling, not by the
        (much longer) subjob timeout."""
        grid.machine("RM2").overload(20.0)  # slow startup: ~14 s
        duroc = grid.duroc(
            heartbeat_interval=0.5, default_subjob_timeout=300.0
        )

        def agent(env):
            job = duroc.submit(
                request_for(
                    grid,
                    spec(grid, "RM1"),
                    spec(grid, "RM2", start_type=SubjobType.INTERACTIVE),
                )
            )
            # Crash RM2 once its subjob is submitted but not checked in.
            yield from job.wait(
                lambda j: j.slots[1].state is SubjobState.SUBMITTED
            )
            crash_at(grid.machine("RM2"), at=env.now + 0.5)
            result = yield from job.commit()
            return (job, result, env.now)

        job, result, released = grid.run(grid.process(agent(grid.env)))
        assert result.sizes == (2,)
        # Detection took heartbeat time (seconds), not the 300 s timeout.
        assert released < 30.0
        assert job.slots[1].failure_reason == "lost contact with job manager"

    def test_disabled_heartbeat_falls_back_to_timeout(self, grid):
        grid.machine("RM2").overload(50.0)
        duroc = grid.duroc(heartbeat_interval=0.0)

        def agent(env):
            job = duroc.submit(
                request_for(
                    grid,
                    spec(grid, "RM2", timeout=5.0),
                )
            )
            yield from job.wait(
                lambda j: j.slots[0].state is SubjobState.SUBMITTED
            )
            crash_at(grid.machine("RM2"), at=env.now)
            with pytest.raises(AllocationAborted, match="no check-in"):
                yield from job.commit()
            return env.now

        elapsed = grid.run(grid.process(agent(grid.env)))
        # Only the watchdog (5 s after submission start) could fire.
        assert 5.0 <= elapsed < 10.0

    def test_heartbeat_quiesces_after_completion(self, grid):
        interval = 0.5
        duroc = grid.duroc(heartbeat_interval=interval)

        def agent(env):
            job = duroc.submit(request_for(grid, spec(grid, "RM1")))
            result = yield from job.commit()
            return result

        grid.run(grid.process(agent(grid.env)))
        grid.run()  # must terminate: the watch stops by itself
        (manager,) = grid.site("RM1").gatekeeper.job_managers.values()
        assert manager.job.state is JobState.DONE
        # ... and at once: within one interval of the last GRAM job
        # going terminal (plus the callback's flight), not after a
        # string of idle polls.
        assert grid.now <= manager.job.finished_at + interval + LATENCY

    def test_negative_interval_is_refused(self, grid):
        with pytest.raises(ValueError, match="heartbeat_interval must be >= 0"):
            grid.duroc(heartbeat_interval=-1.0)
        assert grid.duroc(heartbeat_interval=0).heartbeat_interval == 0


def failures(job):
    """(time, slot index, reason) of every subjob failure of ``job``."""
    return [
        (n.time, n.subjob, n.detail)
        for n in job.callbacks.events(DurocEvent.SUBJOB_FAILED)
    ]


class TestSiteWatch:
    """The co-allocator watches sites: one poll answers for every job there."""

    @pytest.fixture
    def grid(self):
        return (
            GridBuilder(seed=61)
            .add_machine("RM1", nodes=64)
            .add_machine("RM2", nodes=64)
            .program("work", make_program(runtime=6.0))
            .build()
        )

    def test_site_death_fails_every_slot_there_at_one_instant(self, grid):
        interval, misses = 0.5, 2
        grid.machine("RM2").overload(50.0)  # RM2's processes never check in
        duroc = grid.duroc(heartbeat_interval=interval, heartbeat_misses=misses)
        jobs = []

        def agent(env):
            for gap in (0.0, 0.13, 0.18):  # three requests, out of phase
                yield env.timeout(gap)
                jobs.append(duroc.submit(request_for(
                    grid,
                    spec(grid, "RM1"),
                    spec(grid, "RM2", start_type=SubjobType.INTERACTIVE),
                )))
            for job in jobs:
                yield from job.wait(
                    lambda j: j.slots[1].state is SubjobState.SUBMITTED
                )
            crash_at(grid.machine("RM2"), at=env.now)
            crashed = env.now
            yield env.timeout(misses * 2 * interval + RTT)
            return crashed

        crashed = grid.run(grid.process(agent(grid.env)))
        failed = [failure for job in jobs for failure in failures(job)]
        assert [(slot, reason) for _, slot, reason in failed] == [(1, LOST_CONTACT)] * 3
        (instant,) = {time for time, _, _ in failed}
        # One sleep and one timed-out poll per miss, whatever else is watched.
        assert crashed < instant <= crashed + misses * 2 * interval
        for job in jobs:
            assert job.slots[0].state.live
            assert job.slots[0].failure_reason is None
            assert job.state is RequestState.ALLOCATING

    def test_dead_site_does_not_delay_repair_on_a_healthy_one(self, grid):
        """RM2 is dead and stays watched (its misses never add up); the
        DONE of RM1's job, whose callback is lost, must not queue behind
        RM2's timed-out polls."""
        interval = 1.0
        duroc = grid.duroc(heartbeat_interval=interval, heartbeat_misses=10_000)
        lost = first(
            lambda m: m.kind == CALLBACK and m.src.host == "RM1"
            and m.payload["state"] is JobState.DONE
        )
        grid.network.add_drop_rule(lost)

        def agent(env):
            job = duroc.submit(request_for(
                grid,
                spec(grid, "RM1", executable="work"),
                *[spec(grid, "RM2", executable="work",
                       start_type=SubjobType.OPTIONAL) for _ in range(3)],
            ))
            yield from job.wait(
                lambda j: all(s.state is SubjobState.CHECKED_IN for s in j.slots)
            )
            yield from job.commit()
            crash_at(grid.machine("RM2"), at=env.now)
            yield from job.wait(
                lambda j: j.slots[0].gram_state is JobState.DONE
            )
            return job, env.now

        job, learned = grid.run(grid.process(agent(grid.env)))
        assert len(lost.lost) == 1
        (manager,) = grid.site("RM1").gatekeeper.job_managers.values()
        finished = manager.job.finished_at
        # The poll in flight may just miss it; the next one cannot.
        assert finished < learned <= finished + interval + 2 * RTT
        assert [s.state for s in job.slots] == [SubjobState.RELEASED] * 4

    def test_one_lost_status_reply_fails_nobody(self, grid):
        duroc = grid.duroc(heartbeat_interval=0.5, heartbeat_misses=2)
        lost = first(lambda m: m.kind == STATUS + ".reply")
        grid.network.add_drop_rule(lost)

        def agent(env):
            job = duroc.submit(request_for(
                grid,
                spec(grid, "RM1", executable="work"),
                spec(grid, "RM2", executable="work"),
            ))
            yield from job.commit()
            yield from job.wait_done()
            return job

        job = grid.run(grid.process(agent(grid.env)))
        assert len(lost.lost) == 1
        assert job.state is RequestState.DONE
        assert failures(job) == []

    def test_lost_done_callback_is_repaired_within_one_interval(self, grid):
        """Two requests share both sites; one subjob's DONE callback is
        lost.  Batching the polls did not buy its saving with repair
        latency: ``wait_done`` returns one poll after that job ends."""
        interval = 1.0
        duroc = grid.duroc(heartbeat_interval=interval)
        lost = first(
            lambda m: m.kind == CALLBACK and m.src.host == "RM2"
            and m.payload["state"] is JobState.DONE
        )
        grid.network.add_drop_rule(lost)
        done_at = {}

        def agent(env, name):
            job = duroc.submit(request_for(
                grid,
                spec(grid, "RM1", executable="work"),
                spec(grid, "RM2", executable="work"),
            ))
            yield from job.commit()
            yield from job.wait_done()
            done_at[name] = env.now
            return job

        agents = [grid.process(agent(grid.env, name)) for name in ("a", "b")]
        grid.run(grid.env.all_of(agents))
        (message,) = lost.lost
        managers = grid.site("RM2").gatekeeper.job_managers
        finished = managers[message.payload["job_id"]].job.finished_at
        jobs = [process.value for process in agents]
        assert all(job.state is RequestState.DONE for job in jobs)
        assert finished < max(done_at.values()) <= finished + interval + 2 * RTT
        # The callback was addressed to its request's own port, and the
        # poll's repair went through the same dispatch: every terminal
        # GRAM job has left its request's table...
        assert message.dst in {job.port.endpoint for job in jobs}
        assert all(job._gram_slots == {} for job in jobs)
        # ...so the lost callback, delivered late, is no news.
        grid.network.mailbox(message.dst).put(message)
        grid.run()
        assert all(job.state is RequestState.DONE for job in jobs)
        assert all(failures(job) == [] for job in jobs)


class TestNotificationStream:
    def test_full_lifecycle_event_order(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, spec(grid, "RM1")))
            yield from job.commit()
            yield from job.wait_done()
            return job

        job = grid.run(grid.process(agent(grid.env)))
        order = [n.event for n in job.callbacks.log]
        expected_subsequence = [
            DurocEvent.REQUEST_COMMITTED,
            DurocEvent.SUBJOB_SUBMITTED,
            DurocEvent.SUBJOB_CHECKIN,
            DurocEvent.SUBJOB_RELEASED,
            DurocEvent.REQUEST_RELEASED,
            DurocEvent.REQUEST_DONE,
        ]
        positions = [order.index(e) for e in expected_subsequence]
        assert positions == sorted(positions)
        assert job.state is RequestState.DONE

    def test_notification_times_are_monotone(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(
                request_for(grid, spec(grid, "RM1"), spec(grid, "RM2"))
            )
            yield from job.commit()
            return job

        job = grid.run(grid.process(agent(grid.env)))
        times = [n.time for n in job.callbacks.log]
        assert times == sorted(times)

    def test_subjob_attribution(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(
                request_for(grid, spec(grid, "RM1"), spec(grid, "RM2"))
            )
            yield from job.commit()
            return job

        job = grid.run(grid.process(agent(grid.env)))
        checkins = job.callbacks.events(DurocEvent.SUBJOB_CHECKIN)
        assert sorted(n.subjob for n in checkins) == [0, 1]
        released = job.callbacks.events(DurocEvent.REQUEST_RELEASED)
        assert released[0].subjob is None
