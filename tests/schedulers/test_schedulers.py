"""Unit tests for local schedulers."""

import pytest

from repro.errors import ReservationError, SchedulerError
from repro.schedulers import (
    EasyBackfillScheduler,
    FcfsScheduler,
    ForkScheduler,
    NodeRequest,
    ReservationScheduler,
)
from repro.simcore import Environment


@pytest.fixture
def env():
    return Environment()


def run_job(env, scheduler, count, runtime, starts, label, max_time=None):
    """Submit a job that holds its lease for ``runtime`` seconds."""
    pending = scheduler.submit(
        NodeRequest(count=count, max_time=max_time or runtime, job_id=label)
    )

    def job(env):
        lease = yield pending.event
        starts[label] = env.now
        yield env.timeout(runtime)
        lease.release()

    return env.process(job(env))


class TestNodeRequest:
    def test_validation(self):
        with pytest.raises(SchedulerError):
            NodeRequest(count=0)
        with pytest.raises(SchedulerError):
            NodeRequest(count=1, max_time=-1)


class TestForkScheduler:
    def test_immediate_grant(self, env):
        sched = ForkScheduler(env, nodes=2)
        starts = {}
        run_job(env, sched, count=10, runtime=5, starts=starts, label="big")
        env.run()
        assert starts["big"] == 0.0

    def test_oversubscription_tracked(self, env):
        sched = ForkScheduler(env, nodes=2)
        pending = sched.submit(NodeRequest(count=10))
        assert pending.granted
        assert sched.free == -8

    def test_no_queue(self, env):
        sched = ForkScheduler(env, nodes=2)
        sched.submit(NodeRequest(count=1))
        assert sched.queue_length() == 0
        assert sched.estimate_wait(100) == 0.0


class TestFcfsScheduler:
    def test_fifo_order(self, env):
        sched = FcfsScheduler(env, nodes=4)
        starts = {}
        run_job(env, sched, 4, 10, starts, "first")
        run_job(env, sched, 2, 5, starts, "second")
        run_job(env, sched, 2, 5, starts, "third")
        env.run()
        assert starts["first"] == 0.0
        assert starts["second"] == 10.0
        assert starts["third"] == 10.0

    def test_no_overtaking_even_when_fits(self, env):
        """Strict FCFS: a small job never overtakes a blocked big one."""
        sched = FcfsScheduler(env, nodes=4)
        starts = {}
        run_job(env, sched, 2, 10, starts, "running")
        run_job(env, sched, 4, 1, starts, "blocked-big")
        run_job(env, sched, 1, 1, starts, "small")
        env.run()
        assert starts["blocked-big"] == 10.0
        assert starts["small"] == 11.0

    def test_oversized_request_rejected(self, env):
        sched = FcfsScheduler(env, nodes=4)
        with pytest.raises(SchedulerError):
            sched.submit(NodeRequest(count=5))

    def test_cancel_dequeues(self, env):
        sched = FcfsScheduler(env, nodes=2)
        sched.submit(NodeRequest(count=2))
        pending = sched.submit(NodeRequest(count=1))
        assert sched.queue_length() == 1
        assert pending.cancel() is True
        assert sched.queue_length() == 0

    def test_cancel_after_grant_fails(self, env):
        sched = FcfsScheduler(env, nodes=2)
        pending = sched.submit(NodeRequest(count=1))
        assert pending.cancel() is False

    def test_close_forgets_leases_and_queue(self, env):
        """Each lease and queued request points back at its scheduler."""
        sched = FcfsScheduler(env, nodes=2)
        sched.submit(NodeRequest(count=2))
        sched.submit(NodeRequest(count=1))
        env.run()
        assert len(sched.leases) == 1 and sched.queue_length() == 1
        sched.close()
        assert not sched.leases and sched.queue_length() == 0

    def test_conservation_invariant(self, env):
        sched = FcfsScheduler(env, nodes=8)
        starts = {}
        for i in range(20):
            run_job(env, sched, 3, 7, starts, f"job{i}")

        def monitor(env):
            while True:
                held = sum(lease.count for lease in sched.leases)
                assert held == sched.busy
                assert 0 <= sched.free <= sched.nodes
                yield env.timeout(1.0)

        env.process(monitor(env))
        env.run(until=100)
        assert len(starts) == 20

    def test_double_release_raises(self, env):
        sched = FcfsScheduler(env, nodes=2)
        pending = sched.submit(NodeRequest(count=1))
        lease = pending.event.value
        lease.release()
        with pytest.raises(SchedulerError):
            lease.release()

    def test_estimate_wait_empty_machine(self, env):
        sched = FcfsScheduler(env, nodes=4)
        assert sched.estimate_wait(4) == 0.0

    def test_estimate_wait_behind_running_job(self, env):
        sched = FcfsScheduler(env, nodes=4)
        starts = {}
        run_job(env, sched, 4, 10, starts, "running", max_time=10)
        env.run(until=1)
        # 9 seconds of the running job remain.
        assert sched.estimate_wait(4) == pytest.approx(9.0)

    def test_estimate_wait_accounts_for_queue(self, env):
        sched = FcfsScheduler(env, nodes=4)
        starts = {}
        run_job(env, sched, 4, 10, starts, "running", max_time=10)
        run_job(env, sched, 4, 10, starts, "queued", max_time=10)
        env.run(until=0.5)
        assert sched.estimate_wait(4) == pytest.approx(19.5)


class TestBackfill:
    def test_small_job_backfills_into_hole(self, env):
        sched = EasyBackfillScheduler(env, nodes=4)
        starts = {}
        run_job(env, sched, 2, 10, starts, "running", max_time=10)
        run_job(env, sched, 4, 5, starts, "head", max_time=5)
        # Fits in the 2 spare nodes and ends (t=2) before head's shadow
        # start (t=10): must backfill.
        run_job(env, sched, 2, 2, starts, "filler", max_time=2)
        env.run()
        assert starts["filler"] == 0.0
        assert starts["head"] == 10.0

    def test_backfill_never_delays_head(self, env):
        sched = EasyBackfillScheduler(env, nodes=4)
        starts = {}
        run_job(env, sched, 2, 10, starts, "running", max_time=10)
        run_job(env, sched, 4, 5, starts, "head", max_time=5)
        # Would run past the shadow time and need head's nodes: no backfill.
        run_job(env, sched, 2, 20, starts, "greedy", max_time=20)
        env.run()
        assert starts["head"] == 10.0
        assert starts["greedy"] == 15.0

    def test_backfill_beside_head_allowed(self, env):
        """A long job may backfill if it fits in the shadow's spare nodes."""
        sched = EasyBackfillScheduler(env, nodes=4)
        starts = {}
        run_job(env, sched, 2, 10, starts, "running", max_time=10)
        run_job(env, sched, 3, 5, starts, "head", max_time=5)
        # Head starts at t=10 using 3 of 4 nodes: 1 spare node remains at
        # the shadow time, so a 1-node long job fits beside it.
        run_job(env, sched, 1, 50, starts, "sidecar", max_time=50)
        env.run()
        assert starts["sidecar"] == 0.0
        assert starts["head"] == 10.0

    def test_job_without_estimate_not_backfilled_past_shadow(self, env):
        sched = EasyBackfillScheduler(env, nodes=4)
        starts = {}
        run_job(env, sched, 3, 10, starts, "running", max_time=10)
        run_job(env, sched, 4, 5, starts, "head", max_time=5)
        pending = sched.submit(NodeRequest(count=1, max_time=None, job_id="noest"))

        def job(env):
            lease = yield pending.event
            starts["noest"] = env.now
            yield env.timeout(1)
            lease.release()

        env.process(job(env))
        env.run()
        # Cannot prove it ends before the shadow and it does not fit in
        # the 0 spare nodes, so it waits until after head.
        assert starts["head"] == 10.0
        assert starts["noest"] >= 10.0


class TestReservations:
    def test_reserve_and_start_at_window(self, env):
        sched = ReservationScheduler(env, nodes=4)
        resv = sched.reserve(count=4, start=10.0, duration=5.0)
        starts = {}
        pending = sched.submit(
            NodeRequest(count=4, max_time=4, reservation_id=resv.resv_id)
        )

        def job(env):
            lease = yield pending.event
            starts["resv"] = env.now
            yield env.timeout(4)
            lease.release()

        env.process(job(env))
        env.run()
        assert starts["resv"] == 10.0

    def test_overcommitted_window_rejected(self, env):
        sched = ReservationScheduler(env, nodes=4)
        sched.reserve(count=3, start=10.0, duration=5.0)
        with pytest.raises(ReservationError):
            sched.reserve(count=2, start=12.0, duration=5.0)

    def test_disjoint_windows_accepted(self, env):
        sched = ReservationScheduler(env, nodes=4)
        sched.reserve(count=4, start=10.0, duration=5.0)
        sched.reserve(count=4, start=15.0, duration=5.0)  # no overlap

    def test_past_start_rejected(self, env):
        sched = ReservationScheduler(env, nodes=4)
        env.timeout(1)
        env.run()
        with pytest.raises(ReservationError):
            sched.reserve(count=1, start=-1.0, duration=1.0)

    def test_best_effort_drains_before_window(self, env):
        """A best-effort job that would overlap a reservation waits."""
        sched = ReservationScheduler(env, nodes=4)
        sched.reserve(count=4, start=5.0, duration=5.0)
        starts = {}
        run_job(env, sched, 4, 10, starts, "be", max_time=10)
        env.run()
        # Running it at t=0 would hold all nodes until t=10, intruding on
        # the window at t=5: it must wait until the window closes.
        assert starts["be"] >= 10.0

    def test_best_effort_fits_before_window(self, env):
        sched = ReservationScheduler(env, nodes=4)
        sched.reserve(count=4, start=5.0, duration=5.0)
        starts = {}
        run_job(env, sched, 4, 3, starts, "quick", max_time=3)
        env.run()
        assert starts["quick"] == 0.0

    def test_request_exceeding_reservation_fails(self, env):
        sched = ReservationScheduler(env, nodes=8)
        resv = sched.reserve(count=2, start=1.0, duration=5.0)
        pending = sched.submit(
            NodeRequest(count=4, max_time=1, reservation_id=resv.resv_id)
        )

        def job(env):
            try:
                yield pending.event
            except ReservationError:
                return "failed"

        assert env.run(env.process(job(env))) == "failed"

    def test_unknown_reservation_fails_request(self, env):
        sched = ReservationScheduler(env, nodes=4)
        pending = sched.submit(
            NodeRequest(count=1, max_time=1, reservation_id="resv-bogus")
        )

        def job(env):
            try:
                yield pending.event
            except ReservationError:
                return "failed"

        assert env.run(env.process(job(env))) == "failed"

    def test_cancel_reservation_frees_window(self, env):
        sched = ReservationScheduler(env, nodes=4)
        resv = sched.reserve(count=4, start=5.0, duration=100.0)
        sched.cancel_reservation(resv.resv_id)
        starts = {}
        run_job(env, sched, 4, 50, starts, "be", max_time=50)
        env.run()
        assert starts["be"] == 0.0
