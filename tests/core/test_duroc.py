"""Integration tests: DUROC two-phase commit, editing, failure semantics."""

import pytest

from repro.core import (
    DurocEvent,
    RequestState,
    SubjobState,
    SubjobType,
)
from repro.errors import AllocationAborted, RequestStateError
from repro.faults import HostCrash, schedule
from repro.gram.states import JobState

from .conftest import request_for, spec


def drive(grid, gen):
    return grid.run(grid.process(gen))


def crash_at(machine, at):
    """Schedule a crash of ``machine`` via the declarative fault facade."""
    schedule(machine.env, machine, [HostCrash(machine.name, at=at)])


class TestHappyPath:
    def test_commit_releases_all_subjobs(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(1, 4, 4)))
            result = yield from job.commit()
            return (job, result)

        job, result = drive(grid, agent(grid.env))
        assert job.state is RequestState.RELEASED
        assert result.sizes == (1, 4, 4)
        assert result.total_processes == 9
        assert all(s.state is SubjobState.RELEASED for s in job.slots)

    def test_single_subjob_latency_is_about_two_seconds(self, grid):
        """Fig. 4: one 64-process subjob completes in ~2 s."""
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(64,)))
            result = yield from job.commit()
            return result

        result = drive(grid, agent(grid.env))
        assert 1.8 < result.released_at < 2.3

    def test_processes_receive_consistent_config(self, grid):
        from repro.core import make_program

        configs = []

        def body(ctx, port, config):
            configs.append(config)
            return config.global_rank()
            yield  # pragma: no cover

        grid.programs["collector"] = make_program(startup=0.1, body=body)
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(
                request_for(grid, counts=(2, 3)).__class__(
                    [
                        spec(grid.contacts()[0], count=2, executable="collector"),
                        spec(grid.contacts()[1], count=3, executable="collector"),
                    ]
                )
            )
            yield from job.commit()

        drive(grid, agent(grid.env))
        grid.run()
        assert len(configs) == 5
        sizes = {c.sizes for c in configs}
        assert sizes == {(2, 3)}
        ranks = sorted(c.global_rank() for c in configs)
        assert ranks == [0, 1, 2, 3, 4]
        # Every process can address every other (§3.3 mechanisms).
        for c in configs:
            assert c.n_subjobs == 2
            assert c.subjob_size(0) == 2
            assert len(c.intra_subjob_peers()) == c.subjob_size(c.my_subjob)
            assert len(c.inter_subjob_leads()) == 1

    def test_monitoring_callbacks_fire_in_order(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(1, 1)))
            yield from job.commit()
            return job

        job = drive(grid, agent(grid.env))
        kinds = [n.event for n in job.callbacks.log]
        assert kinds.count(DurocEvent.SUBJOB_SUBMITTED) == 2
        assert kinds.count(DurocEvent.SUBJOB_CHECKIN) == 2
        assert kinds.index(DurocEvent.REQUEST_COMMITTED) < kinds.index(
            DurocEvent.REQUEST_RELEASED
        )
        assert kinds[-1] is DurocEvent.REQUEST_RELEASED

    def test_wait_done_after_release(self, grid):
        from repro.core import make_program

        grid.programs["finite"] = make_program(startup=0.1, runtime=2.0)
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(
                request_for(grid, counts=(2,)).__class__(
                    [spec(grid.contacts()[0], count=2, executable="finite")]
                )
            )
            yield from job.commit()
            yield from job.wait_done()
            return job

        job = drive(grid, agent(grid.env))
        assert job.state is RequestState.DONE

    def test_subjobs_submitted_sequentially(self, grid):
        """Fig. 5: GRAM requests of one DUROC job never overlap."""
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(4, 4, 4)))
            yield from job.commit()

        drive(grid, agent(grid.env))
        spans = sorted(
            grid.tracer.spans_named("duroc.submit"), key=lambda s: s.start
        )
        assert len(spans) == 3
        for earlier, later in zip(spans, spans[1:]):
            assert later.start >= earlier.end


class TestFailureSemantics:
    def test_required_failure_aborts_everything(self, grid):
        """A dead site fails its subjob; required => whole request aborts."""
        grid.site("RM2").crash()
        duroc = grid.duroc(submit_timeout=5.0)

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(1, 4, 4)))
            with pytest.raises(AllocationAborted, match="required"):
                yield from job.commit()
            return job

        job = drive(grid, agent(grid.env))
        assert job.state is RequestState.ABORTED
        # Nothing stays allocated: acquired subjobs were terminated.
        assert all(not s.state.live for s in job.slots)

    def test_aborted_processes_are_killed(self, grid):
        grid.site("RM3").crash()
        duroc = grid.duroc(submit_timeout=5.0)

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(4, 4, 4)))
            with pytest.raises(AllocationAborted):
                yield from job.commit()

        drive(grid, agent(grid.env))
        grid.run()
        assert grid.machine("RM1").process_count == 0
        assert grid.machine("RM2").process_count == 0
        # And their nodes are back (fork scheduler free count restored).
        assert grid.site("RM1").scheduler.free == 64

    def test_interactive_failure_is_dropped_without_handler(self, grid):
        grid.site("RM2").crash()
        duroc = grid.duroc(submit_timeout=5.0)

        def agent(env):
            job = duroc.submit(
                request_for(
                    grid,
                    counts=(1, 4, 4),
                    start_types=[
                        SubjobType.REQUIRED,
                        SubjobType.INTERACTIVE,
                        SubjobType.INTERACTIVE,
                    ],
                )
            )
            result = yield from job.commit()
            return (job, result)

        job, result = drive(grid, agent(grid.env))
        assert job.state is RequestState.RELEASED
        assert result.sizes == (1, 4)  # RM2's workers dropped
        assert job.slots[1].state is SubjobState.FAILED

    def test_interactive_failure_callback_substitutes(self, grid):
        """The paper's scenario: replace a failed machine dynamically."""
        grid.site("RM2").crash()
        duroc = grid.duroc(submit_timeout=5.0)
        substitutions = []

        def agent(env):
            job = duroc.submit(
                request_for(
                    grid,
                    counts=(1, 4),
                    start_types=[SubjobType.REQUIRED, SubjobType.INTERACTIVE],
                )
            )

            def handler(job, slot, notification):
                replacement = slot.spec.retarget(grid.site("RM3").contact)
                new_slot = job.substitute(slot, replacement)
                substitutions.append((slot.index, new_slot.index))

            job.set_interactive_handler(handler)
            result = yield from job.commit()
            return (job, result)

        job, result = drive(grid, agent(grid.env))
        assert job.state is RequestState.RELEASED
        assert substitutions == [(1, 2)]
        assert result.sizes == (1, 4)
        assert job.slots[2].spec.contact == grid.site("RM3").contact

    def test_optional_failure_is_ignored(self, grid):
        grid.site("RM3").crash()
        duroc = grid.duroc(submit_timeout=5.0)

        def agent(env):
            job = duroc.submit(
                request_for(
                    grid,
                    counts=(1, 4, 4),
                    start_types=[
                        SubjobType.REQUIRED,
                        SubjobType.REQUIRED,
                        SubjobType.OPTIONAL,
                    ],
                )
            )
            result = yield from job.commit()
            return result

        result = drive(grid, agent(grid.env))
        assert result.sizes == (1, 4)

    def test_commit_does_not_wait_for_optional(self, grid):
        """Optional subjobs do not participate in the commitment procedure."""
        grid.machine("RM3").overload(100.0)  # very slow startup
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(
                request_for(
                    grid,
                    counts=(1, 4, 4),
                    start_types=[
                        SubjobType.REQUIRED,
                        SubjobType.REQUIRED,
                        SubjobType.OPTIONAL,
                    ],
                )
            )
            result = yield from job.commit()
            return result

        result = drive(grid, agent(grid.env))
        # Released before RM3's ~70s startup completes.
        assert result.released_at < 10.0
        assert result.sizes == (1, 4)

    def test_optional_latecomer_joins_after_release(self, grid):
        grid.machine("RM3").overload(20.0)
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(
                request_for(
                    grid,
                    counts=(1, 4),
                    start_types=[SubjobType.REQUIRED, SubjobType.OPTIONAL],
                )
            )
            yield from job.commit()
            return job

        job = drive(grid, agent(grid.env))
        grid.run()  # let the slow subjob check in
        assert job.slots[1].state is SubjobState.RELEASED
        assert job.slots[1].released_at > job.released_at

    def test_slow_startup_triggers_timeout(self, grid):
        """The motivating scenario: the fifth system is overloaded and
        misses the startup deadline; it is dropped, computation proceeds."""
        grid.machine("RM2").overload(1000.0)
        duroc = grid.duroc()

        def agent(env):
            contacts = grid.contacts()
            request = request_for(grid, counts=(1,))
            job = duroc.submit(request)
            job.add(spec(contacts[1], count=4,
                         start_type=SubjobType.INTERACTIVE, timeout=10.0))
            result = yield from job.commit()
            return (job, result)

        job, result = drive(grid, agent(grid.env))
        assert job.state is RequestState.RELEASED
        timeouts = job.callbacks.events(DurocEvent.SUBJOB_TIMEOUT)
        assert len(timeouts) == 1
        assert result.sizes == (1,)

    def test_required_timeout_aborts(self, grid):
        grid.machine("RM1").overload(1000.0)
        duroc = grid.duroc()

        def agent(env):
            request = request_for(grid, counts=())
            job = duroc.submit(request)
            job.add(spec(grid.contacts()[0], count=2, timeout=5.0))
            with pytest.raises(AllocationAborted, match="no check-in"):
                yield from job.commit()
            return job

        job = drive(grid, agent(grid.env))
        assert job.state is RequestState.ABORTED

    def test_startup_check_failure_fails_subjob(self, grid):
        """A process reporting unsuccessful startup fails its subjob."""
        from repro.core import make_program

        grid.programs["picky"] = make_program(
            startup=0.1,
            startup_ok=lambda ctx: (ctx.rank != 1, "bad numerics"),
        )
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(
                request_for(grid, counts=()).__class__(
                    [spec(grid.contacts()[0], count=4, executable="picky")]
                )
            )
            with pytest.raises(AllocationAborted, match="failed startup"):
                yield from job.commit()
            return job

        job = drive(grid, agent(grid.env))
        assert job.slots[0].state is SubjobState.FAILED
        assert job.state is RequestState.ABORTED

    def test_crash_after_checkin_before_commit(self, grid):
        """A machine dying while its processes wait in the barrier."""
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(
                request_for(
                    grid,
                    counts=(1, 4),
                    start_types=[SubjobType.REQUIRED, SubjobType.INTERACTIVE],
                )
            )
            # Wait until RM2's subjob checked in, then crash RM2.
            yield from job.wait(
                lambda j: j.slots[1].state is SubjobState.CHECKED_IN
            )
            crash_at(grid.machine("RM2"), at=env.now)
            # Give the heartbeat monitor time to notice the dead site.
            yield env.timeout(3.0)
            result = yield from job.commit()
            return (job, result)

        job, result = drive(grid, agent(grid.env))
        assert job.state is RequestState.RELEASED
        assert result.sizes == (1,)
        assert job.slots[1].state is SubjobState.FAILED

    def test_post_release_required_failure_kills_computation(self, grid):
        from repro.core import make_program

        grid.programs["longrun"] = make_program(startup=0.5, runtime=100.0)
        duroc = grid.duroc()
        contacts = grid.contacts()

        def agent(env):
            job = duroc.submit(
                request_for(grid, counts=()).__class__(
                    [
                        spec(contacts[0], count=1, executable="longrun"),
                        spec(contacts[1], count=4, executable="longrun"),
                    ]
                )
            )
            yield from job.commit()
            crash_at(grid.machine("RM2"), at=env.now + 1.0)
            yield env.timeout(5.0)
            return job

        job = drive(grid, agent(grid.env))
        grid.run()
        assert job.state is RequestState.TERMINATED
        # RM1's (healthy) processes were killed too: collective failure.
        assert grid.machine("RM1").process_count == 0


class TestEditing:
    def test_add_while_allocating(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(1,)))
            job.add(spec(grid.contacts()[1], count=4))
            result = yield from job.commit()
            return result

        result = drive(grid, agent(grid.env))
        assert result.sizes == (1, 4)

    def test_delete_before_commit(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(1, 4, 4)))
            job.delete(2)
            result = yield from job.commit()
            return (job, result)

        job, result = drive(grid, agent(grid.env))
        assert result.sizes == (1, 4)
        assert job.slots[2].state is SubjobState.DELETED
        # The retired slot keeps its stable label in job.slots but
        # leaves the live-slot index.
        live = set(job._slot_by_id.values())
        assert job.slots[2] not in live
        assert {job.slots[0], job.slots[1]} <= live

    def test_deleted_subjobs_processes_are_terminated(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(1, 4)))
            yield from job.wait(
                lambda j: j.slots[1].state is SubjobState.CHECKED_IN
            )
            job.delete(1)
            result = yield from job.commit()
            return result

        result = drive(grid, agent(grid.env))
        grid.run()
        assert result.sizes == (1,)
        assert grid.machine("RM2").process_count == 0

    def test_edit_after_release_rejected(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(1,)))
            yield from job.commit()
            with pytest.raises(RequestStateError):
                job.add(spec(grid.contacts()[1], count=1))
            return True

        assert drive(grid, agent(grid.env))

    def test_double_commit_rejected(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(1,)))
            yield from job.commit()
            with pytest.raises(RequestStateError):
                yield from job.commit()
            return True

        assert drive(grid, agent(grid.env))

    def test_overallocation_commit_first_k(self, grid):
        """Request 3 worker subjobs, keep the first 2 that check in."""
        duroc = grid.duroc()
        grid.machine("RM3").overload(5.0)  # RM3 will be slowest

        def agent(env):
            job = duroc.submit(
                request_for(
                    grid,
                    counts=(4, 4, 4),
                    start_types=[SubjobType.INTERACTIVE] * 3,
                )
            )
            yield from job.wait(lambda j: len(j.checked_in_slots()) >= 2)
            for slot in job.live_slots():
                if slot.state is not SubjobState.CHECKED_IN:
                    job.delete(slot)
            result = yield from job.commit()
            return result

        result = drive(grid, agent(grid.env))
        assert result.sizes == (4, 4)


class TestControl:
    def test_kill_terminates_everything(self, grid):
        from repro.core import make_program

        grid.programs["longrun"] = make_program(startup=0.5, runtime=100.0)
        duroc = grid.duroc()
        contacts = grid.contacts()

        def agent(env):
            job = duroc.submit(
                request_for(grid, counts=()).__class__(
                    [
                        spec(contacts[0], count=4, executable="longrun"),
                        spec(contacts[1], count=4, executable="longrun"),
                    ]
                )
            )
            yield from job.commit()
            job.kill("user abort")
            return job

        job = drive(grid, agent(grid.env))
        grid.run()
        assert job.state is RequestState.TERMINATED
        assert grid.machine("RM1").process_count == 0
        assert grid.machine("RM2").process_count == 0
        gram_jobs = grid.site("RM1").gatekeeper.job_managers
        assert all(jm.job.state is JobState.FAILED for jm in gram_jobs.values())

    def test_kill_after_commit_reaches_jobs_behind_1030_newer_ones(self):
        """A busy site forgets no live job: after the request commits,
        another client puts 1 030 long jobs on the same site, and the
        kill still ends every GRAM job and process of the request."""
        from repro.core import CoAllocationRequest, make_program
        from repro.gridenv import GridBuilder

        def forever(ctx):
            yield ctx.env.timeout(1e7)

        grid = (
            GridBuilder(seed=1)
            .add_machine("RM1", nodes=1040)
            .program("longrun", make_program(startup=0.5, runtime=1e7))
            .program("forever", forever)
            .build()
        )
        site = grid.site("RM1")
        duroc = grid.duroc()
        other = grid.gram_client()
        text = f"&(resourceManagerContact={site.contact})(count=1)(executable=forever)"

        def flood():
            yield from other.submit(site.contact, text)

        def agent(env):
            job = duroc.submit(
                CoAllocationRequest([spec(site.contact, count=4, executable="longrun")])
            )
            yield from job.commit()
            managers = [
                site.gatekeeper.job_managers[slot.gram_handle.job_id] for slot in job.slots
            ]
            processes = [
                site.machine.processes[pid].process
                for manager in managers
                for pid in manager.job.pids
            ]
            yield env.all_of([env.process(flood()) for _ in range(1030)])
            job.kill("user abort")
            yield env.timeout(60.0)
            return job, managers, processes

        job, managers, processes = drive(grid, agent(grid.env))
        assert job.state is RequestState.TERMINATED
        assert [manager.job.state for manager in managers] == [JobState.FAILED]
        assert len(processes) == 4
        assert not any(process.is_alive for process in processes)
        # The other client's jobs run on.
        assert site.machine.process_count == 1030

    def test_kill_before_commit(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(4, 4)))
            yield env.timeout(0.5)
            job.kill("changed my mind")
            with pytest.raises(AllocationAborted):
                yield from job.commit()
            return job

        job = drive(grid, agent(grid.env))
        assert job.state is RequestState.TERMINATED

    def test_kill_is_idempotent(self, grid):
        duroc = grid.duroc()

        def agent(env):
            job = duroc.submit(request_for(grid, counts=(1,)))
            yield from job.commit()
            job.kill()
            job.kill()
            return job

        job = drive(grid, agent(grid.env))
        assert job.state is RequestState.TERMINATED
