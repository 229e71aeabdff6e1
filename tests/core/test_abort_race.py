"""An abort must not bill the processes it releases from the barrier.

ROADMAP item 1(a).  On abort the co-allocator sends ABORT to every
checked-in process and ``gram.cancel`` to their job manager, and both
land in one instant.  The processes leave the barrier through
``StopProcess`` — a clean exit — so their GRAM job is DONE, not FAILED,
and ``wasted_node_seconds`` (ACTIVE then FAILED) bills nothing: the
paper's argument for the two-phase barrier (§1 item 2, the
``ablation_barrier`` table).  From PR 3 to PR 19 a kernel hop in the
barrier wait let the cancel overtake the exits and the table read
179 node-seconds for the barrier, the same as without one.
"""

from repro.core import CoAllocationRequest, SubjobSpec
from repro.core.applib import make_program
from repro.core.states import RequestState
from repro.errors import AllocationAborted
from repro.experiments.apps import wasted_node_seconds
from repro.gram.states import JobState
from repro.gridenv import GridBuilder


def payload(ctx, port, config):
    yield ctx.env.timeout(60.0)
    return config.global_rank()


def test_abort_releases_checked_in_processes_without_failing_their_jobs():
    grid = (
        GridBuilder(seed=31)
        .add_machine("RM1", nodes=32)
        .add_machine("RM2", nodes=32)
        .add_machine("RM3", nodes=32)
        .program("barriered", make_program(startup=1.0, body=payload))
        .build()
    )
    grid.site("RM3").crash()
    duroc = grid.duroc(submit_timeout=5.0, default_subjob_timeout=180.0)
    request = CoAllocationRequest(
        [
            SubjobSpec(contact=grid.site(name).contact, count=16, executable="barriered")
            for name in ("RM1", "RM2", "RM3")
        ]
    )
    jobs = []

    def agent(env):
        job = duroc.submit(request)
        jobs.append(job)
        try:
            yield from job.commit()
        except AllocationAborted:
            return env.now
        return None

    aborted_at = grid.run(grid.process(agent(grid.env)))
    grid.run()
    assert aborted_at is not None and jobs[0].state is RequestState.ABORTED

    managers = [
        manager
        for name in ("RM1", "RM2")
        for manager in grid.site(name).gatekeeper.job_managers.values()
    ]
    assert len(managers) == 2
    for manager in managers:
        job = manager.job
        # Started, held at the barrier, released by ABORT in the instant
        # the cancel arrived: every process exited cleanly.
        assert job.active_at is not None and job.active_at < aborted_at
        assert (job.state, job.failure_reason) == (JobState.DONE, None)
        assert job.finished_at > aborted_at
    assert not grid.site("RM3").gatekeeper.job_managers
    assert wasted_node_seconds(grid) == 0.0
    for name in ("RM1", "RM2"):
        assert grid.site(name).scheduler.free == 32
        assert grid.site(name).machine.process_count == 0
