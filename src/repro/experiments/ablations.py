"""Ablations of the design choices DESIGN.md calls out.

* **Sequential vs concurrent subjob submission**
  (:func:`run_submission_ablation`) — the paper's DUROC serializes GRAM
  requests (the Fig. 4 linearity); submitting concurrently collapses the
  curve to near-flat, quantifying what the 1999 implementation left on
  the table.
* **Two-phase-commit barrier vs eager initialization**
  (:func:`run_barrier_ablation`) — the barrier lets processes defer
  irreversible initialization until commit; without it, an abort wastes
  the full initialization of every already-started process.
* **Over-allocation factor** (:func:`run_overallocation_ablation`) —
  requesting spare interactive subjobs and committing to the first K
  trades extra submissions for a shorter time-to-commit on grids with
  stragglers.
"""

from __future__ import annotations

from typing import Sequence

from repro.broker import OverAllocatingAgent
from repro.broker.base import AgentOutcome
from repro.core import CoAllocationRequest, SubjobSpec, SubjobType, make_program
from repro.core.applib import barrier as duroc_barrier
from repro.errors import AllocationAborted
from repro.experiments.apps import wasted_node_seconds
from repro.experiments.report import format_table
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.workloads.synthetic import split_processes

#: Seconds of irreversible initialization in the barrier ablation.
EXPENSIVE = 60.0
#: Seconds of reversible checks a process makes before it checks in.
CHEAP = 1.0


def _duroc_time(subjobs: int, sequential: bool) -> float:
    builder = GridBuilder(seed=23)
    for idx in range(1, subjobs + 1):
        builder.add_machine(f"RM{idx}", nodes=64)
    grid = builder.build()
    duroc = grid.duroc(heartbeat_interval=0.0, sequential_submission=sequential)
    counts = split_processes(64, subjobs)
    request = CoAllocationRequest(
        [
            SubjobSpec(
                contact=grid.site(f"RM{i + 1}").contact,
                count=counts[i],
                executable=DEFAULT_EXECUTABLE,
            )
            for i in range(subjobs)
        ]
    )

    def agent(env):
        job = duroc.submit(request)
        result = yield from job.commit()
        return result

    released_at = grid.run(grid.process(agent(grid.env))).released_at
    grid.close()
    return released_at


def run_submission_ablation(
    subjob_counts: Sequence[int] = (1, 4, 8, 16, 25),
) -> dict[int, tuple[float, float]]:
    """subjobs -> (sequential, concurrent) time to release."""
    return {m: (_duroc_time(m, True), _duroc_time(m, False)) for m in subjob_counts}


def render_submission(times: dict[int, tuple[float, float]]) -> str:
    return format_table(
        headers=("subjobs", "sequential (s)", "concurrent (s)"),
        rows=[(m, seq, conc) for m, (seq, conc) in times.items()],
        title="Ablation: sequential (paper) vs concurrent submission",
    )


def _eager_program(ctx):
    # No-barrier discipline: initialize fully, then check in.
    port = ctx.port("duroc")
    yield ctx.env.timeout(ctx.machine.startup_delay(CHEAP + EXPENSIVE))
    config = yield from duroc_barrier(ctx, port)
    return config.global_rank()


def _barrier_body(ctx, port, config):
    # Barrier discipline: the expensive part runs post-release.
    yield ctx.env.timeout(EXPENSIVE)
    return config.global_rank()


def _wasted_on_abort(program_name: str, program) -> float:
    grid = (
        GridBuilder(seed=31)
        .add_machine("RM1", nodes=32)
        .add_machine("RM2", nodes=32)
        .add_machine("RM3", nodes=32)
        .program(program_name, program)
        .build()
    )
    grid.site("RM3").crash()
    duroc = grid.duroc(submit_timeout=5.0, default_subjob_timeout=3 * EXPENSIVE)
    request = CoAllocationRequest(
        [
            SubjobSpec(
                contact=grid.site(f"RM{i}").contact, count=16, executable=program_name
            )
            for i in (1, 2, 3)
        ]
    )

    def agent(env):
        job = duroc.submit(request)
        try:
            yield from job.commit()
        except AllocationAborted:
            pass

    grid.run(grid.process(agent(grid.env)))
    grid.run()
    wasted = wasted_node_seconds(grid)
    grid.close()
    return wasted


def run_barrier_ablation() -> tuple[float, float]:
    """(barriered, eager) node-seconds wasted when one machine is down.

    With the barrier, processes check in after ``CHEAP`` seconds of
    reversible checks and are killed cheaply; without it ("eager"),
    every process performs the full ``CHEAP + EXPENSIVE`` before
    checking in, all of it wasted.
    """
    return (
        _wasted_on_abort("barriered", make_program(startup=CHEAP, body=_barrier_body)),
        _wasted_on_abort("eager", _eager_program),
    )


def render_barrier(wastes: tuple[float, float]) -> str:
    barriered, eager = wastes
    return format_table(
        headers=("discipline", "wasted node-seconds on abort"),
        rows=[
            ("two-phase barrier (paper)", barriered),
            ("eager initialization", eager),
        ],
        title="Ablation: what the two-phase commit saves on abort",
    )


def _overallocate(extra: int) -> AgentOutcome:
    grid = GridBuilder(seed=37).add_machines("RM", count=1 + 4 + extra, nodes=64).build()
    # Machines beyond the first five are progressively slower.
    for idx, factor in ((3, 12.0), (5, 20.0)):
        grid.machine(f"RM{idx}").overload(factor)
    anchors = [
        SubjobSpec(contact=grid.site("RM1").contact, count=1, executable=DEFAULT_EXECUTABLE)
    ]
    workers = [
        SubjobSpec(
            contact=grid.site(f"RM{i}").contact,
            count=8,
            executable=DEFAULT_EXECUTABLE,
            start_type=SubjobType.INTERACTIVE,
        )
        for i in range(2, 2 + 4 + extra)
    ]
    agent = OverAllocatingAgent(grid.duroc(), needed=4)

    def scenario(env):
        outcome = yield from agent.allocate(anchors=anchors, workers=workers)
        return outcome

    outcome = grid.run(grid.process(scenario(grid.env)))
    grid.close()
    return outcome


def run_overallocation_ablation(
    extras: Sequence[int] = (0, 1, 2),
) -> dict[int, AgentOutcome]:
    """spare worker subjobs -> the agent's outcome (4 workers needed)."""
    return {extra: _overallocate(extra) for extra in extras}


def render_overallocation(outcomes: dict[int, AgentOutcome]) -> str:
    return format_table(
        headers=("spare worker subjobs", "time to release (s)"),
        rows=[(extra, outcome.elapsed) for extra, outcome in outcomes.items()],
        title="Ablation: over-allocation factor vs time-to-commit",
    )
