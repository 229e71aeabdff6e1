"""§4.3: MPICH-G startup through DUROC.

"The Grid-enabled MPICH-G implementation of MPI uses DUROC to start the
elements of an MPI job ... all DUROC calls are hidden in the MPI
library"; with interactive subjobs "we can reconfigure the MPI job at
startup to overcome resource failure."

Two launches of the same four-machine job: a healthy one, and one
whose last machine is down, which starts on the three that answer.
Every rank allreduces 1, so each rank's total is the world size.
"""

from __future__ import annotations

from repro.core import SubjobType
from repro.experiments.report import format_table
from repro.gridenv import GridBuilder
from repro.mpi import MpiRun, mpiexec

MACHINES = 4
RANKS_PER_MACHINE = 8

#: One launch: the run, and each rank's ``(rank, allreduce total)``.
Launch = tuple[MpiRun, list[tuple[int, int]]]


def launch(crash_one: bool) -> Launch:
    grid = GridBuilder(seed=17).add_machines("RM", count=MACHINES, nodes=128).build()
    if crash_one:
        grid.site(f"RM{MACHINES}").crash()
    ranks = []

    def main(ctx, comm):
        total = yield from comm.allreduce(1)
        ranks.append((comm.rank, total))

    def agent(env):
        run = yield from mpiexec(
            grid,
            [
                (grid.site(f"RM{i}").contact, RANKS_PER_MACHINE)
                for i in range(1, MACHINES + 1)
            ],
            main,
            duroc=grid.duroc(submit_timeout=5.0),
            subjob_type=SubjobType.INTERACTIVE,
        )
        return run

    run = grid.run(grid.process(agent(grid.env)))
    grid.run()
    grid.close()
    return run, ranks


def run_mpi_startup() -> tuple[Launch, Launch]:
    """The (healthy, one machine dead) launches."""
    return launch(crash_one=False), launch(crash_one=True)


def allreduce_agrees(run: MpiRun, ranks: list[tuple[int, int]]) -> bool:
    return all(total == run.world_size for _, total in ranks)


def render(launches: tuple[Launch, Launch]) -> str:
    (run_h, ranks_h), (run_d, ranks_d) = launches
    return format_table(
        headers=("scenario", "machines", "world size", "allreduce agrees"),
        rows=[
            ("healthy", MACHINES, run_h.world_size,
             "yes" if allreduce_agrees(run_h, ranks_h) else "NO"),
            ("one machine dead", MACHINES - 1, run_d.world_size,
             "yes" if allreduce_agrees(run_d, ranks_d) else "NO"),
        ],
        title="MPICH-G-style startup through DUROC",
    )
