"""MPI job launch through DUROC — the MPICH-G pattern.

"The Grid-enabled MPICH-G implementation of MPI uses DUROC to start the
elements of an MPI job.  In this case, all DUROC calls are hidden in
the MPI library, and an application does not have to make any
modifications to benefit from DUROC co-allocation."

:func:`mpiexec` does exactly that: the user supplies a ``main(ctx,
comm)`` generator that knows nothing about DUROC; the launcher wraps it
with the barrier/bootstrap glue, builds the multirequest, commits, and
returns once the job is released.  Resource failures at startup can be
configured around by marking subjobs interactive, reproducing the
paper's "reconfigure the MPI job at startup to overcome resource
failure".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Generator, Optional, Sequence

from repro.core.applib import make_program
from repro.core.coallocator import Duroc, DurocJob, DurocResult
from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
from repro.gridenv import Grid
from repro.machine.host import ProcessContext
from repro.mpi.comm import MiniComm

_mpi_apps = itertools.count(1)

#: User entry point: a generator taking (ctx, comm).
MpiMain = Callable[[ProcessContext, MiniComm], Generator]


@dataclass
class MpiRun:
    """Handle for a launched MPI job."""

    job: DurocJob
    result: DurocResult

    @property
    def world_size(self) -> int:
        return self.result.total_processes

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.result.sizes


def mpiexec(
    grid: Grid,
    layout: Sequence[tuple[str, int]],
    main: MpiMain,
    duroc: Optional[Duroc] = None,
    startup: Optional[float] = None,
    subjob_type: SubjobType = SubjobType.REQUIRED,
    subjob_timeout: Optional[float] = None,
) -> Generator:
    """Generator: launch ``main`` on ``layout`` = [(contact, count), ...].

    Returns an :class:`MpiRun` once the co-allocation is released.  The
    user's ``main`` never sees DUROC: rank, size, and wiring come from
    the configuration mechanisms via :class:`MiniComm`.
    """
    executable = f"mpi_app{next(_mpi_apps)}"

    def body(ctx, port, config):
        comm = MiniComm(port, config)
        result = yield from main(ctx, comm)
        return result

    grid.programs[executable] = make_program(
        startup=grid.costs.app_startup if startup is None else startup,
        body=body,
    )

    request = CoAllocationRequest(
        [
            SubjobSpec(
                contact=contact,
                count=count,
                executable=executable,
                start_type=subjob_type,
                timeout=subjob_timeout,
            )
            for contact, count in layout
        ]
    )
    duroc = duroc or grid.duroc()
    job = duroc.submit(request)
    result = yield from job.commit()
    return MpiRun(job=job, result=result)
