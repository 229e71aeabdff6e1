"""Application scenarios from the paper's §4.3.

* :func:`sf_express` — the record-setting distributed interactive
  simulation: "1386 processors distributed across 13 different parallel
  supercomputers", with machine/network/application failures to
  configure around.
* :func:`microtomography` — the real-time X-ray reconstruction
  experiment of [27]: "a scientific instrument, five computers, and
  multiple display devices".
* :func:`motivating_scenario` — the §2 narrative: 400 processors on
  five computers, one crashed and one overloaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
from repro.gram.costs import CostModel
from repro.gridenv import DEFAULT_EXECUTABLE, Grid, GridBuilder
from repro.machine.faults import FailureModel

#: Machine sizes for the SF-Express-style run.  The paper reports 1386
#: processors over 13 machines (the real testbed mixed large Origins,
#: T3Es, and SPs); these sizes sum to 1536 so the 1386-process request
#: leaves headroom on each machine.
SF_EXPRESS_SIZES = (256, 192, 192, 128, 128, 128, 128, 96, 96, 64, 64, 48, 16)

#: Processes requested per machine (sums to 1386).
SF_EXPRESS_COUNTS = (232, 174, 174, 116, 116, 116, 116, 86, 86, 56, 56, 42, 16)


@dataclass
class Scenario:
    """A built scenario: grid, request, and the failure ground truth."""

    grid: Grid
    request: CoAllocationRequest
    faults: dict[str, str]


def sf_express(
    failure_model: Optional[FailureModel] = None,
    seed: int = 0,
    worker_type: SubjobType = SubjobType.INTERACTIVE,
    subjob_timeout: float = 120.0,
    startup: float = 30.0,
    anchor_machines: int = 1,
    spare_machines: int = 3,
) -> Scenario:
    """Build the 13-machine distributed interactive simulation.

    The first ``anchor_machines`` subjobs are required (the simulation
    cannot run without its coordination site); the rest carry
    ``worker_type``.  ``startup`` is per-process initialization time —
    large parallel machines took "tens of minutes"; 30 s keeps sweeps
    fast while preserving the cost ordering.  ``spare_machines`` large
    standby machines exist outside the initial request, available to
    agents that substitute via the information service (the paper's
    failed machines were "located dynamically").  Spares never fault.
    """
    from repro.core.applib import make_program

    builder = GridBuilder(seed=seed)
    for idx, size in enumerate(SF_EXPRESS_SIZES, start=1):
        builder.add_machine(f"RM{idx}", nodes=size)
    for idx in range(1, spare_machines + 1):
        builder.add_machine(f"spare{idx}", nodes=max(SF_EXPRESS_SIZES))
    grid = builder.build()
    grid.programs["sf_express"] = make_program(startup=startup, runtime=60.0)

    names = [f"RM{idx}" for idx in range(1, len(SF_EXPRESS_SIZES) + 1)]
    request = CoAllocationRequest(
        [
            SubjobSpec(
                contact=grid.site(name).contact,
                count=count,
                executable="sf_express",
                start_type=(
                    SubjobType.REQUIRED if idx < anchor_machines else worker_type
                ),
                timeout=subjob_timeout,
            )
            for idx, (name, count) in enumerate(zip(names, SF_EXPRESS_COUNTS))
        ]
    )

    faults: dict[str, str] = {}
    if failure_model is not None:
        rng = grid.rngs.stream("scenario.faults")
        # Never fault the anchor machines: the paper's runs always had
        # a live coordination site.
        fault_targets = [grid.machine(n) for n in names[anchor_machines:]]
        faults = failure_model.apply(fault_targets, rng)
    return Scenario(grid=grid, request=request, faults=faults)


def microtomography(seed: int = 0) -> Scenario:
    """Instrument + five computers + display devices (paper [27]).

    The instrument is required (no experiment without the beamline),
    the compute machines are interactive (reconstruction degrades
    gracefully), and the displays are optional (viewers join late).
    """
    from repro.core.applib import make_program

    builder = GridBuilder(seed=seed)
    builder.add_machine("beamline", nodes=1)
    for idx in range(1, 6):
        builder.add_machine(f"compute{idx}", nodes=32)
    builder.add_machine("display1", nodes=1)
    builder.add_machine("display2", nodes=1)
    grid = builder.build()
    grid.programs["tomo"] = make_program(startup=2.0, runtime=30.0)

    request = CoAllocationRequest(
        [SubjobSpec(contact=grid.site("beamline").contact, count=1,
                    executable="tomo", start_type=SubjobType.REQUIRED)]
        + [
            SubjobSpec(contact=grid.site(f"compute{i}").contact, count=16,
                       executable="tomo", start_type=SubjobType.INTERACTIVE,
                       timeout=60.0)
            for i in range(1, 6)
        ]
        + [
            SubjobSpec(contact=grid.site(f"display{i}").contact, count=1,
                       executable="tomo", start_type=SubjobType.OPTIONAL)
            for i in (1, 2)
        ]
    )
    return Scenario(grid=grid, request=request, faults={})


def motivating_scenario(seed: int = 0) -> Scenario:
    """§2's narrative: 400 processors over five machines.

    One candidate machine is already down (crash), and one is so
    overloaded it misses the startup deadline; a sixth machine stands
    by as the dynamically located replacement.
    """
    from repro.core.applib import make_program

    builder = GridBuilder(seed=seed)
    for idx in range(1, 7):  # five planned + one spare
        builder.add_machine(f"sim{idx}", nodes=128)
    grid = builder.build()
    grid.programs["simulation"] = make_program(startup=20.0, runtime=120.0)

    grid.machine("sim2").crash()          # "unavailable due to a system crash"
    grid.machine("sim5").overload(50.0)   # "overloaded with other work"

    request = CoAllocationRequest(
        [
            SubjobSpec(contact=grid.site(f"sim{i}").contact, count=80,
                       executable="simulation",
                       start_type=SubjobType.INTERACTIVE, timeout=90.0)
            for i in range(1, 6)
        ]
    )
    return Scenario(
        grid=grid,
        request=request,
        faults={"sim2": "crashed", "sim5": "slow"},
    )
