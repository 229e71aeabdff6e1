"""What a run is, and the one function that runs it.

A :class:`Scenario` declares a run: the sites of its testbed, the
programs registered on them, the :mod:`repro.faults` specs installed
and a ``drive(grid)`` that sets the work going.  :func:`run` builds the
grid, attaches the observers it is asked for, drives and drains the run
and hands back ``(grid, outcome)``.  Every runner — ``repro.prof
bench``, ``repro.verify``, the fault campaigns, the §4.3 experiments —
is a table of scenarios plus its own reduction of that pair.

The paper's scenarios:

* :data:`FIGURE1` — the quickstart shape of Fig. 1: a required master
  and two interactive worker subjobs;
* :func:`split_coallocation` — N processes over M required subjobs, the
  shape of Figs. 4 and 5 (and of :data:`TRACED_COALLOCATION`, the run
  the observability tables trace);
* :func:`sf_express` — the record-setting distributed interactive
  simulation: "1386 processors distributed across 13 different parallel
  supercomputers", with machine/network/application failures to
  configure around (§4.3);
* :func:`microtomography` — the real-time X-ray reconstruction
  experiment of [27]: "a scientific instrument, five computers, and
  multiple display devices";
* :func:`motivating_scenario` — the §2 narrative: 400 processors on
  five computers, one crashed and one overloaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Collection, Generator, Mapping, Optional

from repro.core.applib import make_program
from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
from repro.errors import ReproError
from repro.faults import FaultSpec, HostCrash, Overload
from repro.gridenv import DEFAULT_EXECUTABLE, Grid, GridBuilder
from repro.machine.faults import FailureModel
from repro.machine.host import Program
from repro.workloads.synthetic import split_processes

#: What :func:`run` can attach: the tracer's spans, marks and metrics
#: (``grid.tracer``), the protocol monitors' recorder
#: (``grid.recorder``), the op counters (``grid.counters``) and the
#: black-box flight recorder (``grid.flightrec``).  Every observer
#: implies the trace, which the other three read; a bare run records
#: nothing and its ``grid.tracer`` is the shared null tracer.
OBSERVERS = ("trace", "monitors", "profile", "flightrec")

#: Submission-phase timeout for dead sites in the §4.3 scenarios (s).
SUBMIT_TIMEOUT = 10.0

#: Machine sizes for the SF-Express-style run.  The paper reports 1386
#: processors over 13 machines (the real testbed mixed large Origins,
#: T3Es, and SPs); these sizes sum to 1536 so the 1386-process request
#: leaves headroom on each machine.
SF_EXPRESS_SIZES = (256, 192, 192, 128, 128, 128, 128, 96, 96, 64, 64, 48, 16)

#: Processes requested per machine (sums to 1386).
SF_EXPRESS_COUNTS = (232, 174, 174, 116, 116, 116, 116, 86, 86, 56, 56, 42, 16)

Drive = Callable[[Grid], Generator]


@dataclass(frozen=True)
class Scenario:
    """One run, declared: its testbed, its faults and what drives it.

    ``drive(grid)`` is called on the built grid before the clock
    starts.  It may arrange the world (a co-allocator, a machine that
    is already down) and returns the generator the run drives; what
    that generator returns is the run's outcome.  ``drain`` is how long
    the run goes on once it has: 0 stops at once, None runs until no
    event is left.
    """

    name: str
    description: str
    #: ``(site, nodes)`` pairs, each a fork-scheduled machine.
    sites: tuple[tuple[str, int], ...]
    drive: Drive
    programs: Mapping[str, Program] = field(default_factory=dict)
    faults: tuple[FaultSpec, ...] = ()
    drain: Optional[float] = 0.0

    def builder(self, **options: Any) -> GridBuilder:
        """A :class:`GridBuilder` with this scenario's testbed declared."""
        builder = GridBuilder(**options)
        for site, nodes in self.sites:
            builder.add_machine(site, nodes=nodes)
        for name, program in self.programs.items():
            builder.program(name, program)
        return builder.with_faults(*self.faults)


def run(
    scenario: Scenario, seed: int, observe: Collection[str] = ()
) -> tuple[Grid, Any]:
    """Build ``scenario``'s grid at ``seed``, observe, drive and drain it.

    ``observe`` names :data:`OBSERVERS` to attach; what they recorded
    is on the returned grid.  Observers never change the run.
    """
    if isinstance(observe, str):
        raise ReproError(
            f"observe is a collection of OBSERVERS {list(OBSERVERS)}, "
            f"not the string {observe!r}"
        )
    unknown = sorted(set(observe) - set(OBSERVERS))
    if unknown:
        raise ReproError(f"unknown observer(s) {unknown}; pick from {list(OBSERVERS)}")
    builder = scenario.builder(seed=seed, trace=bool(observe))
    if "monitors" in observe:
        builder.with_monitors()
    if "profile" in observe:
        builder.with_profiling()
    if "flightrec" in observe:
        from repro.obs.flightrec import FlightRecorder

        builder.with_probe(FlightRecorder())
    grid = builder.build()
    outcome = grid.run(grid.process(scenario.drive(grid)))
    if scenario.drain is None:
        grid.run()
    elif scenario.drain:
        grid.run(until=grid.now + scenario.drain)
    return grid, outcome


def request_on(grid: Grid, *subjobs: tuple) -> CoAllocationRequest:
    """A request on ``grid``: one ``(site, processes, executable, start
    type, check-in timeout or None)`` tuple per subjob."""
    return CoAllocationRequest([
        SubjobSpec(contact=grid.site(site).contact, count=count,
                   executable=executable, start_type=start_type, timeout=timeout)
        for site, count, executable, start_type, timeout in subjobs
    ])


def coallocate(
    request: Callable[[Grid], CoAllocationRequest],
    wait_done: bool = True,
    **duroc_options: Any,
) -> Drive:
    """A drive that commits ``request(grid)`` through one DUROC built
    with ``duroc_options`` and, with ``wait_done``, waits for its
    processes to finish; the outcome is ``(job, commit result)``."""

    def drive(grid: Grid) -> Generator:
        submitted = request(grid)
        duroc = grid.duroc(**duroc_options)

        def agent(env):
            job = duroc.submit(submitted)
            result = yield from job.commit()
            if wait_done:
                yield from job.wait_done()
            return (job, result)

        return agent(grid.env)

    return drive


# -- Figure 1 and the shape of Figs. 4-5 -----------------------------------------------


def figure1_request(
    grid: Grid, master: str = DEFAULT_EXECUTABLE, worker: str = DEFAULT_EXECUTABLE
) -> CoAllocationRequest:
    """The paper's Fig. 1: one required ``master`` process on RM1 and
    four interactive ``worker`` processes on each of RM2 and RM3."""
    return request_on(
        grid,
        ("RM1", 1, master, SubjobType.REQUIRED, None),
        ("RM2", 4, worker, SubjobType.INTERACTIVE, None),
        ("RM3", 4, worker, SubjobType.INTERACTIVE, None),
    )


FIGURE1 = Scenario(
    "figure1",
    "three-subjob DUROC co-allocation (the quickstart shape)",
    sites=(("RM1", 16), ("RM2", 64), ("RM3", 64)),
    drive=coallocate(figure1_request),
)


def split_coallocation(subjobs: int, total_processes: int) -> Scenario:
    """``total_processes`` split evenly over ``subjobs`` required
    subjobs on 64-node sites RM1..RMn, committed with the liveness watch
    off (pure protocol timing, the shape of Figs. 4 and 5); the outcome
    is ``(job, commit result)``."""

    def request(grid: Grid) -> CoAllocationRequest:
        return request_on(grid, *(
            (f"RM{idx}", count, DEFAULT_EXECUTABLE, SubjobType.REQUIRED, None)
            for idx, count in enumerate(split_processes(total_processes, subjobs), 1)
        ))

    return Scenario(
        f"split_coallocation_{subjobs}x{total_processes}",
        f"{total_processes} processes over {subjobs} required subjobs",
        sites=tuple((f"RM{idx}", 64) for idx in range(1, subjobs + 1)),
        drive=coallocate(request, wait_done=False, heartbeat_interval=0.0),
    )


#: The run the observability tables trace: three two-process subjobs.
TRACED_COALLOCATION = replace(split_coallocation(3, 6), name="traced_coallocation")


# -- §2 and §4.3 ------------------------------------------------------------------


def _allocate(grid: Grid, agent: Any, request: CoAllocationRequest) -> Generator:
    def allocate(env):
        outcome = yield from agent.allocate(request)
        return outcome

    return allocate(grid.env)


def sf_express(
    failure_model: Optional[FailureModel] = None,
    strategy: str = "interactive",
    worker_type: SubjobType = SubjobType.INTERACTIVE,
    subjob_timeout: float = 120.0,
    startup: float = 30.0,
    anchor_machines: int = 1,
    spare_machines: int = 3,
    max_attempts: int = 5,
) -> Scenario:
    """The 13-machine distributed interactive simulation, allocated by
    the ``atomic`` (GRAB, restart) or ``interactive`` (DUROC) strategy.

    The first ``anchor_machines`` subjobs are required (the simulation
    cannot run without its coordination site); the rest carry
    ``worker_type``.  ``startup`` is per-process initialization time —
    large parallel machines took "tens of minutes"; 30 s keeps sweeps
    fast while preserving the cost ordering.  ``spare_machines`` large
    standby machines exist outside the initial request, found through
    the information service (the paper's failed machines were "located
    dynamically").  ``failure_model`` is drawn per request machine from
    the grid's ``scenario.faults`` stream before the run starts; the
    anchors and the spares never fault.  The outcome is the agent's.
    """
    if strategy not in ("atomic", "interactive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    names = [f"RM{idx}" for idx in range(1, len(SF_EXPRESS_SIZES) + 1)]

    def drive(grid: Grid) -> Generator:
        from repro.broker.atomic_agent import AtomicAgent
        from repro.broker.interactive_agent import InteractiveAgent
        from repro.mds.directory import Directory

        if failure_model is not None:
            # The paper's runs always had a live coordination site.
            failure_model.apply(
                [grid.machine(name) for name in names[anchor_machines:]],
                grid.rngs.stream("scenario.faults"),
            )
        request = request_on(grid, *(
            (name, count, "sf_express",
             SubjobType.REQUIRED if idx < anchor_machines else worker_type,
             subjob_timeout)
            for idx, (name, count) in enumerate(zip(names, SF_EXPRESS_COUNTS))
        ))
        directory = Directory(grid.env, refresh_interval=5.0)
        for site in grid.sites.values():
            directory.register(site)
        if strategy == "atomic":
            agent: Any = AtomicAgent(
                grid.grab(submit_timeout=SUBMIT_TIMEOUT),
                max_attempts=max_attempts,
                directory=directory,
            )
        else:
            agent = InteractiveAgent(
                grid.duroc(submit_timeout=SUBMIT_TIMEOUT), directory=directory
            )
        return _allocate(grid, agent, request)

    return Scenario(
        "sf_express",
        f"SF-Express: {sum(SF_EXPRESS_COUNTS)} processes on 13 machines, {strategy}",
        sites=tuple(zip(names, SF_EXPRESS_SIZES)) + tuple(
            (f"spare{idx}", max(SF_EXPRESS_SIZES))
            for idx in range(1, spare_machines + 1)
        ),
        drive=drive,
        programs={"sf_express": make_program(startup=startup, runtime=60.0)},
    )


def microtomography() -> Scenario:
    """Instrument + five computers + display devices (paper [27]).

    The instrument is required (no experiment without the beamline),
    the compute machines are interactive (reconstruction degrades
    gracefully), and the displays are optional: overloaded 30x, the
    viewers join late.  The run drains, so they do join; the outcome is
    ``(job, commit result)``.
    """

    def request(grid: Grid) -> CoAllocationRequest:
        return request_on(
            grid,
            ("beamline", 1, "tomo", SubjobType.REQUIRED, None),
            *((f"compute{i}", 16, "tomo", SubjobType.INTERACTIVE, 60.0)
              for i in range(1, 6)),
            *((f"display{i}", 1, "tomo", SubjobType.OPTIONAL, None) for i in (1, 2)),
        )

    return Scenario(
        "microtomography",
        "beamline + five compute machines + two optional displays",
        sites=(("beamline", 1),)
        + tuple((f"compute{i}", 32) for i in range(1, 6))
        + (("display1", 1), ("display2", 1)),
        drive=coallocate(request, wait_done=False, submit_timeout=SUBMIT_TIMEOUT),
        programs={"tomo": make_program(startup=2.0, runtime=30.0)},
        faults=(Overload("display1", 30.0), Overload("display2", 30.0)),
        drain=None,
    )


def motivating_scenario() -> Scenario:
    """§2's narrative: 400 processors over five machines.

    One candidate machine is already down ("unavailable due to a system
    crash"), and one is so overloaded it misses the startup deadline
    ("overloaded with other work"); a sixth machine stands by as the
    dynamically located replacement.  The outcome is the interactive
    agent's.
    """

    def drive(grid: Grid) -> Generator:
        from repro.broker.interactive_agent import InteractiveAgent

        request = request_on(grid, *(
            (f"sim{i}", 80, "simulation", SubjobType.INTERACTIVE, 90.0)
            for i in range(1, 6)
        ))
        agent = InteractiveAgent(
            grid.duroc(submit_timeout=SUBMIT_TIMEOUT),
            spares=[grid.site("sim6").contact],
        )
        return _allocate(grid, agent, request)

    return Scenario(
        "motivating",
        "400 processors on five machines, one crashed and one overloaded",
        sites=tuple((f"sim{idx}", 128) for idx in range(1, 7)),  # five + a spare
        drive=drive,
        programs={"simulation": make_program(startup=20.0, runtime=120.0)},
        faults=(HostCrash("sim2"), Overload("sim5", 50.0)),
    )

