"""Grid composition: one-stop construction of simulated testbeds.

:class:`GridBuilder` assembles an environment, network, CA, program
registry, and a set of GRAM sites; :class:`Grid` exposes co-allocator
factories and convenience accessors.  Every example, test, and
benchmark builds its world through this module.

>>> grid = (GridBuilder(seed=7)
...         .add_machine("RM1", nodes=64)
...         .add_machine("RM2", nodes=64)
...         .build())
>>> duroc = grid.duroc()
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from repro.core.applib import make_program
from repro.core.atomic import Grab
from repro.core.coallocator import Duroc
from repro.errors import ReproError
from repro.faults import FaultSpec, schedule as schedule_faults
from repro.gram.client import GramClient
from repro.gram.costs import CostModel
from repro.gram.site import Site
from repro.gsi.credentials import CertificateAuthority, Credential
from repro.machine.host import Machine, Program
from repro.net.network import LatencyModel, Network
from repro.schedulers.backfill import EasyBackfillScheduler
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.fork import ForkScheduler
from repro.schedulers.reservation import ReservationScheduler
from repro.simcore.environment import Environment
from repro.simcore.probe import Probe, attach
from repro.simcore.rng import RngRegistry
from repro.simcore.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flightrec import FlightRecorder
    from repro.prof.counters import OpCounters
    from repro.verify.recorder import Recorder

SCHEDULERS = {
    "fork": ForkScheduler,
    "fcfs": FcfsScheduler,
    "backfill": EasyBackfillScheduler,
    "reservation": ReservationScheduler,
}

#: The default executable name registered on every grid.
DEFAULT_EXECUTABLE = "duroc_app"

#: The client workstation host name.
CLIENT_HOST = "client"


class Grid:
    """A built testbed: environment, network, sites, identities."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        ca: CertificateAuthority,
        credential: Credential,
        sites: dict[str, Site],
        programs: dict[str, Program],
        costs: CostModel,
        rngs: RngRegistry,
        client_host: str = CLIENT_HOST,
        recorder: "Optional[Recorder]" = None,
        counters: "Optional[OpCounters]" = None,
        flightrec: "Optional[FlightRecorder]" = None,
    ) -> None:
        self.env = env
        self.network = network
        self.ca = ca
        self.credential = credential
        self.sites = sites
        self.programs = programs
        self.costs = costs
        self.rngs = rngs
        #: The run's tracer; its metrics registry is ``tracer.metrics``.
        self.tracer = env.tracer
        self.client_host = client_host
        #: The runtime-verification recorder observing this grid, if the
        #: builder attached one (see :meth:`GridBuilder.with_monitors`).
        self.recorder = recorder
        #: The op counts of this grid, if the builder was asked for
        #: them (see :meth:`GridBuilder.with_profiling`).
        self.counters = counters
        #: The black-box flight recorder observing this grid, if the
        #: builder attached one (see :mod:`repro.obs.flightrec`).
        self.flightrec = flightrec
        #: Co-allocators built by :meth:`duroc`/:meth:`grab`, which
        #: :meth:`close` closes.
        self._coallocators: list["Duroc | Grab"] = []
        #: Per-world numbering of the programs :func:`repro.mpi.mpiexec`
        #: registers (``mpi_app1``, ``mpi_app2``, ...).
        self.mpi_apps = itertools.count(1)

    # -- accessors -------------------------------------------------------------

    def site(self, name: str) -> Site:
        try:
            return self.sites[name]
        except KeyError:
            raise ReproError(f"unknown site {name!r}") from None

    def machine(self, name: str) -> Machine:
        return self.site(name).machine

    def contacts(self) -> list[str]:
        return [site.contact for site in self.sites.values()]

    # -- factories --------------------------------------------------------------

    def duroc(self, **kwargs) -> Duroc:
        """An interactive-transaction co-allocator on the client host.

        Pass ``retry=RetryPolicy(...)`` to enable bounded, jittered
        resubmission; jitter draws from the grid's seeded
        ``resilience.retry`` stream unless an ``rng`` is given.
        """
        kwargs.setdefault("auth", self.costs.auth)
        kwargs.setdefault("rng", self.rngs.stream("resilience.retry"))
        duroc = Duroc(self.network, self.client_host, self.credential, **kwargs)
        self._coallocators.append(duroc)
        return duroc

    def grab(self, **kwargs) -> Grab:
        """An atomic-transaction co-allocator on the client host."""
        kwargs.setdefault("auth", self.costs.auth)
        kwargs.setdefault("rng", self.rngs.stream("resilience.retry"))
        grab = Grab(self.network, self.client_host, self.credential, **kwargs)
        self._coallocators.append(grab)
        return grab

    def gram_client(self) -> GramClient:
        return GramClient(
            self.network, self.client_host, self.credential, auth=self.costs.auth
        )

    # -- execution ---------------------------------------------------------------

    def run(self, until=None):
        """Run the simulation (see :meth:`Environment.run`)."""
        return self.env.run(until=until)

    def process(self, generator, name: Optional[str] = None):
        return self.env.process(generator, name=name)

    def close(self) -> None:
        """End this grid once its results are read (idempotent).

        Closes the environment (every live process ends, every timer
        is dropped), then each site (process table, leases, queue), the
        network (every mailbox is unbound) and each co-allocator this
        grid built (its request table).  A closed grid that is dropped
        is freed by reference counting, without waiting for the cycle
        collector; its tracer keeps the run's spans, marks and metrics.
        """
        self.env.close()
        for site in self.sites.values():
            site.close()
        self.network.close()
        for coallocator in self._coallocators:
            coallocator.close()
        self._coallocators.clear()

    @property
    def now(self) -> float:
        return self.env.now

    def __repr__(self) -> str:
        return f"<Grid sites={sorted(self.sites)} t={self.env.now:g}>"


class GridBuilder:
    """Fluent construction of a :class:`Grid`."""

    def __init__(
        self,
        seed: int = 0,
        latency: float = 0.002,
        costs: Optional[CostModel] = None,
        user: str = "alice",
        client_host: str = CLIENT_HOST,
        trace: bool = True,
    ) -> None:
        self.seed = seed
        self.latency = latency
        self.costs = costs or CostModel()
        self.user = user
        self.client_host = client_host
        #: ``trace=False`` leaves the environment's NullTracer in place: no
        #: spans, no metrics, identical simulation behaviour (tested).
        self.trace = trace
        self._machines: list[dict] = []
        self._programs: dict[str, Program] = {}
        self._faults: list[FaultSpec] = []
        self._probes: list[Probe] = []
        self._profiling = False

    def add_machine(
        self,
        name: str,
        nodes: int,
        scheduler: str = "fork",
        speed: float = 1.0,
        costs: Optional[CostModel] = None,
        memory: Optional[float] = None,
    ) -> "GridBuilder":
        """Declare a site; ``scheduler`` is one of fork/fcfs/backfill/reservation.

        ``memory`` (MB) enables §2.1-style processors+memory co-allocation
        at the local scheduler.
        """
        if scheduler not in SCHEDULERS:
            raise ReproError(
                f"unknown scheduler {scheduler!r}; pick from {sorted(SCHEDULERS)}"
            )
        if any(spec["name"] == name for spec in self._machines):
            raise ReproError(f"a machine named {name!r} is already declared")
        self._machines.append(
            dict(name=name, nodes=nodes, scheduler=scheduler, speed=speed,
                 costs=costs, memory=memory)
        )
        return self

    def add_machines(
        self, prefix: str, count: int, nodes: int, **kwargs
    ) -> "GridBuilder":
        """Declare ``count`` identical sites named ``prefix``1..N."""
        for idx in range(1, count + 1):
            self.add_machine(f"{prefix}{idx}", nodes=nodes, **kwargs)
        return self

    def program(self, name: str, program: Program) -> "GridBuilder":
        """Register an executable available on every site."""
        self._programs[name] = program
        return self

    def with_faults(self, *specs: FaultSpec) -> "GridBuilder":
        """Declare faults to install on the built grid.

        Accepts any :class:`repro.faults.FaultSpec`; they are validated
        and scheduled by :func:`repro.faults.schedule` as part of
        :meth:`build`, drawing stochastic faults from the grid's seeded
        RNG registry.
        """
        self._faults.extend(specs)
        return self

    def with_probe(self, *probes: Probe) -> "GridBuilder":
        """Attach probes to the built grid.

        They hear every hook of :class:`~repro.simcore.probe.Probe` in
        attachment order.  Probes are observation-only (no scheduled
        events, no random draws), so the simulation stays byte-identical
        to an unobserved run.
        """
        for probe in probes:
            if not isinstance(probe, Probe):
                raise ReproError(f"with_probe() takes Probe observers, got {probe!r}")
            if probe not in self._probes:
                self._probes.append(probe)
        return self

    def with_monitors(
        self, recorder: "Optional[Recorder]" = None
    ) -> "GridBuilder":
        """Attach a runtime-verification recorder to the built grid.

        Delegates to :meth:`with_probe`.  The recorder (a fresh one
        unless given) observes every message send/delivery/drop and
        every instrumented protocol event with its happens-before
        edges, ready for :func:`repro.verify.evaluate`.
        """
        if recorder is None:
            from repro.verify.recorder import Recorder

            recorder = Recorder()
        return self.with_probe(recorder)

    def with_profiling(self) -> "GridBuilder":
        """Read the built grid's op counts through ``grid.counters``.

        The :class:`~repro.prof.counters.OpCounters` are pointed at the
        grid's kernel and network; they hear nothing during the run.
        """
        self._profiling = True
        return self

    def build(self) -> Grid:
        if not self._machines:
            raise ReproError("a grid needs at least one machine")
        env = Environment()
        attach(env, *self._probes)
        recorder: "Optional[Recorder]" = None
        flightrec: "Optional[FlightRecorder]" = None
        if self._probes:
            from repro.obs.flightrec import FlightRecorder
            from repro.verify.recorder import Recorder

            probes = self._probes
            recorder = next((p for p in probes if isinstance(p, Recorder)), None)
            flightrec = next(
                (p for p in probes if isinstance(p, FlightRecorder)), None
            )
        rngs = RngRegistry(self.seed)
        latency_model = LatencyModel(base=self.latency)
        # Before any component is built: each reads env.tracer once.
        if self.trace:
            env.tracer = Tracer(env)
        network = Network(env, latency_model)
        network.add_host(self.client_host)
        counters: "Optional[OpCounters]" = None
        if self._profiling:
            from repro.prof.counters import OpCounters

            counters = OpCounters(env, network)
        ca = CertificateAuthority()
        credential = ca.issue(self.user)

        programs: dict[str, Program] = {
            DEFAULT_EXECUTABLE: make_program(startup=self.costs.app_startup),
        }
        programs.update(self._programs)

        sites: dict[str, Site] = {}
        for spec in self._machines:
            site = Site(
                env=env,
                network=network,
                name=spec["name"],
                nodes=spec["nodes"],
                ca=ca,
                programs=programs,
                scheduler_factory=SCHEDULERS[spec["scheduler"]],
                costs=spec["costs"] or self.costs,
                speed=spec["speed"],
                memory=spec["memory"],
            )
            site.authorize(self.user)
            sites[spec["name"]] = site

        grid = Grid(
            env=env,
            network=network,
            ca=ca,
            credential=credential,
            sites=sites,
            programs=programs,
            costs=self.costs,
            rngs=rngs,
            client_host=self.client_host,
            recorder=recorder,
            counters=counters,
            flightrec=flightrec,
        )
        if self._faults:
            schedule_faults(env, grid, self._faults)
        return grid
