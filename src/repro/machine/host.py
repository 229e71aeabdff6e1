"""Compute resource model.

A :class:`Machine` is one co-allocatable resource: a named host with a
fixed node (processor) count, a process table, and a load factor that
scales application startup work (the paper's "faulty" fifth system was
exactly a machine "overloaded with other work" whose startup never
finished in time).

Machines do not schedule themselves — a
:class:`~repro.schedulers.base.LocalScheduler` owns node accounting —
but they own process *execution*: spawning program instances, killing
them, and dying wholesale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Generator, Mapping, Optional

from repro.errors import SimulationError
from repro.net.address import Endpoint
from repro.net.network import Network
from repro.net.transport import Port
from repro.simcore.events import Event
from repro.simcore.process import Interrupt, Process
from repro.simcore.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment


def _is_count(value: Any) -> bool:
    """True for a whole number of any numeric type (``2.0`` too)."""
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


#: A program is a callable taking a ProcessContext and returning a
#: generator to be driven as a simulated process.
Program = Callable[["ProcessContext"], Generator]


#: The params of a process spawned without any: one shared empty mapping.
_NO_PARAMS: Mapping[str, Any] = MappingProxyType({})


@dataclass(slots=True, eq=False)
class ProcessContext:
    """One running program instance: everything it can see, and the
    machine's bookkeeping for it.

    ``params`` plays the role of environment variables: the GRAM job
    manager injects job/subjob identity here, exactly as DUROC passes
    subjob context to real processes via the environment.  It is a
    read-only mapping, which every rank of a job shares.

    The context is also its process's exit callback, so the machine
    builds no closure per process to reap it.
    """

    env: "Environment"
    machine: "Machine"
    pid: int
    rank: int
    count: int
    executable: str
    arguments: tuple[Any, ...]
    params: Mapping[str, Any]
    #: Simulated time of the spawn.
    started_at: float
    #: The kernel process running the program, set once it is created.
    process: Process = field(init=False, repr=False)
    #: Ports this process bound; the machine closes them when it exits.
    ports: tuple[Port, ...] = field(default=(), init=False, repr=False)

    def port(self, label: str) -> Port:
        """Bind a fresh port on this machine for this process."""
        port = Port(
            self.machine.network,
            Endpoint(self.machine.name, f"{label}.pid{self.pid}"),
        )
        self.ports += (port,)
        return port

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def tracer(self) -> Tracer:
        """The run's tracer."""
        return self.env.tracer

    def __call__(self, event: Event) -> None:
        """The process exited: the machine reaps it."""
        self.machine._reap(self, event)


class Machine:
    """A host with processors, a process table, and failure modes."""

    def __init__(
        self,
        env: "Environment",
        network: Network,
        name: str,
        nodes: int,
        speed: float = 1.0,
    ) -> None:
        if not _is_count(nodes) or nodes <= 0:
            raise SimulationError(
                f"machine needs a whole, positive node count, got {nodes!r}"
            )
        if not 0 < speed < math.inf:  # also refuses NaN
            raise SimulationError(f"machine speed must be positive, got {speed!r}")
        self.env = env
        self.network = network
        self.name = name
        self.nodes = int(nodes)
        self.speed = float(speed)
        #: Multiplies startup work; >1 models an overloaded system.
        self.load_factor = 1.0
        self.crashed = False
        self.processes: dict[int, ProcessContext] = {}
        network.add_host(name)

    # -- execution ------------------------------------------------------------

    def spawn(
        self,
        program: Program,
        executable: str,
        rank: int,
        count: int,
        arguments: tuple[Any, ...] = (),
        params: Optional[Mapping[str, Any]] = None,
    ) -> ProcessContext:
        """Start one instance of ``program`` on this machine.

        A read-only ``params`` mapping is kept as given, so a job's
        ranks can share one; anything else is copied into one.
        """
        if self.crashed:
            raise SimulationError(f"machine {self.name!r} is down")
        if params is None:
            params = _NO_PARAMS
        elif type(params) is not MappingProxyType:
            params = MappingProxyType(dict(params))
        pid = next(self.network.pids)
        context = ProcessContext(
            env=self.env,
            machine=self,
            pid=pid,
            rank=rank,
            count=count,
            executable=executable,
            arguments=tuple(arguments),
            params=params,
            started_at=self.env.now,
        )
        context.process = process = self.env.process(
            program(context),
            name=f"{self.name}/{executable}[{rank}]",
        )
        process.callbacks.append(context)
        self.processes[pid] = context
        return context

    def _reap(self, context: ProcessContext, event: Event) -> None:
        """Remove an exited process and its mailboxes; swallow
        kill-induced interrupts."""
        self.processes.pop(context.pid, None)
        for port in context.ports:
            port.close()
        if not event._ok and isinstance(event.value, Interrupt):
            # Termination via kill()/crash() is an expected outcome, not
            # a simulation error; other exceptions still surface.
            event.defused = True
            # Nobody reads a kill's traceback, and through its frames it
            # ties the dead process into a cycle that only a full
            # collection frees — thousands at a time on an abort.
            event.value.__traceback__ = None

    def startup_delay(self, base: float) -> float:
        """Time for ``base`` seconds of startup work under current load."""
        return base * self.load_factor / self.speed

    def kill(self, pid: int) -> bool:
        """Terminate one process (no-op if it already exited)."""
        context = self.processes.pop(pid, None)
        if context is None:
            return False
        if context.process.is_alive:
            context.process.interrupt(cause="killed")
        return True

    # -- failure modes -------------------------------------------------------

    def crash(self) -> None:
        """The machine dies: all processes are killed, the host goes dark."""
        if self.crashed:
            return
        self.crashed = True
        self.network.crash_host(self.name)
        for pid in list(self.processes):
            self.kill(pid)

    def restore(self) -> None:
        """Bring a crashed machine back (with an empty process table)."""
        self.crashed = False
        self.network.restore_host(self.name)

    def overload(self, factor: float) -> None:
        """Set the load factor (1.0 = unloaded)."""
        if not factor > 0:  # also refuses NaN
            raise SimulationError(f"load factor must be positive, got {factor!r}")
        self.load_factor = float(factor)

    @property
    def process_count(self) -> int:
        return len(self.processes)

    def __repr__(self) -> str:
        state = "down" if self.crashed else f"load={self.load_factor:g}"
        return f"<Machine {self.name} nodes={self.nodes} {state}>"
