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

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.net.address import Endpoint
from repro.net.network import Network
from repro.net.transport import Port
from repro.simcore.process import Interrupt, Process
from repro.simcore.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment

_pids = itertools.count(1000)

#: A program is a callable taking a ProcessContext and returning a
#: generator to be driven as a simulated process.
Program = Callable[["ProcessContext"], Generator]


@dataclass
class ProcessContext:
    """Everything a spawned program instance can see.

    ``params`` plays the role of environment variables: the GRAM job
    manager injects job/subjob identity here, exactly as DUROC passes
    subjob context to real processes via the environment.
    """

    env: "Environment"
    machine: "Machine"
    pid: int
    rank: int
    count: int
    executable: str
    arguments: tuple[Any, ...] = ()
    params: dict[str, Any] = field(default_factory=dict)
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


@dataclass
class ProcessRecord:
    """Bookkeeping for one running program instance."""

    pid: int
    executable: str
    process: Process
    context: ProcessContext
    started_at: float


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
        if nodes <= 0:
            raise SimulationError(f"machine needs at least one node, got {nodes}")
        self.env = env
        self.network = network
        self.name = name
        self.nodes = int(nodes)
        self.speed = float(speed)
        #: Multiplies startup work; >1 models an overloaded system.
        self.load_factor = 1.0
        self.crashed = False
        self.processes: dict[int, ProcessRecord] = {}
        network.add_host(name)

    # -- execution ------------------------------------------------------------

    def spawn(
        self,
        program: Program,
        executable: str,
        rank: int,
        count: int,
        arguments: tuple[Any, ...] = (),
        params: Optional[dict[str, Any]] = None,
    ) -> ProcessRecord:
        """Start one instance of ``program`` on this machine."""
        if self.crashed:
            raise SimulationError(f"machine {self.name!r} is down")
        pid = next(_pids)
        context = ProcessContext(
            env=self.env,
            machine=self,
            pid=pid,
            rank=rank,
            count=count,
            executable=executable,
            arguments=tuple(arguments),
            params=dict(params or {}),
        )
        process = self.env.process(
            program(context),
            name=f"{self.name}/{executable}[{rank}]",
        )
        process.callbacks.append(lambda event: self._reap(context, event))
        record = ProcessRecord(
            pid=pid,
            executable=executable,
            process=process,
            context=context,
            started_at=self.env.now,
        )
        self.processes[pid] = record
        return record

    def _reap(self, context: ProcessContext, event) -> None:
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
        record = self.processes.pop(pid, None)
        if record is None:
            return False
        if record.process.is_alive:
            record.process.interrupt(cause="killed")
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
        if factor <= 0:
            raise SimulationError(f"load factor must be positive, got {factor!r}")
        self.load_factor = float(factor)

    @property
    def process_count(self) -> int:
        return len(self.processes)

    def __repr__(self) -> str:
        state = "down" if self.crashed else f"load={self.load_factor:g}"
        return f"<Machine {self.name} nodes={self.nodes} {state}>"
