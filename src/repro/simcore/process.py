"""Generator-driven simulated processes.

A :class:`Process` wraps a Python generator.  Each ``yield <event>``
suspends the process until the event fires; the event's value becomes
the result of the ``yield`` expression (or, for failed events, the
exception is re-raised at the yield point).  A process is itself an
:class:`~repro.simcore.events.Event` that fires when the generator
returns, so processes can be joined (``yield proc``) and composed with
conditions.

Processes support :meth:`Process.interrupt`, which raises
:class:`Interrupt` inside the generator at its current yield point —
the mechanism DUROC-style timeouts and kill operations are built on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import SimulationError, StopProcess
from repro.simcore.events import PENDING, Event, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment

#: Type alias for the generators processes are made from.
ProcessGenerator = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries an arbitrary application-provided object describing
    why the interrupt happened (e.g. ``"timeout"`` or a failure record).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Initialize(Event):
    """Internal event used to start a process at the current instant."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        # One per process: the slots are set here rather than through
        # Event.__init__.
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        self.cancelled = False
        env.schedule(self, URGENT, 0.0)


class _InterruptEvent(Event):
    """Internal urgent event delivering an :class:`Interrupt`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", cause: Any) -> None:
        super().__init__(env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(process._resume_interrupt)
        env.schedule(self, priority=URGENT, delay=0.0)


class Process(Event):
    """A running simulated activity driven by a generator.

    The process event fires with the generator's return value, or fails
    with the exception that escaped the generator.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None if it is
        #: about to resume or has finished).
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True until the generator has returned or raised."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process.

        Interrupting a dead process is an error; interrupting a process
        from itself is an error (it could never be delivered).
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        _InterruptEvent(self.env, self, cause)

    # -- resumption machinery ---------------------------------------------

    def _resume_interrupt(self, event: Event) -> None:
        """Deliver an interrupt, unless the process already terminated."""
        if not self.is_alive:
            # The process finished between scheduling and delivery of the
            # interrupt; silently drop it, as there is no yield point left.
            return
        # Detach from whatever the process was waiting on so that the
        # original event no longer resumes it.
        if self._target is not None and not self._target.processed:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the event's outcome."""
        env = self.env
        env._active_process = self
        self._target = None
        # This runs once per yield of every process; hoist the lookups
        # the loop would otherwise re-resolve each iteration.
        generator = self._generator
        schedule = env.schedule
        resume = self._resume

        while True:
            # The generator protocol signals completion by raising
            # StopIteration out of send()/throw(); there is no
            # pre-checkable fast path, so this is the one try the
            # resume loop keeps.
            try:
                if event is None or event._ok:
                    next_event = generator.send(None if event is None else event._value)
                else:
                    # Mark the failure as handled; the generator may choose
                    # to re-raise, which then fails this process.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                schedule(self, URGENT, 0.0)
                break
            except StopProcess as stop:
                generator.close()
                self._ok = True
                self._value = stop.args[0] if stop.args else None
                schedule(self, URGENT, 0.0)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                schedule(self, URGENT, 0.0)
                break

            if not isinstance(next_event, Event):
                error = f"yielded a non-event: {next_event!r}"
            elif next_event.env is not env:
                error = "yielded an event from another environment"
            else:
                callbacks = next_event.callbacks
                if callbacks is not None:
                    # Event not yet processed: suspend on it.
                    self._target = next_event
                    callbacks.append(resume)
                    break
                # Event already processed: loop and feed its value immediately.
                event = next_event
                continue
            self._ok = False
            self._value = SimulationError(f"process {self.name!r} {error}")
            schedule(self, URGENT, 0.0)
            break

        env._active_process = None

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"
