"""Core event primitives for the discrete-event kernel.

The design follows the classic generator-driven simulation style (as in
SimPy): an :class:`Event` is a one-shot occurrence with a value, a list
of callbacks, and three states (untriggered, triggered-ok,
triggered-failed).  Simulated processes ``yield`` events to suspend until
they fire.

Events are deliberately tiny objects; the kernel schedules *events*, and
processes are themselves events (they fire when the generator returns),
which makes ``yield proc`` a join; :class:`AllOf` joins several.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.environment import Environment

#: Sort-priority for events scheduled at the same instant.  URGENT events
#: (process resumptions) run before NORMAL ones so a process observes the
#: effects of events that fired "now" before new NORMAL events at the same
#: timestamp are processed.
URGENT = 0
NORMAL = 1

#: Sentinel for "no value yet" (also reachable as ``Event.PENDING``).
PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` schedules it; once the kernel processes it, all attached
    callbacks run exactly once.  Attaching a callback to an event that
    has already been processed raises, because the callback would never
    run — use :meth:`processed` to guard.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "cancelled")

    #: Sentinel for "no value yet".
    PENDING = PENDING

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks to invoke (with the event) when processed.  ``None``
        #: once the event has been processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        #: A cancelled scheduled event is silently dropped by the kernel
        #: without advancing the clock — used to retire timers (e.g. a
        #: watchdog deadline) so they cannot prolong a simulation.
        self.cancelled: bool = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure was handled (suppresses crash propagation)."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        A failed event re-raises ``exception`` inside every process
        waiting on it.  If nobody waits and the failure is never defused
        the kernel surfaces the exception when the event is processed.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self, NORMAL, 0.0)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        # One per message and per RPC deadline: the slots are set here
        # rather than through Event.__init__.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.cancelled = False
        self.delay = delay = float(delay)
        env.schedule(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class AllOf(Event):
    """Fires with ``None`` once every event in ``events`` has fired.

    A countdown over its constituents: callers read each constituent's
    own ``value``.  The first constituent to fail fails the join with
    its exception and is defused.  Constituents already processed count
    at construction, so ``all_of([])`` fires at once.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = events = list(events)
        self._pending = len(events)

        for event in events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if not events:
            self.succeed()
            return

        check = self._check
        for event in events:
            callbacks = event.callbacks
            if callbacks is None:
                check(event)
                if self._value is not PENDING:
                    # Failed by an event that had already fired.
                    break
            else:
                callbacks.append(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if event._ok:
            self._pending -= 1
            if not self._pending:
                self.succeed()
            return
        event._defused = True
        self.fail(event._value)
        # Failed: stop listening.  A constituent still pending would
        # otherwise keep this join and every event in it alive in a
        # reference cycle only the collector can free.
        check = self._check
        for other in self._events:
            callbacks = other.callbacks
            if callbacks is not None and check in callbacks:
                callbacks.remove(check)
