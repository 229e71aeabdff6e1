"""Core event primitives for the discrete-event kernel.

The design follows the classic generator-driven simulation style (as in
SimPy): an :class:`Event` is a one-shot occurrence with a value, a list
of callbacks, and three states (untriggered, triggered-ok,
triggered-failed).  Simulated processes ``yield`` events to suspend until
they fire.

Events are deliberately tiny objects; the kernel schedules *events*, and
processes are themselves events (they fire when the generator returns),
which makes ``yield proc`` a join and allows :class:`Condition` trees.
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

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self, NORMAL, 0.0)

    # -- composition -----------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

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
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
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


class ConditionValue:
    """Ordered mapping of the events a condition has collected.

    Behaves like a read-only dict keyed by the original event objects so
    callers can write ``result[ev_a]``; iteration order is trigger-set
    construction order.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key.value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def todict(self) -> dict[Event, Any]:
        return {event: event.value for event in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a boolean combination of events (``&`` / ``|``).

    The condition fires as soon as ``evaluate(events, n_triggered)``
    returns true, with a :class:`ConditionValue` of all events triggered
    *so far*.  If any constituent fails, the condition fails with that
    exception.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        # One per RPC wait: the slots are set here rather than through
        # Event.__init__.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.cancelled = False
        self._evaluate = evaluate
        self._events = events = list(events)
        self._count = 0

        for event in events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        # Evaluate with zero triggered first (e.g. all_of([]) is true).
        if evaluate(events, 0):
            self.succeed(ConditionValue())
            return

        check = self._check
        for event in events:
            callbacks = event.callbacks
            if callbacks is None:
                check(event)
                if self._value is not PENDING:
                    # Decided by an event that had already fired: the
                    # rest could only call a check that ignores them.
                    break
            else:
                callbacks.append(check)

    def _populate_value(self, value: ConditionValue) -> None:
        collected = value.events
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None and event not in collected:
                collected.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count = count = self._count + 1
        if not event._ok:
            # Any failure fails the whole condition.
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, count):
            value = ConditionValue()
            self._populate_value(value)
            self.succeed(value)
        else:
            return
        # Decided: stop listening.  A constituent that has not fired (an
        # RPC deadline about to be retired, say) would otherwise keep
        # this condition, its value and everything that holds alive in a
        # reference cycle only the collector can free.
        check = self._check
        for other in self._events:
            callbacks = other.callbacks
            if callbacks is not None and check in callbacks:
                callbacks.remove(check)

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """True when *all* events have triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """True when *any* event has triggered (vacuously true if none)."""
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Fires when every event in ``events`` has fired."""

    # Without its own __slots__ a subclass of a slotted base regains a
    # per-instance __dict__ — one dict per fan-in event.
    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Fires when the first event in ``events`` fires."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
