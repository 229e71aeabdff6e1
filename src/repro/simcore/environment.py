"""The discrete-event execution environment.

:class:`Environment` owns simulated time and the one pending-event
queue: a compacting binary heap of ``(time, priority, sequence, event)``
entries that ``schedule()`` pushes and ``step()`` pops directly (see
DESIGN.md §7).  ``run()`` pops events in (time, priority, sequence)
order and invokes their callbacks; processes resume as callbacks of the
events they wait on.  Time only advances between events — callbacks
execute atomically at one instant, which gives the deterministic
interleaving the co-allocation protocol tests rely on.

A finished world ends with ``close()``: it closes every process still
suspended and drops the queue, so what the world built is freed by
reference counting alone (DESIGN.md §7).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.errors import SimulationError
from repro.simcore.events import (
    AllOf,
    Event,
    NORMAL,
    Timeout,
)
from repro.simcore.process import Process, ProcessGenerator
from repro.simcore.resources import _Deadline
from repro.simcore.tracing import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.probe import Probe

#: Sentinel "infinite" horizon for run().
FOREVER = float("inf")

#: Queue length below which compaction is never attempted.
_COMPACT_MIN = 128


class EmptySchedule(SimulationError):
    """Internal signal: the event queue is exhausted."""


class _StopSimulation(BaseException):
    """Internal control-flow exception that ends :meth:`Environment.run`."""

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value


class QueueView:
    """Read-only window on an environment's pending-event heap.

    ``len(view)`` is the **raw size** — resident entries including
    cancelled ones not yet discarded, which is what occupies memory and
    what the high-water gates count; ``stats()["live_size"]`` counts
    only the entries that will still fire.
    """

    __slots__ = ("_env",)

    def __init__(self, env: "Environment") -> None:
        self._env = env

    def __len__(self) -> int:
        return len(self._env._heap)

    def stats(self) -> dict[str, float]:
        """Deterministic gauges: ``pushes``, ``pops``, ``discards``
        (cancelled entries dropped), ``compactions``, ``high_water``
        (peak raw size), ``size`` and ``live_size`` (current).

        Every pushed entry is resident, was popped live, or was
        discarded, so ``pops`` is derived from the sequence counter the
        kernel keeps anyway instead of being counted per event.
        """
        env = self._env
        size = len(env._heap)
        return {
            "pushes": float(env._eid),
            "pops": float(env._eid - env._discards - size),
            "discards": float(env._discards),
            "compactions": float(env._compactions),
            "high_water": float(env._high_water),
            "size": float(size),
            "live_size": float(env.live_size),
        }

    def __repr__(self) -> str:
        env = self._env
        return f"<QueueView size={len(env._heap)} high_water={env._high_water}>"


class Environment:
    """Container for simulated time, the event queue, and factories.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds).
    compact_cancelled:
        Periodically drop cancelled events from the queue instead of
        carrying them until their scheduled time.  Pop order is
        unaffected — entries are totally ordered by their unique
        (time, priority, sequence) key, so the surviving multiset
        reproduces the exact same pop sequence — but the queue
        high-water mark shrinks by orders of magnitude under timer
        churn (schedule a watchdog, cancel it, repeat).  Only tests
        turn it off, to check that compaction changes no pop order and
        to see the queue it saves.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        compact_cancelled: bool = True,
    ) -> None:
        self._now = float(initial_time)
        #: Pending ``(time, priority, sequence, event)`` entries.  The
        #: first three fields are a unique, totally ordering key, so
        #: comparisons never reach the (incomparable) event object.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._auto_compact = bool(compact_cancelled)
        #: Raw size above which the next push compacts; doubles with
        #: the live population so a mostly-live queue is never
        #: rescanned per push.
        self._compact_floor = _COMPACT_MIN
        self._discards = 0
        self._compactions = 0
        self._high_water = 0
        #: Sequence number of the last scheduled event (= pushes).
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Processes whose generator has not finished, in creation
        #: order (a dict used as an ordered set): ``Process`` adds
        #: itself, and its last resume removes it.
        self._processes: dict[Process, None] = {}
        self._closed = False
        #: Runtime-verification probe (see :mod:`repro.simcore.probe`);
        #: None means every instrumentation hook is a no-op.
        self.probe: "Optional[Probe]" = None
        #: The one handle instrumented code needs: spans and marks go to
        #: ``env.tracer``, metrics to ``env.tracer.metrics``.  Components
        #: read it when they are constructed, so install a real
        #: :class:`~repro.simcore.tracing.Tracer` first (``GridBuilder``
        #: does); the default drops everything.
        self.tracer: Tracer = NULL_TRACER

    # -- time & introspection ---------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def queue(self) -> QueueView:
        """Size and gauges of the pending-event heap."""
        return QueueView(self)

    def peek(self) -> float:
        """Time of the next scheduled live event (``inf`` if none)."""
        heap = self._heap
        while heap:
            head = heap[0]
            if not head[3].cancelled:
                return head[0]
            heappop(heap)
            self._discards += 1
        return FOREVER

    @property
    def queue_size(self) -> int:
        """Raw scheduled entries still resident, **including** cancelled
        events that have not been discarded yet.  This is the number
        that occupies memory — the heap high-water CI gate counts it —
        not the number of events that will still fire; see
        :attr:`live_size` for the latter."""
        return len(self._heap)

    @property
    def live_size(self) -> int:
        """Scheduled-but-not-cancelled events (O(queue) scan).

        The observability gauge: cancelled timers awaiting discard are
        excluded.  Computed by scanning the resident entries, so read
        it at sampling granularity, not per event.
        """
        count = 0
        for entry in self._heap:
            if not entry[3].cancelled:
                count += 1
        return count

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify (amortized O(1)/event).

        Every entry carries a unique (time, priority, sequence) key, so
        the heap order is total and heapifying the surviving entries
        yields the identical pop sequence the lazy-deletion heap would
        have produced — byte-identical traces, smaller high-water mark.
        """
        heap = self._heap
        live = [entry for entry in heap if not entry[3].cancelled]
        if len(live) < len(heap):
            self._discards += len(heap) - len(live)
            self._compactions += 1
            heapify(live)
            self._heap = live
        self._compact_floor = max(_COMPACT_MIN, 2 * len(live))

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed after ``delay`` seconds."""
        if not delay >= 0:  # also refuses NaN, which every comparison fails
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        self._eid = eid = self._eid + 1
        when = self._now + delay
        heap = self._heap
        heappush(heap, (when, priority, eid, event))
        size = len(heap)
        if size > self._compact_floor and self._auto_compact:
            self.compact()
            size = len(self._heap)
        if size > self._high_water:
            self._high_water = size
        probe = self.probe
        if probe is not None:
            probe.on_schedule(when, size)

    def step(self) -> None:
        """Process the single next event, advancing the clock to it.

        Cancelled events are discarded without advancing the clock, so
        retired timers never prolong a simulation.
        """
        heap = self._heap
        try:
            while True:
                when, _, _, event = heappop(heap)
                if not event.cancelled:
                    break
                self._discards += 1
        except IndexError:
            raise EmptySchedule("event queue is empty") from None
        self._now = when
        probe = self.probe
        if probe is not None:
            probe.on_step(when)

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure: surface it to the caller of run().
            exc = event._value
            if self.probe is not None:
                self.probe.event(
                    "kernel",
                    "process.unhandled",
                    {"error": type(exc).__name__, "message": str(exc)},
                )
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until it is processed, returning its
          value (or raising its exception).
        """
        if self._closed:
            raise SimulationError("the environment is closed")
        stop: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                # Already processed.
                if stop._ok:
                    return stop.value
                raise stop.value
            stop.callbacks.append(self._stop_callback)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"until={horizon!r} is in the past (now={self._now!r})"
                )
            stop = Event(self)
            stop._ok = True
            stop._value = None
            stop.callbacks.append(self._stop_callback)
            self.schedule(stop, priority=NORMAL + 1, delay=horizon - self._now)

        try:
            step = self.step
            while True:
                step()
        except _StopSimulation as signal:
            return signal.value
        except EmptySchedule:
            if stop is not None and stop.callbacks is not None:
                if isinstance(until, Event):
                    raise SimulationError(
                        "run() ran out of events before the awaited event fired"
                    ) from None
            return None

    def close(self) -> None:
        """End the simulated world; :meth:`run` refuses to resume it.

        The tracer and the probe are detached first; they keep what
        they recorded for whoever holds them.  Every live process then
        has its generator closed where it waits, in creation order, so
        each ``finally`` block runs exactly once; a receive it waits on
        is withdrawn from its store.  Last, every pending timed receive
        is withdrawn and unlinked from its deadline, every queued
        event drops its callbacks, and the queue is dropped.
        Suspended processes, queued timers and observers each point
        back at the environment; once those links are gone a dropped
        world is freed by reference counting, without the cycle
        collector.  Idempotent; closing from inside a process is an
        error.
        """
        if self._closed:
            return
        if self._active_process is not None:
            raise SimulationError("a process cannot close its environment")
        self._closed = True
        # Observers keep what they recorded and hear nothing of the end.
        self.tracer = NULL_TRACER
        self.probe = None
        # A finally block may start a process; it is closed in turn.
        while self._processes:
            processes, self._processes = self._processes, {}
            for process in processes:
                process._close()
        for entry in self._heap:
            event = entry[3]
            if type(event) is _Deadline and event.request is not None:
                event.request.resource._withdraw(event.request)
            # A timer's callback is often a method of whatever holds
            # the timer: a cycle the dropped queue would not break.
            event.callbacks = None
        self._heap = []

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise _StopSimulation(event.value)
        # The awaited event failed: propagate its exception out of run().
        event.defused = True
        raise event.value

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once all of ``events`` have fired."""
        return AllOf(self, events)

    def __repr__(self) -> str:
        return f"<Environment now={self._now!r} queued={self.queue_size}>"
