"""Advance reservations.

§2.2 and §5 of the paper argue that "some form of advance reservation
will ultimately be required" for dependable co-allocation.  This
scheduler extends FCFS with a reservation book: a co-allocator can
``reserve(count, start, duration)`` on each machine, then submit subjob
requests bound to the reservation ids; bound requests are guaranteed
their nodes exactly at the reservation start.

Non-reserved (best-effort) jobs are admitted only when running them
cannot intrude on any committed reservation window — the standard
draining rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReservationError
from repro.schedulers.base import NodeRequest
from repro.schedulers.fcfs import DEFAULT_RUNTIME_GUESS, FcfsScheduler
from repro.schedulers.states import QueuePhase


@dataclass(frozen=True)
class Reservation:
    """A committed promise of ``count`` nodes during [start, start+duration)."""

    resv_id: str
    count: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    def overlaps(self, t0: float, t1: float) -> bool:
        return self.start < t1 and t0 < self.end


class ReservationScheduler(FcfsScheduler):
    """FCFS plus an advance-reservation book."""

    policy = "reservation"

    def __init__(self, env, nodes: int, memory=None) -> None:
        super().__init__(env, nodes, memory)
        self._reservations: dict[str, Reservation] = {}
        #: A reservation id is only ever presented to the scheduler that
        #: granted it, so each scheduler numbers its own.
        self._resv_ids = itertools.count(1)

    # -- reservation API ---------------------------------------------------

    def reserve(self, count: int, start: float, duration: float) -> Reservation:
        """Commit a reservation, or raise :class:`ReservationError`.

        Admission control: at every instant of the window, committed
        reservations (including this one) must fit in the machine.
        Best-effort load is not considered — it is drained before the
        window instead.
        """
        if count <= 0 or count > self.nodes:
            raise ReservationError(f"cannot reserve {count} of {self.nodes} nodes")
        if duration <= 0:
            raise ReservationError(f"duration must be positive, got {duration!r}")
        if start < self.env.now:
            raise ReservationError(f"reservation start {start!r} is in the past")
        peak = count + self._max_reserved(start, start + duration)
        if peak > self.nodes:
            raise ReservationError(
                f"window would commit {peak} nodes on a {self.nodes}-node machine"
            )
        resv = Reservation(
            resv_id=f"resv-{next(self._resv_ids)}",
            count=count,
            start=start,
            duration=duration,
        )
        self._reservations[resv.resv_id] = resv
        return resv

    def cancel_reservation(self, resv_id: str) -> None:
        if self._reservations.pop(resv_id, None) is None:
            raise ReservationError(f"unknown reservation {resv_id!r}")
        self._schedule_pass()

    def reservations(self) -> list[Reservation]:
        return list(self._reservations.values())

    def _max_reserved(self, t0: float, t1: float, exclude: Optional[str] = None) -> int:
        """Peak committed node count over [t0, t1)."""
        edges = sorted(
            {t0}
            | {r.start for r in self._reservations.values() if t0 < r.start < t1}
        )
        peak = 0
        for t in edges:
            total = sum(
                r.count
                for r in self._reservations.values()
                if r.resv_id != exclude and r.overlaps(t, t1)
                and r.start <= t < r.end
            )
            peak = max(peak, total)
        return peak

    # -- scheduling --------------------------------------------------------

    def _schedule_pass(self) -> None:
        now = self.env.now
        # Expire stale reservations (their window passed unused).
        for resv_id, resv in list(self._reservations.items()):
            if resv.end <= now:
                del self._reservations[resv_id]

        progressed = True
        while progressed:
            progressed = False
            for idx, pending in enumerate(self._queue):
                req = pending.request
                if not self._fits(req):
                    continue
                if req.reservation_id is not None:
                    resv = self._reservations.get(req.reservation_id)
                    if resv is None:
                        # Window expired or canceled: fail the request.
                        del self._queue[idx]
                        pending.transition(QueuePhase.REFUSED)
                        pending.event.fail(
                            ReservationError(
                                f"reservation {req.reservation_id!r} is not active"
                            )
                        )
                        progressed = True
                        break
                    if resv.start <= now:
                        if req.count > resv.count:
                            del self._queue[idx]
                            pending.transition(QueuePhase.REFUSED)
                            pending.event.fail(
                                ReservationError(
                                    f"request for {req.count} nodes exceeds "
                                    f"reservation of {resv.count}"
                                )
                            )
                        else:
                            del self._queue[idx]
                            self._grant(pending)
                        progressed = True
                        break
                    continue  # window not yet open
                else:
                    if self._admissible_best_effort(req):
                        # FCFS among best-effort jobs: only the first
                        # best-effort entry may start.
                        if self._first_best_effort_index() == idx:
                            del self._queue[idx]
                            self._grant(pending)
                            progressed = True
                            break
        self._wake_reservation_timers()

    def _first_best_effort_index(self) -> int:
        for idx, pending in enumerate(self._queue):
            if pending.request.reservation_id is None:
                return idx
        return -1

    def _admissible_best_effort(self, req: NodeRequest) -> bool:
        """Would starting ``req`` now intrude on a reservation window?

        The job holds ``req.count`` nodes during [now, now+runtime); for
        every instant of that span, running it must leave enough nodes
        for all committed reservations (conservatively assuming other
        running best-effort jobs hold their nodes to their own
        estimates).
        """
        now = self.env.now
        runtime = req.max_time or DEFAULT_RUNTIME_GUESS
        horizon = now + runtime
        for resv in self._reservations.values():
            if not resv.overlaps(now, horizon):
                continue
            # Nodes free at resv.start if we admit req now: current free
            # minus req, plus best-effort leases estimated to end first.
            freed = sum(
                lease.count
                for lease in self.leases
                if lease.request.reservation_id is None
                and (lease.granted_at + (lease.request.max_time or DEFAULT_RUNTIME_GUESS))
                <= resv.start
            )
            committed = self._max_reserved(resv.start, resv.end)
            if self.free - req.count + freed < committed:
                return False
        return True

    def _wake_reservation_timers(self) -> None:
        """Ensure a scheduling pass runs at the next window edge.

        Both edges matter: a window *opening* starts reservation-bound
        requests; a window *closing* unblocks best-effort work that was
        drained around it.
        """
        now = self.env.now
        edges = [
            t
            for resv in self._reservations.values()
            for t in (resv.start, resv.end)
            if t > now
        ]
        if not edges:
            return
        next_edge = min(edges)
        if getattr(self, "_timer_at", None) == next_edge:
            return
        self._timer_at = next_edge

        def timer(env):
            yield env.timeout(next_edge - env.now)
            self._timer_at = None
            self._schedule_pass()

        self.env.process(timer(self.env), name="resv-timer")
