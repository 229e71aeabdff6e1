"""First-come-first-served space-sharing scheduler.

The classic production parallel machine policy: a strict FIFO queue;
the head job starts when enough nodes are free; nothing overtakes it.
This is the "local scheduler queue" whose startup delays the paper
notes dwarf wide-area barrier costs on production machines.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.schedulers.base import LocalScheduler, NodeRequest, PendingAllocation
from repro.schedulers.states import QueuePhase


class FcfsScheduler(LocalScheduler):
    """Strict FIFO space sharing."""

    policy = "fcfs"

    def __init__(self, env, nodes: int, memory=None) -> None:
        super().__init__(env, nodes, memory)
        self._queue: Deque[PendingAllocation] = deque()

    def submit(self, request: NodeRequest) -> PendingAllocation:
        from repro.errors import SchedulerError

        if request.count > self.nodes:
            raise SchedulerError(
                f"request for {request.count} nodes exceeds machine size {self.nodes}"
            )
        if (
            request.memory is not None
            and self.memory is not None
            and request.memory > self.memory
        ):
            raise SchedulerError(
                f"request for {request.memory:g} MB exceeds machine memory "
                f"{self.memory:g}"
            )
        request.submitted_at = self.env.now
        pending = PendingAllocation(self, request)
        self._queue.append(pending)
        self._schedule_pass()
        self._observe_occupancy()
        return pending

    def close(self) -> None:
        super().close()
        self._queue.clear()

    def queue_length(self) -> int:
        return len(self._queue)

    def _withdraw(self, pending: PendingAllocation) -> bool:
        try:
            self._queue.remove(pending)
        except ValueError:
            return False
        pending.transition(QueuePhase.WITHDRAWN)
        self._schedule_pass()  # removing the head may unblock others
        self._observe_occupancy()
        return True

    def _schedule_pass(self) -> None:
        while self._queue and self._fits(self._queue[0].request):
            self._grant(self._queue.popleft())

    # -- prediction --------------------------------------------------------

    def estimate_wait(self, count: int) -> float:
        """Plan-based wait estimate for a hypothetical (count,) request.

        Replays the current machine state forward using max_time
        estimates of running and queued jobs.  Jobs with unknown
        max_time are assumed to hold their nodes for the median known
        estimate (or 1 hour if none is known) — predictions are
        heuristic, as §2.2 expects.
        """
        return _plan_wait(self, list(self._queue), count)


#: Fallback runtime estimate when a job declared none.
DEFAULT_RUNTIME_GUESS = 3600.0


def _plan_wait(
    scheduler: LocalScheduler,
    queued: list[PendingAllocation],
    count: int,
) -> float:
    """Simulate FCFS forward to the start time of a hypothetical job."""
    now = scheduler.env.now
    known = [
        lease.request.max_time
        for lease in scheduler.leases
        if lease.request.max_time is not None
    ] + [p.request.max_time for p in queued if p.request.max_time is not None]
    if known:
        known.sort()
        guess = known[len(known) // 2]
    else:
        guess = DEFAULT_RUNTIME_GUESS

    import heapq

    # Min-heap of future release events (time, nodes) from running leases.
    releases: list[tuple[float, int]] = []
    for lease in scheduler.leases:
        runtime = lease.request.max_time or guess
        heapq.heappush(releases, (max(lease.granted_at + runtime, now), lease.count))

    free = scheduler.free
    t = now

    def start(need: int, runtime: Optional[float]) -> Optional[float]:
        """Advance time until ``need`` nodes are free; start the job."""
        nonlocal free, t
        while free < need and releases:
            end, nodes = heapq.heappop(releases)
            t = max(t, end)
            free += nodes
        if free < need:
            return None
        free -= need
        heapq.heappush(releases, (t + (runtime or guess), need))
        return t

    for pending in queued:
        if start(pending.request.count, pending.request.max_time) is None:
            return float("inf")

    # The hypothetical job's own runtime is pushed only after its start
    # is taken, so it cannot move the estimate.
    started = start(count, None)
    if started is None:
        return float("inf")
    return max(0.0, started - now)
