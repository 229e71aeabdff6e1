"""EASY backfill scheduler.

FCFS with conservative-for-the-head backfill: a job further back in the
queue may start out of order only if doing so cannot delay the *head*
job's earliest possible start (the "shadow time").  Requires wall-time
estimates; jobs submitted without ``max_time`` are never backfilled and
never overtaken past their shadow guarantee.

Included because queue-dominated startup is the regime the paper's §2.2
discusses; the reservation experiments compare against both FCFS and
backfill baselines.
"""

from __future__ import annotations

import heapq

from repro.schedulers.fcfs import DEFAULT_RUNTIME_GUESS, FcfsScheduler


class EasyBackfillScheduler(FcfsScheduler):
    """FCFS + EASY backfill."""

    policy = "easy-backfill"

    def _schedule_pass(self) -> None:
        # Start head jobs in order while they fit.
        while self._queue and self._fits(self._queue[0].request):
            self._grant(self._queue.popleft())
        if not self._queue:
            return

        # Head does not fit: compute its shadow start and spare nodes.
        shadow_time, spare_at_shadow = self._shadow()
        now = self.env.now

        idx = 0
        while idx < len(self._queue):
            if idx == 0:
                idx += 1
                continue  # the head itself cannot be backfilled
            pending = self._queue[idx]
            req = pending.request
            if not self._fits(req):
                idx += 1
                continue
            runtime = req.max_time
            fits_before_shadow = (
                runtime is not None and now + runtime <= shadow_time
            )
            fits_beside_head = req.count <= spare_at_shadow
            if fits_before_shadow or fits_beside_head:
                del self._queue[idx]
                self._grant(pending)
                if not fits_before_shadow:
                    # The job persists past the shadow: it consumes spare.
                    spare_at_shadow -= req.count
                # Granting changed free; re-examine from the top in case
                # the head now fits (it cannot, free only shrank) — just
                # continue scanning from the same index.
            else:
                idx += 1

    def _shadow(self) -> tuple[float, int]:
        """(earliest start time of the head job, spare nodes at that time)."""
        head = self._queue[0].request
        free = self.free
        if head.count <= free:
            return self.env.now, free - head.count

        releases: list[tuple[float, int]] = []
        for lease in self.leases:
            runtime = lease.request.max_time or DEFAULT_RUNTIME_GUESS
            heapq.heappush(
                releases, (max(lease.granted_at + runtime, self.env.now), lease.count)
            )
        t = self.env.now
        while free < head.count and releases:
            end, nodes = heapq.heappop(releases)
            t = max(t, end)
            free += nodes
        if free < head.count:  # pragma: no cover - submit() bounds count
            return float("inf"), 0
        return t, free - head.count
