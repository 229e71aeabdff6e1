"""Fork-mode "scheduler": immediate start, no admission control.

This models the configuration of the paper's microbenchmarks: "To
eliminate any source of queuing delay, GRAM was configured to respond
to allocation requests by immediately 'forking' the requested number of
processes."  A timesharing host can always fork more processes, so
requests are granted instantly and ``free`` may go negative — it tracks
oversubscription rather than enforcing a limit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.schedulers.base import Lease, LocalScheduler, NodeRequest, PendingAllocation
from repro.schedulers.states import QueuePhase

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment


class ForkScheduler(LocalScheduler):
    """Grants every request immediately (timesharing semantics)."""

    policy = "fork"

    def submit(self, request: NodeRequest) -> PendingAllocation:
        request.submitted_at = self.env.now
        pending = PendingAllocation(self, request)
        # Bypass _grant's capacity check: fork mode oversubscribes.
        self.free -= request.count
        lease = Lease(self, request)
        self.leases.append(lease)
        self.history.append((self.env.now, self.env.now, request.count))
        self._m_queue_wait.observe(0.0)
        pending.transition(QueuePhase.GRANTED)
        pending.event.succeed(lease)
        self._observe_occupancy()
        return pending

    def queue_length(self) -> int:
        return 0

    def estimate_wait(self, count: int, max_time: Optional[float] = None) -> float:
        return 0.0

    def _withdraw(self, pending: PendingAllocation) -> bool:
        return False  # nothing is ever queued

    def _schedule_pass(self) -> None:
        pass
