"""Local scheduler interface.

Every machine is fronted by a *local resource manager* whose scheduling
policy the Grid does not control (paper §2.2): some fork immediately,
some space-share with a queue, some support advance reservations.  This
module defines the request/lease vocabulary shared by all policies.

The conservation invariant every implementation must maintain (and the
property tests verify): at any instant, the sum of node counts of
outstanding leases never exceeds the machine's node count — except for
:class:`~repro.schedulers.fork.ForkScheduler`, which models a
timesharing system with no admission control.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import SchedulerError
from repro.schedulers.states import QueuePhase, check_queue_transition
from repro.simcore.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment

_req_ids = itertools.count(1)


@dataclass
class NodeRequest:
    """A request for ``count`` nodes.

    ``max_time`` is the user's wall-time estimate (used by backfill and
    wait prediction, and trusted the way batch schedulers trust it:
    not at all for correctness, only for planning).  ``reservation_id``
    attaches the request to a previously granted advance reservation.
    """

    count: int
    max_time: Optional[float] = None
    job_id: str = ""
    reservation_id: Optional[str] = None
    #: Total memory (MB) the job needs from the machine's shared pool —
    #: the §2.1 "processors and memory" heterogeneous resource set that
    #: NQE/PBS-style managers co-allocate within one machine.
    memory: Optional[float] = None
    req_id: int = field(default_factory=lambda: next(_req_ids))
    submitted_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise SchedulerError(f"count must be positive, got {self.count!r}")
        if self.max_time is not None and self.max_time <= 0:
            raise SchedulerError(f"max_time must be positive, got {self.max_time!r}")
        if self.memory is not None and self.memory <= 0:
            raise SchedulerError(f"memory must be positive, got {self.memory!r}")


class Lease:
    """Granted nodes.  Call :meth:`release` exactly once when done."""

    def __init__(self, scheduler: "LocalScheduler", request: NodeRequest) -> None:
        self.scheduler = scheduler
        self.request = request
        self.granted_at = scheduler.env.now
        self.released = False

    @property
    def count(self) -> int:
        return self.request.count

    def release(self) -> None:
        if self.released:
            raise SchedulerError("lease already released")
        self.released = True
        self.scheduler._on_release(self)

    def __repr__(self) -> str:
        state = "released" if self.released else "held"
        return f"<Lease {self.count} nodes job={self.request.job_id!r} {state}>"


class PendingAllocation:
    """Handle for a submitted request.

    ``event`` fires with the :class:`Lease` once nodes are assigned.
    ``cancel()`` withdraws a still-queued request (returns False if the
    lease was already granted).
    """

    def __init__(self, scheduler: "LocalScheduler", request: NodeRequest) -> None:
        self.scheduler = scheduler
        self.request = request
        self.event: Event = scheduler.env.event()
        self.state = QueuePhase.QUEUED

    def transition(self, new: QueuePhase) -> None:
        check_queue_transition(self.state, new)
        self.state = new

    @property
    def granted(self) -> bool:
        return self.event.triggered

    def cancel(self) -> bool:
        if self.granted:
            return False
        return self.scheduler._withdraw(self)

    def __repr__(self) -> str:
        return f"<PendingAllocation job={self.request.job_id!r} granted={self.granted}>"


class LocalScheduler:
    """Base class: node accounting for one machine."""

    #: Policy name published to the information service.
    policy = "abstract"

    def __init__(
        self,
        env: "Environment",
        nodes: int,
        memory: Optional[float] = None,
    ) -> None:
        if nodes <= 0:
            raise SchedulerError(f"nodes must be positive, got {nodes!r}")
        if memory is not None and memory <= 0:
            raise SchedulerError(f"memory must be positive, got {memory!r}")
        self.env = env
        self.nodes = int(nodes)
        self.free = int(nodes)
        #: Shared memory pool in MB (None = not memory-managed).
        self.memory = memory
        self.free_memory = memory if memory is not None else float("inf")
        self.leases: list[Lease] = []
        #: History of (submitted_at, granted_at, count) for prediction.
        self.history: list[tuple[float, float, int]] = []
        self.metrics = env.tracer.metrics
        self.site = ""

    @property
    def site(self) -> str:
        """Site label on this scheduler's metrics, set by the owning Site."""
        return self._site

    @site.setter
    def site(self, name: str) -> None:
        # The label is fixed from here on: bind the three series once (a
        # handle asks for its instrument on its first write).
        self._site = name
        metrics = self.metrics
        self._m_queue_wait = metrics.bind(
            "histogram", "sched.queue_wait_seconds", site=name, policy=self.policy
        )
        self._m_nodes_busy = metrics.bind("gauge", "sched.nodes_busy", site=name)
        self._m_queue_length = metrics.bind("gauge", "sched.queue_length", site=name)

    # -- API ------------------------------------------------------------------

    def submit(self, request: NodeRequest) -> PendingAllocation:
        """Queue a request; the returned handle's event fires with a Lease."""
        raise NotImplementedError

    def queue_length(self) -> int:
        """Number of requests waiting (not yet granted)."""
        raise NotImplementedError

    def estimate_wait(self, count: int, max_time: Optional[float] = None) -> float:
        """Predicted queue wait in seconds for a hypothetical request."""
        raise NotImplementedError

    # -- shared bookkeeping -----------------------------------------------------

    def _fits(self, request: NodeRequest) -> bool:
        """Do both resource dimensions fit right now?"""
        if request.count > self.free:
            return False
        if request.memory is not None and request.memory > self.free_memory:
            return False
        return True

    def _grant(self, pending: PendingAllocation) -> Lease:
        request = pending.request
        if request.count > self.free:
            raise SchedulerError(
                f"grant of {request.count} nodes with only {self.free} free"
            )
        if request.memory is not None:
            if request.memory > self.free_memory:
                raise SchedulerError(
                    f"grant of {request.memory:g} MB with only "
                    f"{self.free_memory:g} free"
                )
            self.free_memory -= request.memory
        self.free -= request.count
        lease = Lease(self, request)
        self.leases.append(lease)
        if request.submitted_at is not None:
            self.history.append(
                (request.submitted_at, self.env.now, request.count)
            )
            self._m_queue_wait.observe(self.env.now - request.submitted_at)
        pending.transition(QueuePhase.GRANTED)
        pending.event.succeed(lease)
        self._observe_occupancy()
        return lease

    def _on_release(self, lease: Lease) -> None:
        self.leases.remove(lease)
        self.free += lease.count
        if lease.request.memory is not None:
            self.free_memory += lease.request.memory
        self._observe_occupancy()
        self._schedule_pass()

    def _withdraw(self, pending: PendingAllocation) -> bool:
        raise NotImplementedError

    def _schedule_pass(self) -> None:
        """Re-examine the queue after state changes."""
        raise NotImplementedError

    def _observe_occupancy(self) -> None:
        """Refresh the busy-nodes and queue-depth gauges for this site."""
        self._m_nodes_busy.set(self.busy)
        self._m_queue_length.set(self.queue_length())

    @property
    def busy(self) -> int:
        return self.nodes - self.free

    def utilization(self) -> float:
        return self.busy / self.nodes
