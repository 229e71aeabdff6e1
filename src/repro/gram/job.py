"""Job records and contacts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.gram.states import JobState, check_transition
from repro.net.address import Endpoint


@dataclass
class Job:
    """Server-side job record owned by a job manager."""

    job_id: str
    site: str
    count: int
    executable: str
    arguments: tuple[Any, ...] = ()
    params: dict[str, Any] = field(default_factory=dict)
    max_time: Optional[float] = None
    min_memory: Optional[float] = None
    reservation_id: Optional[str] = None
    state: JobState = JobState.UNSUBMITTED
    failure_reason: Optional[str] = None
    submitted_at: Optional[float] = None
    active_at: Optional[float] = None
    finished_at: Optional[float] = None
    pids: list[int] = field(default_factory=list)
    #: The client's submission id, when it sent one: the gatekeeper's
    #: dedup key, dropped together with the job.
    submission_id: Optional[str] = None

    def transition(self, new: JobState, now: float, reason: Optional[str] = None) -> None:
        """Apply a checked state transition with timestamping."""
        check_transition(self.state, new)
        self.state = new
        if new is JobState.PENDING:
            self.submitted_at = now
        elif new is JobState.ACTIVE and self.active_at is None:
            self.active_at = now
        elif new.terminal:
            self.finished_at = now
        if reason is not None:
            self.failure_reason = reason


@dataclass(frozen=True)
class JobContact:
    """Client-side handle: where to reach the job manager for a job."""

    job_id: str
    manager: Endpoint

    def __str__(self) -> str:
        return f"{self.manager}/{self.job_id}"
