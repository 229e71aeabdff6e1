"""Atomic (GRAB-style) strategy with resubmission.

"The only way of dealing with a request failure is to formulate and
resubmit a revised co-allocation request, based on more current
information" (§3.2).  This agent resubmits the whole transaction at
once after each abort, up to ``max_attempts`` submissions in all,
optionally replacing the site blamed for the failure with a fresh
candidate from the information service.  That is the best an atomic
co-allocator can do, and the baseline the application experiments
compare DUROC against.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.broker.base import AgentOutcome
from repro.core.atomic import Grab
from repro.core.request import CoAllocationRequest
from repro.errors import AllocationAborted, RetryExhausted
from repro.mds.directory import Directory
from repro.resilience import RetryEpisode, RetryPolicy


class AtomicAgent:
    """Submit atomically; on failure, restart from scratch."""

    def __init__(
        self,
        grab: Grab,
        max_attempts: int = 3,
        directory: Optional[Directory] = None,
    ) -> None:
        self.grab = grab
        self.policy = RetryPolicy(
            max_attempts=max_attempts, base_delay=0.0, jitter=0.0
        )
        self.directory = directory

    def allocate(self, request: CoAllocationRequest) -> Generator:
        """Generator: run the atomic strategy; returns AgentOutcome."""
        env = self.grab.env
        started = env.now
        outcome = AgentOutcome(success=False)
        current = CoAllocationRequest(list(request))
        blamed: set[str] = set()
        episode = RetryEpisode(env, self.policy, operation="grab.allocate")

        while True:
            outcome.attempts = episode.attempt
            try:
                result = yield from self.grab.allocate(current)
            except AllocationAborted as exc:
                outcome.log.append(f"attempt {episode.attempt} aborted: {exc}")
                revised = self._revise(current, exc, blamed, outcome)
                if revised is None:
                    outcome.failure = f"no replacement candidates: {exc}"
                    break
                current = revised
                try:
                    yield from episode.backoff(exc)
                except RetryExhausted as limit:
                    outcome.failure = str(limit)
                    break
                continue
            episode.succeeded()
            outcome.success = True
            outcome.result = result
            break

        if not outcome.success and outcome.failure is None:
            outcome.failure = outcome.log[-1] if outcome.log else "failed"
        outcome.elapsed = env.now - started
        return outcome

    def _revise(
        self,
        request: CoAllocationRequest,
        cause: AllocationAborted,
        blamed: set[str],
        outcome: AgentOutcome,
    ) -> Optional[CoAllocationRequest]:
        """Build the resubmission, replacing the subjob the abort blamed."""
        failed_idx = cause.subjob
        if (
            failed_idx is None
            or not 0 <= failed_idx < len(request)
            or self.directory is None
        ):
            return CoAllocationRequest(list(request))  # plain retry
        spec = request[failed_idx]
        site_name = spec.contact.split(":")[0]
        blamed.add(site_name)
        candidates = self.directory.select(
            spec.count, k=1,
            exclude=blamed | {s.contact.split(":")[0] for s in request},
        )
        if not candidates:
            return None
        replacement_contact = self.directory.lookup(candidates[0]).contact
        revised = CoAllocationRequest(list(request))
        revised.substitute(failed_idx, spec.retarget(replacement_contact))
        outcome.substitutions += 1
        outcome.log.append(
            f"replaced {spec.contact} with {replacement_contact}"
        )
        return revised
