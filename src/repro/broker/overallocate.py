"""Over-allocation strategy.

§3.2: "one may be able to decrease allocation time by requesting
several alternative resources simultaneously and committing to the
first that becomes available."  This agent requests more interactive
worker subjobs than needed, waits until ``needed`` of them have checked
in, deletes the stragglers, and commits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Sequence

from repro.broker.base import AgentOutcome
from repro.core.coallocator import Duroc
from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
from repro.core.states import SubjobState
from repro.errors import AllocationAborted


class OverAllocatingAgent:
    """Ask for ``len(workers)`` alternatives, keep the first ``needed``."""

    def __init__(self, duroc: Duroc, needed: int) -> None:
        if needed < 1:
            raise ValueError("needed must be at least 1")
        self.duroc = duroc
        self.needed = needed

    def allocate(
        self,
        anchors: Sequence[SubjobSpec],
        workers: Sequence[SubjobSpec],
    ) -> Generator:
        """Generator: anchors are required; workers are raced.

        Returns an AgentOutcome whose result contains the anchors plus
        the first ``needed`` worker subjobs to check in.
        """
        if len(workers) < self.needed:
            raise ValueError(
                f"cannot pick {self.needed} of {len(workers)} worker subjobs"
            )
        env = self.duroc.env
        started = env.now
        outcome = AgentOutcome(success=False)

        request = CoAllocationRequest(list(anchors))
        worker_slots = []
        job = self.duroc.submit(request)
        for spec in workers:
            if spec.start_type is not SubjobType.INTERACTIVE:
                spec = replace(spec, start_type=SubjobType.INTERACTIVE)
            worker_slots.append(job.add(spec))

        def enough(job) -> bool:
            ready = [
                s for s in worker_slots if s.state is SubjobState.CHECKED_IN
            ]
            still_possible = [s for s in worker_slots if s.state.live]
            return len(ready) >= self.needed or len(still_possible) < self.needed

        try:
            yield from job.wait(enough)
            ready = [s for s in worker_slots if s.state is SubjobState.CHECKED_IN]
            ready.sort(key=lambda s: s.checked_in_at)  # first to arrive wins
            if len(ready) < self.needed:
                job.kill("not enough worker subjobs survived")
                raise AllocationAborted("not enough worker subjobs survived")
            # "terminate subjobs that have not yet responded to the
            # request prior to committing the configuration".
            keep = set(id(s) for s in ready[: self.needed])
            for slot in worker_slots:
                if slot.state.live and id(slot) not in keep:
                    job.delete(slot)
                    outcome.dropped += 1
            result = yield from job.commit()
        except AllocationAborted as exc:
            outcome.failure = str(exc)
            outcome.elapsed = env.now - started
            return outcome
        outcome.success = True
        outcome.result = result
        outcome.elapsed = env.now - started
        return outcome
