"""Interactive (DUROC-style) strategy: substitute around failures.

The paper's motivating scenario made concrete: required subjobs anchor
the computation; interactive subjobs that fail or time out are replaced
from a pool of spare resources (located via the information service or
provided explicitly); if spares run out the subjob is simply dropped —
"proceed with just four systems, at a decreased level of simulation
fidelity".
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.broker.base import AgentOutcome
from repro.core.coallocator import Duroc, DurocJob, SubjobSlot
from repro.core.request import CoAllocationRequest
from repro.errors import AllocationAborted
from repro.mds.directory import Directory


class InteractiveAgent:
    """Submit once; configure around failures via substitution."""

    def __init__(
        self,
        duroc: Duroc,
        spares: Optional[Sequence[str]] = None,
        directory: Optional[Directory] = None,
        max_substitutions_per_subjob: int = 3,
    ) -> None:
        if max_substitutions_per_subjob < 0:
            raise ValueError(
                "max_substitutions_per_subjob must be >= 0, "
                f"got {max_substitutions_per_subjob!r}"
            )
        self.duroc = duroc
        self.spares = list(spares or [])
        self.directory = directory
        #: Replacements allowed along one subjob's lineage (the original
        #: placement and every substitute that took its place).
        self.max_substitutions_per_subjob = max_substitutions_per_subjob

    def allocate(self, request: CoAllocationRequest) -> Generator:
        """Generator: run the interactive strategy; returns AgentOutcome."""
        env = self.duroc.env
        started = env.now
        outcome = AgentOutcome(success=False)
        used: set[str] = {spec.contact for spec in request}
        substitution_counts: dict[int, int] = {}

        job = self.duroc.submit(request)

        def handler(job: DurocJob, slot: SubjobSlot, notification) -> None:
            lineage = substitution_counts.get(slot.index, 0)
            if lineage >= self.max_substitutions_per_subjob:
                outcome.dropped += 1
                outcome.log.append(
                    f"subjob {slot.index} dropped (substitution limit)"
                )
                return
            replacement = self._next_spare(slot, used)
            if replacement is None:
                outcome.dropped += 1
                outcome.log.append(
                    f"subjob {slot.index} dropped (no spare for {slot.spec.contact})"
                )
                return
            used.add(replacement)
            new_slot = job.substitute(slot, slot.spec.retarget(replacement))
            substitution_counts[new_slot.index] = lineage + 1
            outcome.substitutions += 1
            outcome.log.append(
                f"subjob {slot.index}: {slot.spec.contact} -> {replacement}"
            )

        job.set_interactive_handler(handler)
        try:
            result = yield from job.commit()
        except AllocationAborted as exc:
            outcome.failure = str(exc)
            outcome.elapsed = env.now - started
            return outcome
        outcome.success = True
        outcome.result = result
        outcome.elapsed = env.now - started
        return outcome

    def _next_spare(self, slot: SubjobSlot, used: set[str]) -> Optional[str]:
        """Pick a replacement contact not yet used by this request."""
        for contact in self.spares:
            if contact not in used:
                return contact
        if self.directory is not None:
            used_sites = {c.split(":")[0] for c in used}
            names = self.directory.select(
                slot.spec.count, k=1, exclude=used_sites
            )
            if names:
                return self.directory.lookup(names[0]).contact
        return None
