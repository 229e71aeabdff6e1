"""The lifecycle table of the resilience layer.

:class:`AttemptPhase` is one *retry episode* (a logical operation and
all its attempts), declared as a literal transition table so the
``sm-*`` static checker (:mod:`repro.analysis.statemachine`) can verify
every mutation site.  The episode is RUNNING while an attempt is in
flight, BACKING_OFF between attempts, and ends exactly once: SUCCEEDED
when an attempt returns, EXHAUSTED when the policy's attempt cap or
deadline cuts it off.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import ResilienceError


class AttemptPhase(str, Enum):
    """Lifecycle of one retry episode."""

    #: An attempt is in flight.
    RUNNING = "running"
    #: The previous attempt failed; sleeping out the backoff delay.
    BACKING_OFF = "backing_off"
    #: An attempt completed; the episode is over.
    SUCCEEDED = "succeeded"
    #: Attempt cap or deadline reached without success.
    EXHAUSTED = "exhausted"

    @property
    def terminal(self) -> bool:
        return self in (AttemptPhase.SUCCEEDED, AttemptPhase.EXHAUSTED)


ATTEMPT_TRANSITIONS: dict[AttemptPhase, frozenset[AttemptPhase]] = {
    AttemptPhase.RUNNING: frozenset(
        {AttemptPhase.BACKING_OFF, AttemptPhase.SUCCEEDED, AttemptPhase.EXHAUSTED}
    ),
    AttemptPhase.BACKING_OFF: frozenset(
        {AttemptPhase.RUNNING, AttemptPhase.EXHAUSTED}
    ),
    AttemptPhase.SUCCEEDED: frozenset(),
    AttemptPhase.EXHAUSTED: frozenset(),
}


def check_attempt_transition(current: AttemptPhase, new: AttemptPhase) -> None:
    if new not in ATTEMPT_TRANSITIONS[current]:
        raise ResilienceError(
            f"illegal retry-episode transition {current.value} -> {new.value}"
        )
