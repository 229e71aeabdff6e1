"""Resilience: bounded, jittered retries on the simulated clock.

A :class:`RetryPolicy` and its :func:`retrying` executor re-run an
operation that failed transiently; a :class:`Deadline` bounds an
episode.  Everything runs on the simulated clock and draws jitter from
seeded RNG streams, so retried runs stay bit-for-bit reproducible.  See
``docs/RESILIENCE.md`` for the design and
:mod:`repro.resilience.campaign` for the fault-campaign harness built
on top.
"""

from repro.resilience.policy import (
    DEFAULT_RETRY_ON,
    Deadline,
    RetryEpisode,
    RetryPolicy,
    retrying,
)
from repro.resilience.states import AttemptPhase

__all__ = [
    "AttemptPhase",
    "DEFAULT_RETRY_ON",
    "Deadline",
    "RetryEpisode",
    "RetryPolicy",
    "retrying",
]
