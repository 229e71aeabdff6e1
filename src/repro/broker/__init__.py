"""Co-allocation agents: application-specific strategies over the mechanisms."""

from repro.broker.atomic_agent import AtomicAgent
from repro.broker.base import AgentOutcome
from repro.broker.coreserve import CoReservationAgent
from repro.broker.interactive_agent import InteractiveAgent
from repro.broker.overallocate import OverAllocatingAgent

__all__ = [
    "AgentOutcome",
    "AtomicAgent",
    "CoReservationAgent",
    "InteractiveAgent",
    "OverAllocatingAgent",
]
