"""Local scheduling policies: fork, FCFS, EASY backfill, reservations."""

from repro.schedulers.backfill import EasyBackfillScheduler
from repro.schedulers.base import (
    Lease,
    LocalScheduler,
    NodeRequest,
    PendingAllocation,
)
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.fork import ForkScheduler
from repro.schedulers.reservation import Reservation, ReservationScheduler

__all__ = [
    "EasyBackfillScheduler",
    "FcfsScheduler",
    "ForkScheduler",
    "Lease",
    "LocalScheduler",
    "NodeRequest",
    "PendingAllocation",
    "Reservation",
    "ReservationScheduler",
]
