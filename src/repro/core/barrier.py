"""The distributed two-phase-commit barrier (§3.2).

Phase one: every spawned process performs its local startup checks and
*checks in*, reporting success or failure, then blocks.  Phase two: the
co-allocator decides; on commit, waiting processes are *released* with
the final configuration; on abort, they are told to terminate.

The :class:`BarrierManager` is the co-allocator-side bookkeeping:
per-slot check-in tables, release/abort message fan-out, and
configuration assembly.  Check-ins are keyed by *slot id* (unique per
submission attempt), so messages from a substituted-away subjob's
processes can never corrupt its replacement's barrier accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.bounded import BoundedDict
from repro.core.config import DurocConfig
from repro.errors import HostDown
from repro.net.address import Endpoint
from repro.net.transport import Port
from repro.simcore.probe import record_access

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment

#: Message kinds of the barrier protocol.
CHECKIN = "duroc.checkin"
RELEASE = "duroc.release"
ABORT = "duroc.abort"

#: Bound on stored release payloads.  A base is only re-read while some
#: process of its slot may still retransmit a check-in (its RELEASE was
#: lost) — a window far smaller than this; an evicted slot's straggler
#: falls back to the GRAM-level cancel path.
RELEASE_BASE_MAX = 1024


@dataclass(frozen=True)
class Checkin:
    """One process's arrival at the barrier."""

    slot_id: int
    rank: int
    ok: bool
    reason: Optional[str]
    endpoint: Endpoint
    time: float


class BarrierTable:
    """Check-in accounting for one slot (one subjob attempt)."""

    def __init__(self, slot_id: int, count: int) -> None:
        self.slot_id = slot_id
        self.count = count
        self.checkins: dict[int, Checkin] = {}

    def record(self, checkin: Checkin) -> bool:
        """Store a check-in; returns True the first time a rank arrives."""
        if checkin.rank in self.checkins:
            return False
        # Bounded by construction: at most ``count`` ranks check in
        # (the spawner created exactly count processes) and the table
        # itself is dropped on retire.
        self.checkins[checkin.rank] = checkin  # repro: noqa mem-grow-only-attr
        return True

    @property
    def arrived(self) -> int:
        return len(self.checkins)

    @property
    def complete(self) -> bool:
        """All processes arrived (successfully or not)."""
        return self.arrived >= self.count

    @property
    def all_ok(self) -> bool:
        return self.complete and all(c.ok for c in self.checkins.values())

    def failures(self) -> list[Checkin]:
        return [c for c in self.checkins.values() if not c.ok]


class BarrierManager:
    """Release/abort fan-out and configuration assembly."""

    def __init__(
        self,
        env: "Environment",
        port: Port,
    ) -> None:
        self.env = env
        self.port = port
        metrics = env.tracer.metrics
        self._m_waiting = metrics.bind("gauge", "duroc.barrier_waiting")
        self._m_wait = metrics.bind("histogram", "duroc.barrier_wait_seconds")
        self.tables: dict[int, BarrierTable] = {}
        #: (slot_id, rank) -> release time, for barrier-wait statistics
        #: (§4.2).  Bounded by the request's own process count: one
        #: manager exists per DurocJob, and barrier_waits() reads every
        #: entry, so releases are retained for the job's lifetime.
        self.release_times: dict[tuple[int, int], float] = {}
        #: slot_id -> released base payload, kept so retransmitted
        #: check-ins (the process's RELEASE was lost) can be answered;
        #: LRU-bounded and dropped when the slot's table is discarded.
        self._release_base: BoundedDict[int, dict] = BoundedDict(
            RELEASE_BASE_MAX
        )

    def open_table(self, slot_id: int, count: int) -> BarrierTable:
        table = BarrierTable(slot_id, count)
        self.tables[slot_id] = table
        return table

    def discard_table(self, slot_id: int) -> None:
        if slot_id in self.tables:
            record_access(
                self.env, str(self.port.endpoint),
                f"barrier:{slot_id}", "w", op="discard",
            )
        self.tables.pop(slot_id, None)
        # Only pre-release slots are ever discarded (delete() requires
        # an editable request state), so no resend can miss this base.
        self._release_base.pop(slot_id, None)

    def record(self, checkin: Checkin) -> Optional[BarrierTable]:
        """Record a check-in; returns the table, or None if unknown slot."""
        table = self.tables.get(checkin.slot_id)
        if table is None:
            return None
        applied = table.record(checkin)
        record_access(
            self.env, str(self.port.endpoint),
            f"barrier:{checkin.slot_id}", "w",
            op="record", rank=checkin.rank, applied=applied,
        )
        if applied:
            self._m_waiting.inc()
        return table

    # -- fan-out ------------------------------------------------------------

    def build_config(self, slot_ids: list[int]) -> dict[int, dict]:
        """Assemble per-slot base configuration for released slots.

        Returns {slot_id: base payload}; per-process fields are filled
        at send time.
        """
        sizes = tuple(self.tables[sid].count for sid in slot_ids)
        addresses: dict[tuple[int, int], Endpoint] = {}
        for position, sid in enumerate(slot_ids):
            for rank, checkin in self.tables[sid].checkins.items():
                addresses[(position, rank)] = checkin.endpoint
        return {
            sid: {
                "sizes": sizes,
                "my_subjob": position,
                "addresses": addresses,
            }
            for position, sid in enumerate(slot_ids)
        }

    def release_slot(self, slot_id: int, base: dict) -> int:
        """Send the release message to every process of one slot."""
        table = self.tables[slot_id]
        self._release_base[slot_id] = base
        record_access(
            self.env, str(self.port.endpoint),
            f"barrier:{slot_id}", "w", op="release",
        )
        released = 0
        for rank, checkin in sorted(table.checkins.items()):
            if not checkin.ok:
                continue
            payload = dict(base, my_rank=rank)
            self._send(checkin.endpoint, RELEASE, payload)
            # Audited: one entry per released process of this job; the
            # §4.2 statistics read every entry for the manager's
            # lifetime.
            self.release_times[  # repro: noqa mem-grow-only-attr
                (slot_id, rank)
            ] = self.env.now
            self._m_waiting.dec()
            self._m_wait.observe(self.env.now - checkin.time)
            released += 1
        return released

    def resend_release(self, checkin: Checkin) -> bool:
        """Answer a retransmitted check-in from an already-released slot.

        The original RELEASE was lost in flight; send the stored
        configuration again (idempotent at the receiver: the process is
        still blocked at the barrier).
        """
        base = self._release_base.get(checkin.slot_id)
        if base is None:
            return False
        record_access(
            self.env, str(self.port.endpoint),
            f"barrier:{checkin.slot_id}", "r",
            op="resend_release", rank=checkin.rank,
        )
        self._send(checkin.endpoint, RELEASE, dict(base, my_rank=checkin.rank))
        return True

    def abort_slot(self, slot_id: int, reason: str) -> int:
        """Tell every checked-in process of one slot to terminate."""
        table = self.tables.get(slot_id)
        if table is None:
            return 0
        record_access(
            self.env, str(self.port.endpoint),
            f"barrier:{slot_id}", "w", op="abort",
        )
        aborted = 0
        for checkin in table.checkins.values():
            if (table.slot_id, checkin.rank) in self.release_times:
                continue  # already released; kill goes via GRAM cancel
            self._send(checkin.endpoint, ABORT, {"reason": reason})
            self._m_waiting.dec()
            aborted += 1
        return aborted

    def _send(self, dst: Endpoint, kind: str, payload: dict) -> None:
        try:
            self.port.send(dst, kind, payload)
        except HostDown:  # pragma: no cover - client host death
            pass

    # -- statistics -----------------------------------------------------------

    def barrier_waits(self) -> list[tuple[int, int, float]]:
        """(slot_id, rank, wait) for every released process.

        This is the quantity the paper's §4.2 analytical model predicts:
        average wait ≈ k·M/2, waits occurring in per-subjob blocks, the
        shortest wait ≈ 0.
        """
        waits = []
        for (slot_id, rank), released_at in self.release_times.items():
            checkin = self.tables[slot_id].checkins[rank]
            waits.append((slot_id, rank, released_at - checkin.time))
        return sorted(waits)


def config_from_release(payload: dict) -> DurocConfig:
    """Parse a release message payload into a DurocConfig."""
    return DurocConfig(
        sizes=tuple(payload["sizes"]),
        my_subjob=int(payload["my_subjob"]),
        my_rank=int(payload["my_rank"]),
        addresses=dict(payload["addresses"]),
    )
