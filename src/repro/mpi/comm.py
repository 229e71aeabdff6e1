"""A miniature MPI communicator over the simulated network.

This is the reproduction of MPICH-G's runtime role in the paper: the
processes created by DUROC "determine the total number of processes,
determine [their] own name (an integer 'rank'...), and establish a
(virtual or physical) all-to-all communication structure" (§3.3).

:class:`MiniComm` derives ranks and the address map entirely from the
:class:`~repro.core.config.DurocConfig` delivered at barrier release —
exactly the configuration mechanisms the paper defines — and offers the
collectives the examples and the start-up table use: ``bcast``,
``gather``, ``reduce`` and ``allreduce``.  Each is a generator
(``yield from comm.allreduce(1)``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.config import DurocConfig
from repro.errors import MPIError
from repro.net.transport import Port

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.metrics import BoundCounter

#: The message kind of every collective's messages.
COLLECTIVE = "mpi.coll"


class MiniComm:
    """An MPI_COMM_WORLD equivalent for one process."""

    def __init__(
        self,
        port: Port,
        config: DurocConfig,
    ) -> None:
        self.port = port
        self.config = config
        self.rank = config.global_rank()
        self.size = config.total_processes
        self.metrics = port.network.env.tracer.metrics
        #: Collective phase -> its ``mpi.messages_total`` series,
        #: bound at the first such send.
        self._m_messages: "dict[str, BoundCounter]" = {}
        self._coll_seq = 0

    # -- collectives ----------------------------------------------------------
    #
    # Every process must call collectives in the same order; a per-comm
    # sequence number isolates consecutive operations from one another.

    def _coll_send(self, dest: int, seq: int, phase: str, data: Any) -> None:
        series = self._m_messages.get(phase)
        if series is None:
            # Code-bounded: the phase names below are string literals.
            series = self._m_messages[phase] = (
                self.metrics.bind("counter", "mpi.messages_total", op=phase)
            )
        series.inc()
        self.port.send(
            self.config.address_of_global(dest),
            COLLECTIVE,
            payload={"src": self.rank, "seq": seq, "phase": phase, "data": data},
        )

    def _coll_recv(self, seq: int, phase: str, source: Optional[int] = None):
        def match(m) -> bool:
            return (
                m.kind == COLLECTIVE
                and m.payload["seq"] == seq
                and m.payload["phase"] == phase
                and (source is None or m.payload["src"] == source)
            )

        message = yield self.port.recv(filter=match)
        return message.payload["src"], message.payload["data"]

    def bcast(self, data: Any = None, root: int = 0):
        """Generator: broadcast ``data`` from ``root``; returns the value."""
        self._check_rank(root)
        seq = self._next_seq()
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._coll_send(dest, seq, "bcast", data)
            return data
        _, value = yield from self._coll_recv(seq, "bcast", source=root)
        return value

    def gather(self, data: Any, root: int = 0):
        """Generator: gather one value per rank at ``root``.

        Returns the rank-ordered list at the root, None elsewhere.
        """
        self._check_rank(root)
        seq = self._next_seq()
        if self.rank == root:
            values: dict[int, Any] = {self.rank: data}
            for _ in range(self.size - 1):
                src, value = yield from self._coll_recv(seq, "gather")
                values[src] = value
            return [values[r] for r in range(self.size)]
        self._coll_send(root, seq, "gather", data)
        return None

    def reduce(self, data: Any, op: Callable = sum, root: int = 0):
        """Generator: fold one value per rank at the root with ``op``.

        ``op`` receives the rank-ordered list (e.g. ``sum``, ``max``).
        """
        values = yield from self.gather(data, root=root)
        if self.rank == root:
            return op(values)
        return None

    def allreduce(self, data: Any, op: Callable = sum):
        value = yield from self.reduce(data, op=op, root=0)
        result = yield from self.bcast(value, root=0)
        return result

    # -- helpers -------------------------------------------------------------

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise MPIError(f"rank {rank} out of range 0..{self.size - 1}")

    def __repr__(self) -> str:
        return f"<MiniComm rank={self.rank}/{self.size} subjob={self.config.my_subjob}>"
