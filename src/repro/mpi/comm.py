"""A miniature MPI communicator over the simulated network.

This is the reproduction of MPICH-G's runtime role in the paper: the
processes created by DUROC "determine the total number of processes,
determine [their] own name (an integer 'rank'...), and establish a
(virtual or physical) all-to-all communication structure" (§3.3).

:class:`MiniComm` derives ranks and the address map entirely from the
:class:`~repro.core.config.DurocConfig` delivered at barrier release —
exactly the configuration mechanisms the paper defines — and offers the
point-to-point and collective operations the examples/benchmarks need.
All blocking operations are generators (``yield from comm.recv()``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.config import DurocConfig
from repro.errors import MPIError
from repro.net.transport import Port

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.metrics import BoundCounter

#: Message kinds.
PT2PT = "mpi.msg"
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
        #: Operation ("pt2pt" or a collective phase) -> its
        #: ``mpi.messages_total`` series, bound at the first such send.
        self._m_messages: "dict[str, BoundCounter]" = {}
        self._coll_seq = 0

    # -- naming -----------------------------------------------------------

    @property
    def my_subjob(self) -> int:
        return self.config.my_subjob

    def address_of(self, rank: int):
        return self.config.address_of_global(rank)

    def _count_message(self, op: str) -> None:
        series = self._m_messages.get(op)
        if series is None:
            # Code-bounded: "pt2pt" and the phase names the collectives
            # below pass to _coll_send, all string literals.
            series = self._m_messages[op] = (  # repro: noqa mem-grow-only-attr
                self.metrics.bind("counter", "mpi.messages_total", op=op)
            )
        series.inc()

    # -- point-to-point -----------------------------------------------------

    def send(self, dest: int, data: Any, tag: int = 0) -> None:
        """Asynchronous send to global rank ``dest``."""
        self._check_rank(dest)
        self._count_message("pt2pt")
        self.port.send(
            self.address_of(dest),
            PT2PT,
            payload={"src": self.rank, "tag": tag, "data": data},
        )

    def recv(self, source: Optional[int] = None, tag: Optional[int] = None):
        """Generator: blocking receive; returns (source, data)."""

        def match(m) -> bool:
            if m.kind != PT2PT:
                return False
            if source is not None and m.payload["src"] != source:
                return False
            if tag is not None and m.payload["tag"] != tag:
                return False
            return True

        message = yield self.port.recv(filter=match)
        return message.payload["src"], message.payload["data"]

    # -- collectives ----------------------------------------------------------
    #
    # Every process must call collectives in the same order; a per-comm
    # sequence number isolates consecutive operations from one another.

    def _coll_send(self, dest: int, seq: int, phase: str, data: Any) -> None:
        self._count_message(phase)
        self.port.send(
            self.address_of(dest),
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

    def barrier(self):
        """Generator: block until every rank has arrived."""
        seq = self._next_seq()
        if self.rank == 0:
            for _ in range(self.size - 1):
                yield from self._coll_recv(seq, "arrive")
            for dest in range(1, self.size):
                self._coll_send(dest, seq, "go", None)
        else:
            self._coll_send(0, seq, "arrive", None)
            yield from self._coll_recv(seq, "go", source=0)

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

    def scatter(self, data: Optional[list] = None, root: int = 0):
        """Generator: distribute ``data[i]`` to rank i; returns own item."""
        self._check_rank(root)
        seq = self._next_seq()
        if self.rank == root:
            if data is None or len(data) != self.size:
                raise MPIError(
                    f"scatter needs exactly {self.size} items at the root"
                )
            for dest in range(self.size):
                if dest != root:
                    self._coll_send(dest, seq, "scatter", data[dest])
            return data[root]
        _, value = yield from self._coll_recv(seq, "scatter", source=root)
        return value

    def allgather(self, data: Any):
        """Generator: gather at 0, then broadcast the list."""
        gathered = yield from self.gather(data, root=0)
        result = yield from self.bcast(gathered, root=0)
        return result

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
        return f"<MiniComm rank={self.rank}/{self.size} subjob={self.my_subjob}>"
