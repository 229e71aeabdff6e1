"""Configuration mechanisms (§3.3).

After a successful co-allocation, "the further configuration or
initialization of these processes frequently requires that these
processes discover and communicate with one another".  The paper's
basic operations are:

* determine the number of subjobs in a resource set;
* determine the size of a specific subjob;
* communicate between at least one node in a subjob and every other
  node in the subjob;
* for at least one node in a subjob, communicate with at least one
  node in every other subjob.

:class:`DurocConfig` is delivered to every process in the barrier
release message and provides these operations (and a full address map,
which subsumes the two communication requirements).  The MPICH-G-like
layer (:mod:`repro.mpi`) is built purely on this interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.net.address import Endpoint


@dataclass(frozen=True)
class DurocConfig:
    """Per-process view of the released configuration."""

    #: Sizes of the released subjobs, in join order.
    sizes: tuple[int, ...]
    #: This process's subjob position (0-based, join order).
    my_subjob: int
    #: This process's rank within its subjob.
    my_rank: int
    #: (subjob, rank) -> communication endpoint, for every process.
    addresses: dict[tuple[int, int], Endpoint]

    # -- the four §3.3 mechanisms ------------------------------------------

    @property
    def n_subjobs(self) -> int:
        """Number of subjobs in the resource set."""
        return len(self.sizes)

    def subjob_size(self, subjob: int) -> int:
        """Number of processes in subjob ``subjob``."""
        self._check_subjob(subjob)
        return self.sizes[subjob]

    def intra_subjob_peers(self) -> list[Endpoint]:
        """Endpoints of every process in *this* subjob (including self)."""
        return [
            self.address(self.my_subjob, rank)
            for rank in range(self.sizes[self.my_subjob])
        ]

    def inter_subjob_leads(self) -> list[Endpoint]:
        """Endpoint of node 0 of every *other* subjob."""
        return [
            self.address(subjob, 0)
            for subjob in range(self.n_subjobs)
            if subjob != self.my_subjob
        ]

    # -- derived naming -----------------------------------------------------

    @property
    def total_processes(self) -> int:
        return sum(self.sizes)

    def global_rank(
        self, subjob: Optional[int] = None, rank: Optional[int] = None
    ) -> int:
        """Linear rank over (subjob-major, rank-minor) ordering.

        With no arguments, this process's own global rank — the value an
        MPI process would use as its ``COMM_WORLD`` rank.
        """
        subjob = self.my_subjob if subjob is None else subjob
        rank = self.my_rank if rank is None else rank
        self._check_subjob(subjob)
        if not 0 <= rank < self.sizes[subjob]:
            raise ConfigurationError(
                f"rank {rank} out of range for subjob {subjob} "
                f"(size {self.sizes[subjob]})"
            )
        return sum(self.sizes[:subjob]) + rank

    def locate(self, global_rank: int) -> tuple[int, int]:
        """Inverse of :meth:`global_rank`."""
        if not 0 <= global_rank < self.total_processes:
            raise ConfigurationError(
                f"global rank {global_rank} out of range 0..{self.total_processes - 1}"
            )
        remaining = global_rank
        for subjob, size in enumerate(self.sizes):
            if remaining < size:
                return subjob, remaining
            remaining -= size
        raise AssertionError("unreachable")  # pragma: no cover

    def address(self, subjob: int, rank: int) -> Endpoint:
        """Endpoint of process (subjob, rank)."""
        try:
            return self.addresses[(subjob, rank)]
        except KeyError:
            raise ConfigurationError(
                f"no address for process (subjob={subjob}, rank={rank})"
            ) from None

    def address_of_global(self, global_rank: int) -> Endpoint:
        return self.address(*self.locate(global_rank))

    def _check_subjob(self, subjob: int) -> None:
        if not 0 <= subjob < self.n_subjobs:
            raise ConfigurationError(
                f"subjob {subjob} out of range 0..{self.n_subjobs - 1}"
            )
