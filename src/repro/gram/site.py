"""A grid site: machine + local scheduler + gatekeeper, wired together."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.gram.costs import CostModel
from repro.gram.gatekeeper import Gatekeeper
from repro.gsi.credentials import CertificateAuthority
from repro.gsi.gridmap import GridMap
from repro.machine.host import Machine, Program
from repro.net.network import Network
from repro.schedulers.base import LocalScheduler
from repro.schedulers.fork import ForkScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment


class Site:
    """One administrative domain offering a machine through GRAM."""

    def __init__(
        self,
        env: "Environment",
        network: Network,
        name: str,
        nodes: int,
        ca: CertificateAuthority,
        programs: dict[str, Program],
        scheduler_factory=ForkScheduler,
        gridmap: Optional[GridMap] = None,
        costs: Optional[CostModel] = None,
        speed: float = 1.0,
        memory: Optional[float] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.machine = Machine(env, network, name, nodes=nodes, speed=speed)
        self.scheduler: LocalScheduler = scheduler_factory(env, nodes, memory)
        self.scheduler.site = name
        self.gridmap = gridmap if gridmap is not None else GridMap()
        self.costs = costs or CostModel()
        self.gatekeeper = Gatekeeper(
            env=env,
            machine=self.machine,
            scheduler=self.scheduler,
            ca=ca,
            gridmap=self.gridmap,
            programs=programs,
            costs=self.costs,
        )

    @property
    def contact(self) -> str:
        return self.gatekeeper.contact

    @property
    def nodes(self) -> int:
        return self.machine.nodes

    def authorize(self, subject: str, local_user: Optional[str] = None) -> None:
        """Add a grid identity to this site's gridmap."""
        self.gridmap.add(subject, local_user or f"u-{subject}")

    def crash(self) -> None:
        self.machine.crash()

    def restore(self) -> None:
        self.machine.restore()

    def __repr__(self) -> str:
        return (
            f"<Site {self.name} nodes={self.nodes} "
            f"policy={self.scheduler.policy}>"
        )
