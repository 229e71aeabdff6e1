"""Background load generation for queue-dominated experiments.

§2.2's discussion (and the reservation experiments) need machines whose
local queues are busy with other users' work.  :class:`BackgroundLoad`
drives a Poisson stream of jobs straight into a site's local scheduler,
bypassing GRAM (local users do not authenticate through the grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.gram.site import Site
from repro.schedulers.base import NodeRequest

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class LoadSpec:
    """Poisson job stream parameters."""

    #: Mean seconds between arrivals.
    interarrival: float
    #: Mean job size in nodes (geometric-ish draw, clipped to machine).
    mean_nodes: int
    #: Mean runtime seconds (exponential).
    mean_runtime: float
    #: Factor by which users overestimate runtime in max_time.
    estimate_factor: float = 1.5

    def __post_init__(self) -> None:
        if self.interarrival <= 0 or self.mean_nodes <= 0 or self.mean_runtime <= 0:
            raise ValueError("load spec parameters must be positive")


class BackgroundLoad:
    """Drives one site's scheduler with synthetic local jobs."""

    def __init__(
        self,
        site: Site,
        spec: LoadSpec,
        rng: np.random.Generator,
        horizon: float = float("inf"),
    ) -> None:
        self.site = site
        self.spec = spec
        self.rng = rng
        self.horizon = horizon
        self.submitted = 0
        self.completed = 0
        self.process = site.env.process(
            self._generate(), name=f"bg:{site.name}"
        )

    def _generate(self):
        env = self.site.env
        scheduler = self.site.scheduler
        while env.now < self.horizon:
            yield env.timeout(self.rng.exponential(self.spec.interarrival))
            nodes = int(
                min(
                    scheduler.nodes,
                    max(1, self.rng.geometric(1.0 / self.spec.mean_nodes)),
                )
            )
            runtime = float(self.rng.exponential(self.spec.mean_runtime))
            max_time = runtime * self.spec.estimate_factor
            self.submitted += 1
            env.process(
                self._run_job(nodes, runtime, max_time),
                name=f"bg-job:{self.site.name}",
            )

    def _run_job(self, nodes: int, runtime: float, max_time: float):
        env = self.site.env
        pending = self.site.scheduler.submit(
            NodeRequest(count=nodes, max_time=max_time,
                        job_id=f"bg-{self.site.name}-{self.submitted}")
        )
        lease = yield pending.event
        yield env.timeout(runtime)
        lease.release()
        self.completed += 1
