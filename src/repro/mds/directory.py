"""Grid information service (MDS analogue).

§2.2: "the resource management system can publish information about the
current queue contents and scheduling policy, or publish forecasts ...
of expected future resource availability.  This information can be used
to improve the success of co-allocation by constructing co-allocation
requests that are likely to succeed."

The directory serves *snapshots* refreshed at a configurable interval —
stale by design, since the cited simulation studies [14] show such
strategies work only "if there is a minimum period of time over which
load information remains valid".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ReproError
from repro.gram.site import Site

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment


@dataclass(frozen=True)
class ResourceInfo:
    """One site's published state, as of ``updated_at``."""

    name: str
    contact: str
    nodes: int
    policy: str
    free: int
    queue_length: int
    updated_at: float

    @property
    def utilization(self) -> float:
        return (self.nodes - self.free) / self.nodes


class Directory:
    """Registry + snapshot cache of grid resources."""

    def __init__(self, env: "Environment", refresh_interval: float = 30.0) -> None:
        if refresh_interval < 0:
            raise ReproError("refresh_interval must be non-negative")
        self.env = env
        self.refresh_interval = refresh_interval
        self._sites: dict[str, Site] = {}
        self._snapshots: dict[str, ResourceInfo] = {}
        #: (site, count) -> (forecast, computed_at); forecasts go stale
        #: on the same refresh schedule as snapshots.
        self._wait_cache: dict[tuple[str, int], tuple[float, float]] = {}

    # -- registration --------------------------------------------------------

    def register(self, site: Site) -> None:
        self._sites[site.name] = site

    def names(self) -> list[str]:
        return sorted(self._sites)

    # -- queries ----------------------------------------------------------------

    def lookup(self, name: str) -> ResourceInfo:
        """The (possibly stale) published state of one site."""
        if name not in self._sites:
            raise ReproError(f"site {name!r} not registered")
        snapshot = self._snapshots.get(name)
        if snapshot is None or self.env.now - snapshot.updated_at >= self.refresh_interval:
            snapshot = self._refresh(name)
        return snapshot

    def _refresh(self, name: str) -> ResourceInfo:
        site = self._sites[name]
        scheduler = site.scheduler
        info = ResourceInfo(
            name=name,
            contact=site.contact,
            nodes=scheduler.nodes,
            policy=scheduler.policy,
            free=max(0, scheduler.free),
            queue_length=scheduler.queue_length(),
            updated_at=self.env.now,
        )
        self._snapshots[name] = info
        return info

    def predicted_wait(self, name: str, count: int) -> float:
        """Forecast queue wait at a site for a hypothetical request.

        The forecast is the site scheduler's own ``estimate_wait``.
        Published forecasts age like snapshots: a cached value is served
        until ``refresh_interval`` elapses — the §2.2 point that such
        strategies only work "if there is a minimum period of time over
        which load information remains valid".  ``refresh_interval=0``
        is the oracle that always asks the scheduler.
        """
        site = self._sites.get(name)
        if site is None:
            raise ReproError(f"site {name!r} not registered")
        if self.refresh_interval == 0:
            return site.scheduler.estimate_wait(count)
        key = (name, count)
        cached = self._wait_cache.get(key)
        if cached is not None and self.env.now - cached[1] < self.refresh_interval:
            return cached[0]
        value = site.scheduler.estimate_wait(count)
        self._wait_cache[key] = (value, self.env.now)
        return value

    # -- selection (broker support) -------------------------------------------

    def candidates(
        self, count: int, exclude: Optional[set[str]] = None
    ) -> list[tuple[str, float]]:
        """Sites able to hold ``count`` nodes, best predicted wait first.

        Returns (name, predicted_wait) pairs; machines smaller than the
        request are excluded entirely.
        """
        exclude = exclude or set()
        ranked = []
        for name in self.names():
            if name in exclude:
                continue
            info = self.lookup(name)
            if info.nodes < count:
                continue
            ranked.append((name, self.predicted_wait(name, count)))
        ranked.sort(key=lambda pair: (pair[1], pair[0]))
        return ranked

    def select(
        self, count: int, k: int = 1, exclude: Optional[set[str]] = None
    ) -> list[str]:
        """The ``k`` best sites for a ``count``-node subjob."""
        return [name for name, _ in self.candidates(count, exclude)[:k]]
