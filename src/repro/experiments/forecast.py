"""§2.2 experiment: how stale can published load information be?

"Simulation studies have shown that this approach can be effective if
there is a minimum period of time over which load information remains
valid" (citing Gehring & Preiss [14]).

Setup: six space-shared machines with bursty background load.  A stream
of co-allocations arrives; each picks the two machines with the best
*published* wait forecasts (refreshed every ``refresh`` seconds) and
co-allocates half of each.  The sweep varies the refresh interval, plus
a random-selection baseline (no information at all).

Expected shape: fresh forecasts find the short queues; as the published
information ages, selection quality decays toward random.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.applib import make_program
from repro.core.request import CoAllocationRequest, SubjobSpec
from repro.errors import AllocationAborted
from repro.experiments.report import format_table
from repro.gridenv import Grid, GridBuilder
from repro.mds.directory import Directory
from repro.workloads.background import BackgroundLoad, LoadSpec

N_MACHINES = 6
NODES = 64
JOB_NODES = 16
JOB_DURATION = 30.0


@dataclass(frozen=True)
class ForecastRow:
    policy: str          # "refresh=<R>" or "random"
    mean_wait: float     # mean time from submission to release
    completed: int


def _build_grid(seed: int) -> Grid:
    builder = GridBuilder(seed=seed)
    for idx in range(1, N_MACHINES + 1):
        builder.add_machine(f"RM{idx}", nodes=NODES, scheduler="fcfs")
    grid = builder.build()
    grid.programs["probe"] = make_program(startup=0.5, runtime=JOB_DURATION)
    # Bursty, heterogeneous background: machines differ and change.
    for idx in range(1, N_MACHINES + 1):
        BackgroundLoad(
            grid.site(f"RM{idx}"),
            LoadSpec(
                interarrival=10.0 + 6.0 * idx,
                mean_nodes=24,
                mean_runtime=40.0 + 25.0 * idx,
            ),
            grid.rngs.stream(f"bg.RM{idx}"),
        )
    return grid


def _selection_stream(
    grid: Grid,
    pick,
    n_jobs: int,
    interarrival: float,
) -> tuple[float, int]:
    """Run ``n_jobs`` co-allocations; return (mean wait, completed)."""
    duroc = grid.duroc(default_subjob_timeout=10_000.0, heartbeat_interval=0.0)
    waits: list[float] = []

    def one(env):
        t0 = env.now
        names = pick()
        request = CoAllocationRequest(
            [
                SubjobSpec(
                    contact=grid.site(name).contact,
                    count=JOB_NODES,
                    executable="probe",
                    max_time=JOB_DURATION * 2,
                )
                for name in names
            ]
        )
        job = duroc.submit(request)
        try:
            result = yield from job.commit()
        except AllocationAborted:
            return
        waits.append(result.released_at - t0)

    def driver(env):
        yield env.timeout(120.0)  # let queues build
        jobs = []
        for _ in range(n_jobs):
            jobs.append(env.process(one(env)))
            yield env.timeout(interarrival)
        # Wait for every probe co-allocation to finish (the background
        # load never stops on its own, so run() is bounded by this).
        yield env.all_of(jobs)

    grid.run(until=grid.process(driver(grid.env)))
    mean_wait = sum(waits) / len(waits) if waits else float("nan")
    return mean_wait, len(waits)


def run_forecast_experiment(
    refresh_intervals: Sequence[float] = (0.0, 60.0, 300.0, 1200.0),
    n_jobs: int = 12,
    interarrival: float = 45.0,
    seeds: Sequence[int] = (0, 1, 2),
    include_random: bool = True,
) -> list[ForecastRow]:
    """Sweep forecast staleness; optionally add the no-information baseline.

    Results are averaged across ``seeds`` (independent background-load
    realizations).
    """

    def averaged(policy: str, make_pick) -> ForecastRow:
        waits, completed = [], 0
        for seed in seeds:
            grid = _build_grid(seed)
            pick = make_pick(grid)
            mean_wait, done = _selection_stream(grid, pick, n_jobs, interarrival)
            grid.close()
            waits.append(mean_wait)
            completed += done
        return ForecastRow(
            policy=policy,
            mean_wait=sum(waits) / len(waits),
            completed=completed,
        )

    rows: list[ForecastRow] = []
    for refresh in refresh_intervals:

        def make_pick(grid, refresh=refresh):
            directory = Directory(grid.env, refresh_interval=refresh)
            for site in grid.sites.values():
                directory.register(site)
            return lambda: directory.select(count=JOB_NODES, k=2)

        rows.append(averaged(f"refresh={refresh:g}s", make_pick))

    if include_random:

        def make_pick_random(grid):
            rng = grid.rngs.stream("selection.random")
            names = sorted(grid.sites)
            return lambda: list(rng.choice(names, size=2, replace=False))

        rows.append(averaged("random", make_pick_random))
    return rows


def render(rows: Sequence[ForecastRow]) -> str:
    return format_table(
        headers=("selection policy", "mean time-to-release (s)", "completed"),
        rows=[(r.policy, r.mean_wait, r.completed) for r in rows],
        title=(
            "§2.2: forecast-guided selection vs information staleness "
            f"({JOB_NODES}+{JOB_NODES} nodes per co-allocation)"
        ),
    )
