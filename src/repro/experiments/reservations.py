"""§2.2/§5 experiment: best-effort queues vs advance co-reservation.

Setup: two space-shared (FCFS + reservation-capable) machines carrying
background load of different intensities.  A co-allocation wants half
of each machine simultaneously.

* **Best-effort**: the subjobs queue independently; whichever machine
  frees first holds its nodes *idle at the barrier* until the other
  catches up — the waste grows with queue-depth mismatch, and the
  co-allocation start is at the mercy of both queues.
* **Co-reservation** (the §5 extension): the agent forecasts each
  queue, books a common window, and both subjobs start together at the
  window with near-zero idle barrier time.

Metrics per strategy: time until the computation is released, barrier
skew (first check-in → release), and node-seconds held idle in the
barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.broker.coreserve import CoReservationAgent
from repro.core.applib import make_program
from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
from repro.errors import AllocationAborted
from repro.experiments.report import format_table
from repro.gridenv import Grid, GridBuilder
from repro.workloads.background import BackgroundLoad, LoadSpec


@dataclass(frozen=True)
class ReservationRow:
    strategy: str
    seed: int
    success: bool
    released_at: Optional[float]
    barrier_idle_node_seconds: float


#: The co-allocation under test: half of each 64-node machine for 60 s.
JOB_NODES = 32
JOB_DURATION = 60.0
APP_STARTUP = 2.0


def _build_grid(seed: int, light_load: LoadSpec, heavy_load: LoadSpec) -> Grid:
    grid = (
        GridBuilder(seed=seed)
        .add_machine("east", nodes=64, scheduler="reservation")
        .add_machine("west", nodes=64, scheduler="reservation")
        .build()
    )
    grid.programs["resv_app"] = make_program(
        startup=APP_STARTUP, runtime=JOB_DURATION
    )
    BackgroundLoad(grid.site("east"), light_load, grid.rngs.stream("bg.east"))
    BackgroundLoad(grid.site("west"), heavy_load, grid.rngs.stream("bg.west"))
    return grid


def _default_loads() -> tuple[LoadSpec, LoadSpec]:
    light = LoadSpec(interarrival=40.0, mean_nodes=16, mean_runtime=60.0)
    heavy = LoadSpec(interarrival=15.0, mean_nodes=24, mean_runtime=120.0)
    return light, heavy


def run_once(
    strategy: str,
    seed: int = 0,
    warmup: float = 300.0,
    loads: Optional[tuple[LoadSpec, LoadSpec]] = None,
) -> ReservationRow:
    """Run one strategy against one background-load realization."""
    light, heavy = loads or _default_loads()
    grid = _build_grid(seed, light, heavy)
    grid.run(until=warmup)  # let the queues fill
    duroc = grid.duroc(default_subjob_timeout=10_000.0)
    t0 = grid.now

    if strategy == "best-effort":
        request = CoAllocationRequest(
            [
                SubjobSpec(
                    contact=grid.site(name).contact,
                    count=JOB_NODES,
                    executable="resv_app",
                    start_type=SubjobType.REQUIRED,
                    max_time=JOB_DURATION * 2,
                )
                for name in ("east", "west")
            ]
        )

        def agent(env):
            job = duroc.submit(request)
            try:
                result = yield from job.commit()
            except AllocationAborted:
                return None
            return result

    elif strategy == "reservation":
        co_agent = CoReservationAgent(duroc, margin=15.0)

        def agent(env):
            outcome = yield from co_agent.allocate(
                layout=[
                    (grid.site("east"), JOB_NODES),
                    (grid.site("west"), JOB_NODES),
                ],
                duration=JOB_DURATION + APP_STARTUP * 4,
                executable="resv_app",
            )
            return outcome.result

    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    result = grid.run(grid.process(agent(grid.env)))
    waits = None if result is None else result.barrier_waits()
    grid.close()
    if result is None:
        return ReservationRow(
            strategy=strategy, seed=seed, success=False,
            released_at=None, barrier_idle_node_seconds=float("nan"),
        )
    idle = sum(wait for _, _, wait in waits)
    return ReservationRow(
        strategy=strategy,
        seed=seed,
        success=True,
        released_at=result.released_at - t0,
        barrier_idle_node_seconds=idle,
    )


def run_reservation_experiment(
    seeds: Sequence[int] = (0, 1, 2),
    warmup: float = 300.0,
) -> list[ReservationRow]:
    rows = []
    for seed in seeds:
        for strategy in ("best-effort", "reservation"):
            rows.append(run_once(strategy, seed=seed, warmup=warmup))
    return rows


def summarize(rows: Sequence[ReservationRow]) -> list[tuple]:
    out = []
    for strategy in ("best-effort", "reservation"):
        group = [r for r in rows if r.strategy == strategy and r.success]
        if not group:
            out.append((strategy, 0.0, float("nan"), float("nan")))
            continue
        out.append(
            (
                strategy,
                len(group) / len([r for r in rows if r.strategy == strategy]),
                sum(r.released_at for r in group) / len(group),
                sum(r.barrier_idle_node_seconds for r in group) / len(group),
            )
        )
    return out


def render(rows: Sequence[ReservationRow]) -> str:
    return format_table(
        headers=("strategy", "success", "mean start (s)", "idle node-s at barrier"),
        rows=summarize(rows),
        title=(
            "Advance co-reservation vs best-effort queues "
            f"({JOB_NODES}+{JOB_NODES} nodes on two loaded machines)"
        ),
    )
