"""Figure 2: GRAM submission latency vs process count.

Paper setup: "A series of GRAM requests were submitted, varying the
number of processes created.  For each request, we measured the time
that elapsed from invocation of the allocation command to successful
startup of the processes on the target machine."  Result: "the cost of
a GRAM submission is largely insensitive to the number of processes
created" (16/32/64 processes, all ≈2 s on the y-axis).

Each measurement uses a fresh fork-mode grid (no queue delay, as in the
paper) and times submit → ACTIVE callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.gram.client import CallbackListener
from repro.gram.costs import CostModel
from repro.gram.states import JobState
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.experiments.report import format_table


@dataclass(frozen=True)
class Fig2Row:
    processes: int
    latency: float


def measure_gram_latency(
    processes: int,
    seed: int = 0,
    costs: CostModel | None = None,
) -> float:
    """One Fig. 2 data point: latency of a single GRAM submission."""
    grid = (
        GridBuilder(seed=seed, costs=costs or CostModel())
        .add_machine("origin", nodes=max(64, processes))
        .build()
    )
    client = grid.gram_client()
    listener = CallbackListener(grid.network, grid.client_host)
    active = grid.env.event()
    listener.on(
        None,
        lambda job_id, state, reason: (
            active.succeed() if state is JobState.ACTIVE and not active.triggered
            else None
        ),
    )
    contact = grid.site("origin").contact
    rsl = (
        f"&(resourceManagerContact={contact})"
        f"(count={processes})(executable={DEFAULT_EXECUTABLE})"
    )

    def scenario(env):
        t0 = env.now
        yield from client.submit(contact, rsl, callback=listener.endpoint)
        yield active
        return env.now - t0

    latency = grid.run(grid.process(scenario(grid.env)))
    grid.close()
    return latency


def run_fig2(
    process_counts: Sequence[int] = (16, 32, 64),
    seed: int = 0,
    costs: CostModel | None = None,
) -> list[Fig2Row]:
    """Regenerate the Figure 2 series."""
    return [
        Fig2Row(processes=count, latency=measure_gram_latency(count, seed, costs))
        for count in process_counts
    ]


def render(rows: Sequence[Fig2Row]) -> str:
    return format_table(
        headers=("processes", "latency (s)"),
        rows=[(r.processes, r.latency) for r in rows],
        title="Figure 2: GRAM submission latency vs process count",
    )
