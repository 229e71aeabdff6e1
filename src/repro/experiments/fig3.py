"""Figure 3: cost breakdown of a single-process GRAM request.

Paper values (Origin 2000 testbed):

======================  ==========
operation               latency (s)
======================  ==========
initgroups()            0.7
authentication          0.5
misc.                   0.01
fork()                  0.001
======================  ==========

The harness submits one single-process request against an instrumented
grid and reads the per-phase spans from the tracer.  Because the
simulator's cost model is *calibrated* from this figure, the reproduced
numbers match by construction — the experiment validates that the
implementation actually spends its time in the modeled phases (e.g.
that authentication really is a costed multi-message handshake).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.gram.costs import CostModel
from repro.gram.states import JobState
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.experiments.report import format_table

#: Paper-reported values, for side-by-side rendering.
PAPER_BREAKDOWN = {
    "initgroups()": 0.7,
    "authentication": 0.5,
    "misc.": 0.01,
    "fork()": 0.001,
}


@dataclass(frozen=True)
class Fig3Row:
    operation: str
    latency: float
    paper_latency: float


def run_fig3(seed: int = 0, costs: Optional[CostModel] = None) -> list[Fig3Row]:
    """Regenerate the Figure 3 breakdown for a 1-process request."""
    grid = (
        GridBuilder(seed=seed, costs=costs or CostModel())
        .add_machine("origin", nodes=64)
        .build()
    )
    client = grid.gram_client()
    contact = grid.site("origin").contact
    rsl = (
        f"&(resourceManagerContact={contact})"
        f"(count=1)(executable={DEFAULT_EXECUTABLE})"
    )

    def scenario(env):
        handle = yield from client.submit(contact, rsl)
        yield from client.wait_for_state(handle, JobState.ACTIVE, poll=0.005)

    grid.run(grid.process(scenario(grid.env)))
    tracer = grid.tracer
    measured = {
        "initgroups()": tracer.total("gram.initgroups"),
        "authentication": tracer.total("gram.auth"),
        "misc.": tracer.total("gram.misc"),
        "fork()": tracer.total("gram.fork"),
    }
    grid.close()
    return [
        Fig3Row(operation=name, latency=measured[name],
                paper_latency=PAPER_BREAKDOWN[name])
        for name in PAPER_BREAKDOWN
    ]


def render(rows: Sequence[Fig3Row]) -> str:
    return format_table(
        headers=("operation", "measured (s)", "paper (s)"),
        rows=[(r.operation, r.latency, r.paper_latency) for r in rows],
        title="Figure 3: breakdown of a single-process GRAM request",
    )
