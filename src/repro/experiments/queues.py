"""§4.2's closing observation, measured.

"Anecdotal data from large distributed runs also indicate that barrier
synchronization costs are negligible in the wide-area compared to local
startup delays introduced both by GRAM and by local scheduler queues
(remember that the above experiments were with fork-based job starts,
impossible on most production parallel machines)."

The experiment co-allocates across machines running *batch queues* with
background load and decomposes the time to release into:

* **submission** — serialized GRAM request processing (auth +
  initgroups + misc);
* **queue** — mean per-subjob wait for the local scheduler to assign
  nodes;
* **startup** — mean per-subjob application initialization before
  check-in;
* **skew** — time the earliest subjob spent waiting in the barrier for
  the latest one (first check-in → last check-in): on fork machines
  this is the serialized-submission stagger of Fig. 4/5, on batch
  machines it is queue-depth mismatch;
* **sync** — the pure wide-area barrier synchronization cost (last
  check-in → release): the quantity the paper calls negligible.

Queue and startup phases overlap across subjobs, so they are reported
as per-subjob means rather than sums; submission is serialized at the
client and sums exactly.

On fork-mode machines the barrier share is sizable (it *is* Fig. 4's
kM/2); on loaded batch machines queue waits dwarf everything — the
paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.applib import make_program
from repro.core.request import CoAllocationRequest, SubjobSpec
from repro.experiments.report import format_table
from repro.gridenv import Grid, GridBuilder
from repro.workloads.background import BackgroundLoad, LoadSpec

N_MACHINES = 4
NODES = 64
JOB_NODES = 16
STARTUP = 2.0


@dataclass(frozen=True)
class Decomposition:
    """Where one co-allocation's time-to-release went."""

    scenario: str
    total: float
    submission: float
    queue: float
    startup: float
    skew: float
    sync: float

    @property
    def queue_share(self) -> float:
        return self.queue / self.total if self.total else 0.0


def _build(scenario: str, seed: int) -> Grid:
    builder = GridBuilder(seed=seed)
    scheduler = "fork" if scenario == "fork" else "fcfs"
    for idx in range(1, N_MACHINES + 1):
        builder.add_machine(f"RM{idx}", nodes=NODES, scheduler=scheduler)
    grid = builder.build()
    grid.programs["queued_app"] = make_program(startup=STARTUP, runtime=20.0)
    if scenario == "queued":
        for idx in range(1, N_MACHINES + 1):
            BackgroundLoad(
                grid.site(f"RM{idx}"),
                LoadSpec(interarrival=12.0, mean_nodes=24,
                         mean_runtime=60.0 + 15.0 * idx),
                grid.rngs.stream(f"bg.RM{idx}"),
            )
    return grid


def run_decomposition(scenario: str, seed: int = 0,
                      warmup: float = 200.0) -> Decomposition:
    """Run one co-allocation and decompose its time-to-release.

    ``scenario`` is ``"fork"`` (the paper's microbenchmark setting) or
    ``"queued"`` (loaded production batch machines).
    """
    if scenario not in ("fork", "queued"):
        raise ValueError(f"unknown scenario {scenario!r}")
    grid = _build(scenario, seed)
    if scenario == "queued":
        grid.run(until=warmup)
    duroc = grid.duroc(default_subjob_timeout=100_000.0, heartbeat_interval=0.0)
    t0 = grid.now
    request = CoAllocationRequest(
        [
            SubjobSpec(contact=grid.site(f"RM{idx}").contact, count=JOB_NODES,
                       executable="queued_app", max_time=60.0)
            for idx in range(1, N_MACHINES + 1)
        ]
    )

    def agent(env):
        job = duroc.submit(request)
        result = yield from job.commit()
        return (job, result)

    job, result = grid.run(until=grid.process(agent(grid.env)))

    total = result.released_at - t0
    # Submission is serialized at the client, so its spans sum cleanly.
    submission = sum(
        span.duration
        for span in grid.tracer.spans_named("duroc.submit")
        if span.attrs.get("job") == job.job_id
    )
    # Queue and startup overlap across subjobs: report per-subjob means.
    queue_waits: list[float] = []
    startups: list[float] = []
    first_checkin: Optional[float] = None
    last_checkin: Optional[float] = None
    for slot in job.slots:
        table = job.barrier.tables[slot.slot_id]
        arrivals = [c.time for c in table.checkins.values()]
        if not arrivals or slot.submitted_at is None or slot.gram_handle is None:
            continue
        slot_queue = sum(
            span.duration
            for span in grid.tracer.spans_named(
                "gram.queue", job=slot.gram_handle.job_id
            )
        )
        queue_waits.append(slot_queue)
        startups.append(max(arrivals) - slot.submitted_at - slot_queue)
        first, last = min(arrivals), max(arrivals)
        first_checkin = first if first_checkin is None else min(first_checkin, first)
        last_checkin = last if last_checkin is None else max(last_checkin, last)
    grid.close()
    skew = (last_checkin - first_checkin) if first_checkin is not None else 0.0
    sync = (result.released_at - last_checkin) if last_checkin is not None else 0.0
    n = max(len(queue_waits), 1)
    return Decomposition(
        scenario=scenario,
        total=total,
        submission=submission,
        queue=sum(queue_waits) / n,
        startup=sum(startups) / n,
        skew=skew,
        sync=sync,
    )


def run_queue_experiment(seeds: Sequence[int] = (0, 1, 2)) -> list[Decomposition]:
    """Mean decomposition per scenario across seeds."""
    rows = []
    for scenario in ("fork", "queued"):
        parts = [run_decomposition(scenario, seed=seed) for seed in seeds]
        n = len(parts)
        rows.append(
            Decomposition(
                scenario=scenario,
                total=sum(p.total for p in parts) / n,
                submission=sum(p.submission for p in parts) / n,
                queue=sum(p.queue for p in parts) / n,
                startup=sum(p.startup for p in parts) / n,
                skew=sum(p.skew for p in parts) / n,
                sync=sum(p.sync for p in parts) / n,
            )
        )
    return rows


def render(rows: Sequence[Decomposition]) -> str:
    table = format_table(
        headers=(
            "scenario", "total (s)", "submission (s)", "mean queue (s)",
            "mean startup (s)", "skew (s)", "sync (s)",
        ),
        rows=[
            (r.scenario, r.total, r.submission, r.queue, r.startup,
             r.skew, r.sync)
            for r in rows
        ],
        title=(
            "§4.2: where co-allocation time goes — fork-mode vs loaded "
            "batch queues"
        ),
    )
    return table + (
        "\n(the paper: barrier costs are negligible next to GRAM startup "
        "and local scheduler queues on production machines)"
    )
