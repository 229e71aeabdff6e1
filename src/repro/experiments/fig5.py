"""Figure 5: timeline of a DUROC submission.

The paper's figure shows, for a multi-subjob DUROC request, the
staggered per-subjob GRAM requests (GSI, misc. GRAM, fork overheads),
each followed by the application's startup wait and barrier wait, with
the individual GRAM requests submitted sequentially and the job going
active at commit/release.

The harness runs one instrumented co-allocation and reconstructs the
same lanes from the trace:

* per subjob: ``submit`` (the serialized GRAM request: GSI + misc +
  initgroups), ``fork``, ``startup`` (fork end → barrier check-in), and
  ``barrier`` (check-in → release);
* global marks: ``commit`` and ``release`` ("job active").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.report import format_timeline
from repro.workloads.scenarios import run, split_coallocation


@dataclass(frozen=True)
class TimelineEntry:
    lane: str   # "subjob0", "subjob1", ... or "request"
    phase: str  # submit / fork / startup / barrier / active
    start: float
    end: float


def run_fig5(
    subjobs: int = 3,
    total_processes: int = 12,
    seed: int = 0,
) -> list[TimelineEntry]:
    """Regenerate the Figure 5 timeline for one DUROC submission."""
    grid, (job, result) = run(
        split_coallocation(subjobs, total_processes), seed, {"trace"}
    )

    entries: list[TimelineEntry] = []
    tracer = grid.tracer
    for slot in job.slots:
        lane = f"subjob{slot.index}"
        site = slot.spec.contact.split(":")[0]
        submit_spans = tracer.spans_named(
            "duroc.submit", job=job.job_id, slot=slot.index
        )
        for span in submit_spans:
            entries.append(TimelineEntry(lane, "submit", span.start, span.end))
        fork_spans = [
            s
            for s in tracer.spans_named("gram.fork")
            if s.attrs.get("job", "").startswith(site + "/")
        ]
        for span in fork_spans:
            entries.append(TimelineEntry(lane, "fork", span.start, span.end))
        # Startup: fork end → earliest check-in; barrier: check-in →
        # release.  Both edges come straight from the trace: the
        # ``duroc.barrier`` span the co-allocator records per slot runs
        # from the slot's first check-in to its release.
        barrier_spans = tracer.spans_named(
            "duroc.barrier", job=job.job_id, slot=slot.index
        )
        if fork_spans and barrier_spans:
            fork_end = max(s.end for s in fork_spans)
            for span in barrier_spans:
                entries.append(
                    TimelineEntry(lane, "startup", fork_end, span.start)
                )
                entries.append(
                    TimelineEntry(lane, "barrier", span.start, span.end)
                )
    grid.close()
    entries.append(
        TimelineEntry("request", "active", result.released_at, result.released_at)
    )
    entries.sort(key=lambda e: (e.start, e.lane, e.phase))
    return entries


def sequential_submission_holds(entries: Sequence[TimelineEntry]) -> bool:
    """True iff the per-subjob GRAM submissions never overlap."""
    submits = sorted(
        (e for e in entries if e.phase == "submit"), key=lambda e: e.start
    )
    return all(
        later.start >= earlier.end - 1e-9
        for earlier, later in zip(submits, submits[1:])
    )


def render(entries: Sequence[TimelineEntry]) -> str:
    return format_timeline(
        [(e.lane, e.phase, e.start, e.end) for e in entries],
        title="Figure 5: timeline of a DUROC submission",
    )
