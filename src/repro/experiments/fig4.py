"""Figure 4: DUROC submission time vs subjob count.

Paper setup: total process count fixed at 64, subjob count varied from
1 to 25; submission time measured "by starting a timer ... immediately
before calling the co-allocation function and then stopping this timer
on receipt of a message sent from an application process immediately
upon exiting the co-allocation barrier".

Reported shape:

* co-allocation time is essentially independent of the number of
  processes but **linear** in the number of subjobs (each subjob is a
  distinct, sequentially submitted GRAM request);
* pipelining of the non-serial phases makes M subjobs cheaper than
  M independent GRAM requests ("44% less time ... than one would
  expect with zero concurrency": 1 subjob = 2 s, 25 subjobs = 28 s,
  versus 50 s at zero concurrency);
* the average barrier wait is approximately half the total job latency
  (the §4.2 analytic model, see :mod:`repro.experiments.model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.report import format_table, linear_fit
from repro.workloads.scenarios import run, split_coallocation


@dataclass(frozen=True)
class Fig4Row:
    subjobs: int
    processes: int
    #: submit → barrier release (the paper's measured series).
    duroc_time: float
    #: M × (single-subjob time): the zero-concurrency expectation
    #: (the paper's "GRAM * count" line).
    zero_concurrency: float
    #: The §4.2 analytic model k·M + c fitted from the measured series.
    synthetic: float
    #: Mean per-process barrier wait (the paper's "Avg. barrier wait").
    avg_barrier_wait: float


def measure_duroc(
    subjobs: int, total_processes: int = 64, seed: int = 0
) -> tuple[float, float]:
    """(total time, avg barrier wait) for one M-subjob co-allocation."""
    grid, (_, result) = run(split_coallocation(subjobs, total_processes), seed)
    waits = [wait for (_slot, _rank, wait) in result.barrier_waits()]
    grid.close()
    avg_wait = sum(waits) / len(waits)
    return result.released_at, avg_wait


def run_fig4(
    subjob_counts: Sequence[int] = (1, 2, 4, 6, 8, 10, 12, 16, 20, 25),
    total_processes: int = 64,
    seed: int = 0,
) -> list[Fig4Row]:
    """Regenerate the Figure 4 series."""
    measured: dict[int, tuple[float, float]] = {}
    for subjobs in subjob_counts:
        measured[subjobs] = measure_duroc(subjobs, total_processes, seed)
    t_single = measured[min(subjob_counts)][0] / min(subjob_counts)
    slope, intercept, _ = linear_fit(
        list(measured), [t for t, _ in measured.values()]
    )
    return [
        Fig4Row(
            subjobs=m,
            processes=total_processes,
            duroc_time=measured[m][0],
            zero_concurrency=t_single * m,
            synthetic=slope * m + intercept,
            avg_barrier_wait=measured[m][1],
        )
        for m in subjob_counts
    ]


def pipelining_savings(rows: Sequence[Fig4Row]) -> float:
    """Fraction saved at max subjob count vs zero concurrency (paper: 0.44)."""
    last = max(rows, key=lambda r: r.subjobs)
    return 1.0 - last.duroc_time / last.zero_concurrency


def render(rows: Sequence[Fig4Row]) -> str:
    table = format_table(
        headers=(
            "subjobs",
            "DUROC (s)",
            "zero-concurrency (s)",
            "synthetic (s)",
            "avg barrier wait (s)",
        ),
        rows=[
            (r.subjobs, r.duroc_time, r.zero_concurrency, r.synthetic,
             r.avg_barrier_wait)
            for r in rows
        ],
        title=(
            "Figure 4: DUROC submission time vs subjob count "
            f"({rows[0].processes} processes total)"
        ),
    )
    savings = pipelining_savings(rows)
    return table + (
        f"\npipelining saves {savings:.0%} vs zero concurrency "
        "(paper: 44%)"
    )
