"""§4.2's analytic barrier-wait model and its empirical validation.

The paper models GRAM as imposing a per-subjob transaction latency k
and then starting all of a subjob's processes instantaneously, so
processes start in per-subjob batches and all wait for the final batch:

    average wait  =  (1/N) · Σ_i  (N/M) · k·i  ≈  k·M / 2

with total job latency k·M.  Three verifiable predictions:

1. the average barrier wait is approximately half the total job latency;
2. per-process barrier waits occur in per-subjob blocks;
3. the shortest wait is (approximately) zero — the last subjob's
   processes barely wait.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.report import format_table
from repro.workloads.scenarios import run, split_coallocation


@dataclass(frozen=True)
class ModelRow:
    subjobs: int
    total_time: float
    avg_wait: float
    #: The model's prediction: total/2.
    predicted_wait: float
    min_wait: float
    #: Were the waits grouped in per-subjob blocks?
    block_structured: bool


def barrier_wait_profile(
    subjobs: int, total_processes: int = 64, seed: int = 0
) -> tuple[float, list[tuple[int, int, float]]]:
    """(total time, per-process (slot, rank, wait) list) for one run."""
    grid, (_, result) = run(split_coallocation(subjobs, total_processes), seed)
    waits = result.barrier_waits()
    grid.close()
    return result.released_at, waits


def waits_are_block_structured(
    waits: Sequence[tuple[int, int, float]], tolerance: float = 0.2
) -> bool:
    """§4.2: "the raw data occur in per-subjob blocks".

    Within one subjob all processes wait nearly the same time (spread
    below ``tolerance`` of the overall range), and subjob means are
    ordered by submission order (earlier subjobs wait longer).
    """
    by_slot: dict[int, list[float]] = {}
    for slot, _rank, wait in waits:
        by_slot.setdefault(slot, []).append(wait)
    all_waits = [w for _, _, w in waits]
    scale = max(max(all_waits) - min(all_waits), 1e-9)
    for slot_waits in by_slot.values():
        if (max(slot_waits) - min(slot_waits)) / scale > tolerance:
            return False
    means = [sum(v) / len(v) for _, v in sorted(by_slot.items())]
    return all(a >= b - 1e-9 for a, b in zip(means, means[1:]))


def run_model(
    subjob_counts: Sequence[int] = (2, 4, 8, 16, 25),
    total_processes: int = 64,
    seed: int = 0,
) -> list[ModelRow]:
    """Validate the analytic model across subjob counts."""
    rows = []
    for subjobs in subjob_counts:
        total, waits = barrier_wait_profile(subjobs, total_processes, seed)
        wait_values = [w for _, _, w in waits]
        rows.append(
            ModelRow(
                subjobs=subjobs,
                total_time=total,
                avg_wait=sum(wait_values) / len(wait_values),
                predicted_wait=total / 2.0,
                min_wait=min(wait_values),
                block_structured=waits_are_block_structured(waits),
            )
        )
    return rows


def render(rows: Sequence[ModelRow]) -> str:
    return format_table(
        headers=(
            "subjobs",
            "total (s)",
            "avg wait (s)",
            "model total/2 (s)",
            "min wait (s)",
            "per-subjob blocks",
        ),
        rows=[
            (r.subjobs, r.total_time, r.avg_wait, r.predicted_wait,
             r.min_wait, "yes" if r.block_structured else "NO")
            for r in rows
        ],
        title="§4.2 analytic model: average barrier wait ≈ k·M/2",
    )
