"""What the cycle collector costs each workload on the host.

``PYTHONPATH=src python -m benchmarks.collector_cost``: every workload
of ``benchmarks/wall`` at full load, with each collection timed through
``gc.callbacks`` — the one collector hook touched; no threshold, freeze
or disable (a full collection before each repeat, as the observatory's
harness makes, so a repeat pays for its own garbage only).  Each
repeat's peak RSS is read as the observatory reads it (the high-water
mark reset after that collection), so garbage that waits for the
collector shows up as memory too; next to it stands the RSS the repeat
starts from (the mark read right after the reset).  A peak little above
its start is the interpreter's floor, and no saving can show there: a
separate ``tracemalloc`` pass per workload, one more repeat after all
the timed ones, prints the traced peak, which shows what the repeat
itself holds.  ``cProfile``
cannot show this layer: a pause is charged to whichever constructor
happened to trigger it.  Host time on a shared box, so not a gate:
EXPERIMENTS.md "Host cost" and ROADMAP item 4 quote the table.  The
remedy for a large share is fewer collector-tracked objects per live
entity and release at termination, never a ``gc`` setting under ``src/``.
"""

import gc
import tracemalloc
from typing import NamedTuple

from benchmarks.wall import clock
from benchmarks.wall.workloads import WORKLOADS

SEED, REPEATS = 42, 3


class CollectorMeter:
    """A ``gc.callbacks`` entry: seconds, runs per generation, objects freed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.runs = [0, 0, 0]
        self.freed_by_full = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = clock.now()
            return
        self.seconds += clock.now() - self._started
        self.runs[info["generation"]] += 1
        if info["generation"] == 2:
            self.freed_by_full += info["collected"]


class Repeat(NamedTuple):
    run_s: float
    start_rss_mb: float
    peak_rss_mb: float
    meter: CollectorMeter


def one_repeat(workload) -> Repeat:
    """Host seconds of one ``run`` (inputs and grid build excluded), the
    RSS in MiB the repeat starts from and its peak (build included), and
    its meter."""
    gc.collect()  # as the observatory does: a repeat collects its own garbage only
    clock.reset_peak_rss()
    start_rss = clock.peak_rss_mb()  # the reset mark is the current RSS
    world = workload.build(workload.generate(SEED, workload.load))
    meter = CollectorMeter()
    gc.callbacks.append(meter)
    started = clock.now()
    try:
        workload.run(world)
        return Repeat(clock.now() - started, start_rss, clock.peak_rss_mb(), meter)
    finally:
        gc.callbacks.remove(meter)


def traced_peak_mb(workload) -> float:
    """Peak ``tracemalloc`` bytes of one repeat (build included), in MiB.

    A pass of its own: tracing slows every allocation, so the timed
    repeats run without it.
    """
    gc.collect()
    tracemalloc.start()
    try:
        workload.run(workload.build(workload.generate(SEED, workload.load)))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def span(values, fmt: str) -> str:
    low, high = format(min(values), fmt), format(max(values), fmt)
    return low if low == high else f"{low}–{high}"


def row(workload, repeats: list[Repeat], traced_mb: float) -> str:
    meters = [r.meter for r in repeats]
    runs = [[meter.runs[gen] for meter in meters] for gen in range(3)]
    rss = " / ".join(f"{r.start_rss_mb:.1f} → {r.peak_rss_mb:.1f}" for r in repeats)
    return (
        f"| {workload.name} | {span([r.run_s for r in repeats], '.2f')} "
        f"| {span([m.seconds for m in meters], '.2f')} "
        f"| {span([m.seconds / r.run_s for r, m in zip(repeats, meters)], '.0%')} "
        f"| {span(runs[0], 'd')} | {span(runs[1], 'd')} | {span(runs[2], 'd')} "
        f"| {span([m.freed_by_full for m in meters], 'd')} "
        f"| {rss} | {traced_mb:.2f} |"
    )


if __name__ == "__main__":
    # Every timed repeat first: tracemalloc's own tables would stay in
    # the RSS of every repeat after them.
    timed = [[one_repeat(workload) for _ in range(REPEATS)] for workload in WORKLOADS]
    traced = [traced_peak_mb(workload) for workload in WORKLOADS]
    print(
        f"| workload | run s ({REPEATS} repeats) | in the collector s | share "
        "| gen-0 | gen-1 | full | freed by full | RSS start → peak MiB "
        "| traced peak MiB |\n"
        "|---|---|---|---|---|---|---|---|---|---|"
    )
    for workload, repeats, traced_mb in zip(WORKLOADS, timed, traced):
        print(row(workload, repeats, traced_mb))
