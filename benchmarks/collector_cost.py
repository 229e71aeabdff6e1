"""What the cycle collector costs each workload on the host.

``PYTHONPATH=src python -m benchmarks.collector_cost``: every workload
of ``benchmarks/wall`` at full load, with each collection timed through
``gc.callbacks`` — the one collector hook touched; no threshold, freeze
or disable (a full collection before each repeat, as the observatory's
harness makes, so a repeat pays for its own garbage only).  Each
repeat's peak RSS is read as the observatory reads it (the high-water
mark reset after that collection), so garbage that waits for the
collector shows up as memory too.  ``cProfile``
cannot show this layer: a pause is charged to whichever constructor
happened to trigger it.  Host time on a shared box, so not a gate:
EXPERIMENTS.md "Host cost" and ROADMAP item 4 quote the table.  The
remedy for a large share is fewer collector-tracked objects per live
entity and release at termination, never a ``gc`` setting under ``src/``.
"""

import gc

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


def one_repeat(workload) -> tuple[float, float, CollectorMeter]:
    """Host seconds of one ``run`` (inputs and grid build excluded), the
    repeat's peak RSS in MiB (build included) and its meter."""
    gc.collect()  # as the observatory does: a repeat collects its own garbage only
    clock.reset_peak_rss()
    world = workload.build(workload.generate(SEED, workload.load))
    meter = CollectorMeter()
    gc.callbacks.append(meter)
    started = clock.now()
    try:
        workload.run(world)
        return clock.now() - started, clock.peak_rss_mb(), meter
    finally:
        gc.callbacks.remove(meter)


def span(values, fmt: str) -> str:
    low, high = format(min(values), fmt), format(max(values), fmt)
    return low if low == high else f"{low}–{high}"


if __name__ == "__main__":
    print(
        f"| workload | run s ({REPEATS} repeats) | in the collector s | share "
        "| gen-0 | gen-1 | full | freed by full | peak RSS MiB |\n"
        "|---|---|---|---|---|---|---|---|---|"
    )
    for workload in WORKLOADS:
        repeats = [one_repeat(workload) for _ in range(REPEATS)]
        runs = [[meter.runs[gen] for _, _, meter in repeats] for gen in range(3)]
        print(
            f"| {workload.name} | {span([s for s, _, _ in repeats], '.2f')} "
            f"| {span([m.seconds for _, _, m in repeats], '.2f')} "
            f"| {span([m.seconds / s for s, _, m in repeats], '.0%')} "
            f"| {span(runs[0], 'd')} | {span(runs[1], 'd')} | {span(runs[2], 'd')} "
            f"| {span([m.freed_by_full for _, _, m in repeats], 'd')} "
            f"| {' / '.join(format(rss, '.1f') for _, rss, _ in repeats)} |"
        )
