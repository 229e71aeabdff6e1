"""What the cycle collector costs each workload on the host.

``PYTHONPATH=src python -m benchmarks.collector_cost``: every workload
of ``benchmarks/wall`` at full load, with each collection timed through
``gc.callbacks`` — the one collector hook touched; no threshold, freeze
or disable (a full collection before each repeat, as the observatory's
harness makes, so a repeat pays for its own garbage only).  ``cProfile``
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


def one_repeat(workload) -> tuple[float, CollectorMeter]:
    """Host seconds of one ``run`` (inputs and grid build excluded) and its meter."""
    gc.collect()  # as the observatory does: a repeat collects its own garbage only
    world = workload.build(workload.generate(SEED, workload.load))
    meter = CollectorMeter()
    gc.callbacks.append(meter)
    started = clock.now()
    try:
        workload.run(world)
        return clock.now() - started, meter
    finally:
        gc.callbacks.remove(meter)


def span(values, fmt: str) -> str:
    low, high = format(min(values), fmt), format(max(values), fmt)
    return low if low == high else f"{low}–{high}"


if __name__ == "__main__":
    print(
        f"| workload | run s ({REPEATS} repeats) | in the collector s | share "
        "| gen-0 | gen-1 | full | freed by full |\n|---|---|---|---|---|---|---|---|"
    )
    for workload in WORKLOADS:
        repeats = [one_repeat(workload) for _ in range(REPEATS)]
        runs = [[meter.runs[gen] for _, meter in repeats] for gen in range(3)]
        print(
            f"| {workload.name} | {span([s for s, _ in repeats], '.2f')} "
            f"| {span([m.seconds for _, m in repeats], '.2f')} "
            f"| {span([m.seconds / s for s, m in repeats], '.0%')} "
            f"| {span(runs[0], 'd')} | {span(runs[1], 'd')} | {span(runs[2], 'd')} "
            f"| {span([m.freed_by_full for _, m in repeats], 'd')} |"
        )
