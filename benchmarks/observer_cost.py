"""What each observer costs on the host, alone and together.

``PYTHONPATH=src python -m benchmarks.observer_cost``: the 40-request
load of ``benchmarks/wall``'s ``coalloc_observed`` run bare, under each
observer alone, and under all four.  Host time on a shared box, so not a
gate: docs/OBSERVABILITY.md "What observing costs" quotes the table, and
tests/test_observer_cost.py (counts) is what holds the observers to it.
A separate pass runs each row once more under ``tracemalloc`` and prints
its traced peak and, where the monitors record, the log's bytes per
observation; the timed repeats run untraced.
"""

import gc
import sys
import tracemalloc

from benchmarks.wall import clock
from benchmarks.wall.workloads import BY_NAME, COALLOC_SITES
from repro.core.request import CoAllocationRequest
from repro.gridenv import GridBuilder
from repro.obs.flightrec import FlightRecorder
from repro.verify.runner import verify_recorder

SEED, REPEATS = 42, 9
CONFIGS = {  # row -> (tracer on, what it attaches to the builder)
    "bare": (False, lambda b: b),
    "tracer": (True, lambda b: b),
    "monitors": (False, lambda b: b.with_monitors()),
    "profiling": (False, lambda b: b.with_profiling()),
    "flight recorder": (False, lambda b: b.with_probe(FlightRecorder())),
    "all four": (True, lambda b: b.with_monitors().with_profiling().with_probe(FlightRecorder())),
}


def bytes_per_observation(events: list) -> float:
    """sys.getsizeof over the monitors' log: the list, each event, and
    every distinct object the events hold (the measure
    tests/test_observer_cost.py bounds)."""
    seen, total, stack = set(), 0, [events]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total / len(events)


def start(config: str, inputs: dict):
    """``config``'s grid with the load's agents started, not yet run."""
    trace, observe = CONFIGS[config]
    builder = GridBuilder(seed=SEED, trace=trace).add_machines("RM", COALLOC_SITES, nodes=64)
    grid = observe(builder).build()
    duroc = grid.duroc()

    def agent(request):
        job = duroc.submit(request)
        yield from job.commit()
        yield from job.wait_done()

    for text in inputs["rsl"]:
        grid.process(agent(CoAllocationRequest.from_rsl(text)))
    return grid


def finish(grid, config: str) -> None:
    """Run the load; the monitors' verdict is part of observing."""
    grid.run()
    if grid.recorder is not None:
        verify_recorder(grid.recorder, config, flightrec=grid.flightrec)


def one_repeat(config: str, inputs: dict) -> float:
    """Host seconds of one run of the load (grid build and parsing excluded)."""
    grid = start(config, inputs)
    started = clock.now()
    finish(grid, config)
    return clock.now() - started


def memory(config: str, inputs: dict) -> tuple[float, float]:
    """Traced peak MiB of one run of the load, grid build included, and
    the monitors' bytes per observation (0.0 for a row without them)."""
    gc.collect()
    tracemalloc.start()
    try:
        grid = start(config, inputs)
        finish(grid, config)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return peak, bytes_per_observation(grid.recorder.events) if grid.recorder else 0.0


if __name__ == "__main__":
    inputs = BY_NAME["coalloc_observed"].generate(SEED, BY_NAME["coalloc_observed"].load)
    times, calibs = {config: [] for config in CONFIGS}, []
    for _ in range(REPEATS):  # interleaved, so a noisy spell lands on every row alike
        calibs.append(clock.calibrate())
        for config in CONFIGS:
            # Twice, the second timed: it collects its own row's garbage, not the last row's.
            times[config].append((one_repeat(config, inputs), one_repeat(config, inputs))[1])
    ref = {c: clock.to_reference(clock.quiet(t), clock.quiet(calibs)) for c, t in times.items()}
    print(f"| observer | ref-s (quiet of {REPEATS}) | over bare | traced peak MiB | log B/obs |")
    print("|---|---|---|---|---|")
    for config, seconds in ref.items():
        peak, per_obs = memory(config, inputs)
        log = f"{per_obs:.0f}" if per_obs else ""
        print(f"| {config} | {seconds:.3f} | {seconds / ref['bare'] - 1:+.0%} | {peak:.2f} | {log} |")
