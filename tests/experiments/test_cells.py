"""A sweep's cells run in forked workers and make the rows they make alone.

``map_cells`` spreads the §4.3 sweeps' worlds over one forked worker per
CPU.  Each world must make the same row there as inline and as alone in
a fresh interpreter; a profiler or tracer keeps the work in this
process, where it can see it; and no worker outlives the call, whether
a cell returns or raises.
"""

import cProfile
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.experiments import apps
from repro.experiments.cells import map_cells
from repro.simcore.environment import Environment

SRC = Path(__file__).resolve().parents[2] / "src"

#: Small sweeps: seed 0 at 30 % unavailability aborts, resubmits and
#: substitutes; one slow machine makes the atomic agent restart once.
FAILURE = {"probabilities": (0.3,), "seeds": (0,)}
RESTART = {"startup_times": (30.0,), "slow_machines": ("RM5",)}


def cpus(patch, count):
    """Pretend this process may use ``count`` CPUs (fork works on one)."""
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def count_steps(patch):
    """Kernel events processed in *this* process from now on."""
    steps = [0]
    step = Environment.step

    def counting(self):
        steps[0] += 1
        step(self)

    patch.setattr(Environment, "step", counting)
    return steps


def sweeps():
    return apps.sweep_failure_rate(**FAILURE), apps.sweep_startup_cost(**RESTART)


@pytest.fixture(scope="module")
def parallel():
    with pytest.MonkeyPatch.context() as patch:
        cpus(patch, 2)
        steps = count_steps(patch)
        rows = sweeps()
    # Every world ran in a worker.
    assert steps == [0]
    assert not multiprocessing.active_children()
    return rows


def test_parallel_rows_equal_the_inline_rows(parallel, monkeypatch):
    cpus(monkeypatch, 1)
    steps = count_steps(monkeypatch)
    assert sweeps() == parallel
    assert steps[0] > 0


def fresh(script):
    return subprocess.Popen(
        [sys.executable, "-c", "from repro.experiments import apps\n" + script],
        env={"PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_each_cell_alone_in_a_fresh_interpreter_makes_the_same_row(parallel):
    failure_rows, (restart_row,) = parallel
    failure = [
        (0.3, strategy, 0, 30.0, 120.0) for strategy in ("atomic", "interactive")
    ]
    restart = [(30.0, strategy, 0, ("RM5",)) for strategy in ("atomic", "interactive")]
    children = [fresh(f"print(repr(apps.failure_cell({cell!r})))") for cell in failure]
    children += [fresh(f"print(repr(apps.restart_cell({cell!r})))") for cell in restart]
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        outputs.append(out.strip())
    assert outputs[:2] == [repr(row) for row in failure_rows]
    (atomic_time, atomic_waste), (interactive_time, interactive_waste) = (
        eval(out) for out in outputs[2:]
    )
    assert restart_row == apps.RestartRow(
        startup=30.0,
        atomic_time=atomic_time,
        interactive_time=interactive_time,
        atomic_waste=atomic_waste,
        interactive_waste=interactive_waste,
    )


def tiny_world(ticks):
    env = Environment()

    def ticker(env):
        for _ in range(ticks):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    return env.now


def steps_of(cells):
    """``step`` calls of the ``tiny_world`` cells: each process's start,
    a timeout per tick, its end, and the call that finds the queue empty."""
    return sum(cells) + 3 * len(cells)


def test_under_a_profiler_the_cells_run_here(monkeypatch):
    cpus(monkeypatch, 2)
    steps = count_steps(monkeypatch)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        rows = map_cells(tiny_world, [3, 1, 2])
    finally:
        profiler.disable()
    assert rows == [3.0, 1.0, 2.0]
    assert steps == [steps_of([3, 1, 2])]


def test_under_a_tracer_the_cells_run_here(monkeypatch):
    cpus(monkeypatch, 2)
    steps = count_steps(monkeypatch)
    calls = []

    def tracer(frame, event, arg):
        calls.append(frame.f_code.co_name)

    sys.settrace(tracer)
    try:
        rows = map_cells(tiny_world, [3, 1, 2])
    finally:
        sys.settrace(None)
    assert rows == [3.0, 1.0, 2.0]
    assert steps == [steps_of([3, 1, 2])]
    assert calls.count("tiny_world") == 3


def failing_world(ticks):
    if ticks == 2:
        raise SimulationError("cell 2 cannot start")
    return tiny_world(ticks)


def test_a_raising_cell_reaches_the_caller_and_leaves_no_worker(monkeypatch):
    cpus(monkeypatch, 2)
    with pytest.raises(SimulationError, match="cell 2 cannot start"):
        map_cells(failing_world, [1, 2, 3])
    assert not multiprocessing.active_children()
