"""A finished §4.3 scenario is freed by reference counting alone.

The SF-Express sweep builds a 13-machine, 1 386-process grid per
(strategy, seed) cell, in a forked worker or, on one CPU, here.  Once
its row is read, ``Grid.close()`` ends the world; dropping it must then
free every process, mailbox, receive, timer, process context and span
at once.  The collector is switched off here, so only reference counts
can free anything.
"""

import gc
import importlib
import os

import pytest

from repro.core.request import CoAllocationRequest, SubjobSpec
from repro.experiments.apps import failure_cell, sweep_failure_rate
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.machine.faults import FailureModel
from repro.machine.host import ProcessContext
from repro.net.address import Endpoint
from repro.net.transport import Port
from repro.simcore import Process, Span, Store
from repro.simcore.resources import StoreGet, _Deadline
from repro.workloads.scenarios import run, sf_express

KINDS = (Process, Store, StoreGet, _Deadline, ProcessContext, Span)


def alive(cls):
    """Instances of exactly ``cls`` the interpreter still holds (kernel
    events are slotted, so they cannot be weakly referenced)."""
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def run_scenario(strategy):
    """One sweep cell, traced so that its spans must be freed too."""
    return run(
        sf_express(
            failure_model=FailureModel(p_unavailable=0.3),
            strategy=strategy,
            startup=30.0,
            subjob_timeout=120.0,
        ),
        0,
        {"trace"},
    )


#: What a process's first scenario imports on the way: numpy on its
#: first draw, and the agents and directory ``sf_express`` drives with.
LAZY_IMPORTS = (
    "numpy.random",
    "repro.broker.atomic_agent",
    "repro.broker.interactive_agent",
    "repro.mds.directory",
)


@pytest.fixture
def collector_off():
    # Imported with the collector on: a module's import-time cycles are
    # not garbage the scenario left behind.
    for module in LAZY_IMPORTS:
        importlib.import_module(module)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield {cls: alive(cls) for cls in KINDS}
    finally:
        if was_enabled:
            gc.enable()


def extra(baseline):
    return {cls.__name__: alive(cls) - count for cls, count in baseline.items()}


# Seed 0 at 30 % unavailability: the atomic agent aborts and resubmits
# (collective kills), the interactive one substitutes spares.
@pytest.mark.parametrize("strategy", ["atomic", "interactive"])
def test_a_closed_scenario_leaves_nothing_behind(collector_off, strategy):
    grid, outcome = run_scenario(strategy)
    assert outcome.success and outcome.attempts + outcome.substitutions > 1
    assert extra(collector_off)["Process"] > 1_000
    assert extra(collector_off)["Span"] > 1_000
    grid.close()
    del grid, outcome
    assert set(extra(collector_off).values()) == {0}
    assert gc.collect() == 0


def test_an_unclosed_scenario_waits_for_the_collector(collector_off):
    """Why the sweeps close: a dropped grid is one big cycle."""
    grid, outcome = run_scenario("interactive")
    del grid, outcome
    assert extra(collector_off)["Process"] > 1_000
    assert gc.collect() > 10_000


def test_the_sweep_frees_each_grid_as_its_row_is_made(collector_off, monkeypatch):
    """A sweep's cell closes its world before it returns the row, here
    and in a worker alike; the inline sweep runs cell after cell."""
    row = failure_cell((0.3, "atomic", 0, 30.0, 120.0))
    assert set(extra(collector_off).values()) == {0}
    # One CPU: map_cells runs the cells in this process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    rows = sweep_failure_rate(probabilities=(0.3,), seeds=(0,))
    assert [row.strategy for row in rows] == ["atomic", "interactive"]
    assert rows[0] == row
    assert set(extra(collector_off).values()) == {0}


def test_a_grid_closed_mid_request_empties_its_tables_and_is_freed(collector_off):
    """Closed while a subjob is still starting: its check-in deadline
    is a queued kernel timer whose callback is the request's method."""
    grid = (
        GridBuilder(seed=1).add_machine("RM1", nodes=8).add_machine("RM2", nodes=8).build()
    )
    grid.machine("RM2").overload(100.0)
    duroc = grid.duroc()
    request = CoAllocationRequest([
        SubjobSpec(contact=grid.site(name).contact, count=4,
                   executable=DEFAULT_EXECUTABLE, timeout=500.0)
        for name in ("RM1", "RM2")
    ])

    def agent(env):
        job = duroc.submit(request)
        return (yield from job.commit())

    grid.process(agent(grid.env))
    grid.run(until=5.0)
    job = duroc.jobs[0]
    assert job.state.value == "committing"
    assert any(slot.deadline is not None for slot in job.slots)
    # A receive no process waits on, queued at a bound mailbox.
    orphan = Port(grid.network, Endpoint(grid.client_host, "orphan")).recv()
    mailbox = orphan.resource
    assert grid.machine("RM1").processes and grid.site("RM1").scheduler.leases
    grid.close()
    assert not grid.network._mailboxes and not mailbox._waiters
    assert not grid.machine("RM1").processes and not grid.site("RM1").scheduler.leases
    assert not duroc.jobs
    del job, orphan, mailbox, grid, duroc, request, agent
    assert set(extra(collector_off).values()) == {0}
    assert gc.collect() == 0
