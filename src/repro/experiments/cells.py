"""A sweep's independent cells, run on every CPU.

A §4.3 sweep is a list of cells, each one whole, separately seeded
world that reads nothing another cell made.  :func:`map_cells` runs
them in forked workers, one per CPU this process may use, and returns
their rows in input order.  No simulation is split across processes:
each world runs start to end in one worker, on the single-threaded
kernel, so its event order is the one it has when run alone.

It runs the cells in this process instead when a pool cannot help
(fewer than two workers, no ``"fork"`` start method) or would hide the
work: a profiler or tracer attached here (``cProfile``, coverage, a
``sys.settrace`` ledger) sees only its own process.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Sequence, TypeVar

Cell = TypeVar("Cell")
Row = TypeVar("Row")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform: run inline
        return 1


def map_cells(fn: Callable[[Cell], Row], cells: Sequence[Cell]) -> list[Row]:
    """``[fn(cell) for cell in cells]``, the cells spread over forked workers.

    ``fn`` must be a module-level function and its rows picklable.  An
    exception a cell raises reaches the caller with its type, and no
    worker outlives the call.
    """
    workers = min(len(cells), _cpus())
    if workers < 2 or sys.getprofile() is not None or sys.gettrace() is not None:
        return [fn(cell) for cell in cells]
    # The one sanctioned det-threads site: each worker runs whole,
    # single-threaded worlds, so no event order depends on scheduling.
    # Imported here, on first use, so that no import of a sweep pays it.
    import multiprocessing  # repro: noqa det-threads

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(cell) for cell in cells]
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        # One cell per task: cells differ in cost by up to ten times.
        return pool.map(fn, cells, chunksize=1)
    finally:
        pool.close()
        pool.join()
