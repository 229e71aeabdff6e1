"""Host clock, peak memory and the calibration loop.

This is the only file of the observatory that reads the host clock or
``resource``; every read is fenced for the ``det-wallclock`` lint.
Everything else in ``benchmarks/wall`` takes its times from here, so a
reviewer auditing "where can wall-clock leak in" reads one file.

Raw wall time on a shared two-core box moves by tens of percent as
neighbours come and go, far more than any change this benchmark is
meant to resolve.  Two defences, both here:

* The calibration loop is a fixed amount of pure-Python work of the
  kind the simulator does — heap push/pop, generator resume, small
  objects allocated, linked and dropped, dict stores — over a working
  set of a few MB, so that it feels cache and memory contention the way
  the simulator's object graph does.  It runs between every two
  measured regions.  A time divided by the pass's calibration time,
  times :data:`CALIB_REF_S`, is in *reference seconds*: what it would
  have taken had the loop run at its nominal speed.
* Disturbances come in bursts shorter than a pass, so both the measured
  times and the calibrations of a pass are summarised by
  :func:`quiet` — the observation a quarter of the way up — which a
  burst covering less than three quarters of the pass does not move.
"""

from __future__ import annotations

import heapq
import resource
import time
from typing import Iterable

#: Nominal duration of one calibration loop.  Only a scale factor: it
#: makes reference seconds read like seconds on a machine where the loop
#: takes this long.
CALIB_REF_S = 0.300

#: The calibration loop's size (fixed: the loop is the yardstick).
CALIB_ITERS = 120_000
CALIB_HEAP = 40_000
CALIB_SLOTS = 1 << 16


def now() -> float:
    """Monotonic host seconds."""
    return time.perf_counter()  # repro: noqa det-wallclock


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter, in MiB, since the last reset."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Start a new high-water mark, so a repeat's peak is its own.

    Linux resets it on a write of ``5`` to ``clear_refs``; where that is
    not offered the mark stays the process's, calibration loops and all.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


class _Cell:
    __slots__ = ("tick", "index", "prev")

    def __init__(self, tick: int, index: int, prev: "_Cell | None") -> None:
        self.tick = tick
        self.index = index
        self.prev = prev


def _ticker():
    tick = 0
    while True:
        tick += 1
        yield tick


def calibrate() -> float:
    """Time one calibration loop; returns host seconds."""
    heap = [((i * 7919) % 100003, i) for i in range(CALIB_HEAP)]
    heapq.heapify(heap)
    table: dict[int, _Cell] = {}
    resume = _ticker().__next__
    push, pop = heapq.heappush, heapq.heappop
    mask = CALIB_SLOTS - 1
    prev = None
    start = time.perf_counter()  # repro: noqa det-wallclock
    for i in range(CALIB_ITERS):
        push(heap, ((i * 7919) % 100003, i))
        # Chains of up to eight cells, so frees come in runs as they do
        # when a finished request lets go of its events.
        table[(i * 31) & mask] = prev = _Cell(resume(), i, prev if i & 7 else None)
        pop(heap)
    return time.perf_counter() - start  # repro: noqa det-wallclock


def quiet(values: Iterable[float]) -> float:
    """The observation a quarter of the way up: the undisturbed speed."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 4]


def to_reference(wall_s: float, calib_s: float) -> float:
    """``wall_s`` in reference seconds, given the pass's calibration time."""
    return wall_s / calib_s * CALIB_REF_S
