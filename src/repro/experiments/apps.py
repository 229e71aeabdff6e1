"""§4.3 application experiences as measurable experiments.

The paper's application claims, made quantitative:

* **Atomic vs interactive under failures** (:func:`sweep_failure_rate`)
  — the SF-Express-style 13-machine run with randomly unavailable
  machines: GRAB must abort and restart the whole transaction; DUROC
  configures around the failures.  "On several occasions, we had
  actually acquired an acceptable number of resources, but then had to
  abort and restart the simulation due to failure or slowness of a
  single resource."

* **Restart cost vs startup time** (:func:`sweep_startup_cost`) — "As
  startup and initialization of large simulations on large parallel
  computers can take 15 minutes or more, the cost inherent in such
  unnecessary restarts is tremendous."  One machine is slow; the sweep
  varies how long startup takes and compares time-to-start.

* **The §2 motivating scenario** (:func:`run_motivating`) — five
  machines, one crashed (replaced from a dynamically located spare),
  one overloaded (dropped at the startup deadline), computation
  proceeds at reduced fidelity.

* **Microtomography** (:func:`run_microtomography`) — instrument +
  computers + optional displays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.request import SubjobType
from repro.core.states import SubjobState
from repro.experiments.report import format_table
from repro.faults import Overload
from repro.machine.faults import FailureModel
from repro.workloads.scenarios import (
    SF_EXPRESS_COUNTS,
    microtomography,
    motivating_scenario,
    run,
    sf_express,
)


@dataclass(frozen=True)
class AppRow:
    strategy: str
    p_unavailable: float
    seed: int
    success: bool
    time_to_start: Optional[float]
    attempts: int
    substitutions: int
    dropped: int
    started_processes: int


def sweep_failure_rate(
    probabilities: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    strategies: Sequence[str] = ("atomic", "interactive"),
    seeds: Sequence[int] = (0, 1, 2),
    startup: float = 30.0,
    subjob_timeout: float = 120.0,
) -> list[AppRow]:
    """SF-Express sweep: machine unavailability vs strategy."""
    rows: list[AppRow] = []
    for p in probabilities:
        for strategy in strategies:
            for seed in seeds:
                grid, outcome = run(
                    sf_express(
                        failure_model=FailureModel(p_unavailable=p),
                        strategy=strategy,
                        startup=startup,
                        subjob_timeout=subjob_timeout,
                    ),
                    seed,
                )
                rows.append(
                    AppRow(
                        strategy=strategy,
                        p_unavailable=p,
                        seed=seed,
                        success=outcome.success,
                        time_to_start=outcome.elapsed if outcome.success else None,
                        attempts=outcome.attempts,
                        substitutions=outcome.substitutions,
                        dropped=outcome.dropped,
                        started_processes=outcome.started_processes,
                    )
                )
                grid.close()
    return rows


def summarize_sweep(rows: Sequence[AppRow]) -> list[tuple]:
    """Aggregate the sweep per (p, strategy): success rate + mean time."""
    keys = sorted({(r.p_unavailable, r.strategy) for r in rows})
    summary = []
    for p, strategy in keys:
        group = [r for r in rows if r.p_unavailable == p and r.strategy == strategy]
        successes = [r for r in group if r.success]
        mean_time = (
            sum(r.time_to_start for r in successes) / len(successes)
            if successes
            else float("nan")
        )
        summary.append(
            (
                p,
                strategy,
                len(successes) / len(group),
                mean_time,
                sum(r.attempts for r in group) / len(group),
                sum(r.substitutions for r in group) / len(group),
                sum(r.started_processes for r in successes) / max(len(successes), 1),
            )
        )
    return summary


def render_sweep(rows: Sequence[AppRow]) -> str:
    return format_table(
        headers=(
            "p(down)", "strategy", "success", "mean start (s)",
            "attempts", "substitutions", "procs started",
        ),
        rows=summarize_sweep(rows),
        title=(
            "SF-Express co-allocation (13 machines, "
            f"{sum(SF_EXPRESS_COUNTS)} processes): atomic vs interactive"
        ),
    )


# ---------------------------------------------------------------------------
# Restart-cost sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestartRow:
    startup: float
    atomic_time: Optional[float]
    interactive_time: Optional[float]
    atomic_waste: float
    interactive_waste: float

    @property
    def time_penalty(self) -> float:
        """How many times longer atomic takes to start."""
        if not self.atomic_time or not self.interactive_time:
            return float("nan")
        return self.atomic_time / self.interactive_time

    @property
    def waste_penalty(self) -> float:
        """How many times more node-seconds atomic throws away."""
        if self.interactive_waste <= 0:
            return float("inf")
        return self.atomic_waste / self.interactive_waste


def wasted_node_seconds(grid) -> float:
    """Node-seconds consumed by GRAM jobs that were started then killed.

    This is the paper's "tremendous" cost made measurable: every atomic
    abort discards the startup work of every machine that *had*
    started, and the restart repeats it.
    """
    from repro.gram.states import JobState

    total = 0.0
    for site in grid.sites.values():
        for manager in site.gatekeeper.job_managers.values():
            job = manager.job
            if job.state is JobState.FAILED and job.active_at is not None:
                end = job.finished_at if job.finished_at is not None else grid.now
                total += job.count * max(0.0, end - job.active_at)
    return total


def sweep_startup_cost(
    startup_times: Sequence[float] = (30.0, 120.0, 450.0, 900.0),
    slow_machines: Sequence[str] = ("RM5", "RM7", "RM9"),
    seeds: Sequence[int] = (0,),
) -> list[RestartRow]:
    """Several machines are overloaded; sweep how expensive startup is.

    The subjob timeout tracks startup (2x), as a reasonable deadline
    policy would.  The atomic strategy discovers slowness only at the
    timeout, aborts the *whole* run — wasting every healthy machine's
    startup — and each retry removes only the one machine blamed for
    the abort, so with k slow machines it restarts k times.  The
    interactive strategy replaces all late subjobs concurrently in a
    single pass while the healthy subjobs keep waiting in the barrier.
    """
    rows = []
    for startup in startup_times:
        times: dict[str, list[float]] = {"atomic": [], "interactive": []}
        waste: dict[str, list[float]] = {"atomic": [], "interactive": []}
        for seed in seeds:
            for strategy in ("atomic", "interactive"):
                scenario = sf_express(
                    strategy=strategy,
                    startup=startup,
                    subjob_timeout=startup * 2,
                    max_attempts=len(slow_machines) + 2,
                )
                grid, outcome = run(
                    replace(scenario, faults=tuple(
                        Overload(name, 50.0) for name in slow_machines
                    )),
                    seed,
                )
                if outcome.success:
                    times[strategy].append(outcome.elapsed)
                waste[strategy].append(wasted_node_seconds(grid))
                grid.close()

        def mean(values: list[float]) -> Optional[float]:
            return sum(values) / len(values) if values else None

        rows.append(
            RestartRow(
                startup=startup,
                atomic_time=mean(times["atomic"]),
                interactive_time=mean(times["interactive"]),
                atomic_waste=mean(waste["atomic"]) or 0.0,
                interactive_waste=mean(waste["interactive"]) or 0.0,
            )
        )
    return rows


def render_restart(rows: Sequence[RestartRow]) -> str:
    return format_table(
        headers=(
            "startup (s)",
            "atomic (s)",
            "interactive (s)",
            "time penalty",
            "atomic waste (node-s)",
            "interactive waste (node-s)",
        ),
        rows=[
            (
                r.startup,
                r.atomic_time if r.atomic_time is not None else "failed",
                r.interactive_time if r.interactive_time is not None else "failed",
                r.time_penalty,
                r.atomic_waste,
                r.interactive_waste,
            )
            for r in rows
        ],
        title="Cost of atomic restarts vs startup time (three slow machines)",
    )


# ---------------------------------------------------------------------------
# Narrative scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MotivatingResult:
    success: bool
    substitutions: int
    dropped: int
    processes: int
    time_to_start: float
    log: tuple[str, ...]


def run_motivating(seed: int = 0) -> MotivatingResult:
    """The §2 story, end to end."""
    grid, outcome = run(motivating_scenario(), seed)
    grid.close()
    return MotivatingResult(
        success=outcome.success,
        substitutions=outcome.substitutions,
        dropped=outcome.dropped,
        processes=outcome.started_processes,
        time_to_start=outcome.elapsed,
        log=tuple(outcome.log),
    )


def render_motivating(result: MotivatingResult) -> str:
    return "\n".join(
        [
            "§2 motivating scenario (400 processors on five machines)",
            f"  success:        {result.success}",
            f"  substitutions:  {result.substitutions} (crashed machine replaced)",
            f"  dropped:        {result.dropped} (overloaded machine missed deadline)",
            f"  processes:      {result.processes} of 400 (reduced fidelity)",
            f"  time to start:  {result.time_to_start:.1f} s",
        ]
        + [f"  log: {line}" for line in result.log]
    )


@dataclass(frozen=True)
class TomoResult:
    success: bool
    released_sizes: tuple[int, ...]
    optional_joined_late: int


def run_microtomography(seed: int = 0) -> TomoResult:
    """Instrument + computers + optional displays (paper [27])."""
    grid, (job, result) = run(microtomography(), seed)
    late = sum(
        1
        for slot in job.slots
        if slot.spec.start_type is SubjobType.OPTIONAL
        and slot.state is SubjobState.RELEASED
        and slot.released_at > result.released_at
    )
    grid.close()
    return TomoResult(
        success=True,
        released_sizes=result.sizes,
        optional_joined_late=late,
    )


def render_microtomography(result: TomoResult) -> str:
    return "\n".join(
        [
            "Microtomography run (instrument + 5 computers + 2 displays)",
            f"  released sizes:       {result.released_sizes}",
            f"  displays joined late: {result.optional_joined_late}",
        ]
    )
