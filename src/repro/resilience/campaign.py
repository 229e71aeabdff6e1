"""Deterministic fault campaigns: declarative chaos for the simulator.

A :class:`Campaign` is a name, a description and the set of
:class:`~repro.faults.FaultSpec` s to unleash.  The harness runs each
campaign as a seeded sweep of its :meth:`~Campaign.scenario` — one
fresh grid per trial, the paper's Figure-1-style request (two required
subjobs, one interactive, one optional, plus a spare site for
substitution) driven through DUROC by an
:class:`~repro.broker.InteractiveAgent` under a
:class:`~repro.resilience.RetryPolicy` — and reduces the outcomes to a
JSON report (success rate, degradation mode, retries used, time to
commit).

Everything is a function of the root seed: the same
``run_campaigns(seed=42)`` call produces a byte-identical report on
every run, which the CI chaos job asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Collection, Optional, Sequence

from repro.broker.interactive_agent import InteractiveAgent
from repro.core.request import SubjobType
from repro.errors import ReproError
from repro.faults import FaultSpec, HostCrash, MessageLoss, Overload, Partition, SlowLink
from repro.gridenv import DEFAULT_EXECUTABLE, Grid
from repro.resilience.policy import RetryPolicy
from repro.workloads.scenarios import Scenario, request_on, run

if TYPE_CHECKING:  # pragma: no cover
    from repro.prof.profile import Profile

#: Sites of the Figure-1-style testbed.  RM1/RM2 anchor the
#: computation (required), RM3 degrades gracefully (interactive, may be
#: substituted), RM4 joins opportunistically (optional), SPARE is the
#: substitution pool.
SITES = ("RM1", "RM2", "RM3", "RM4", "SPARE")

#: The trials' request (see :func:`~repro.workloads.scenarios.request_on`):
#: two required subjobs, one interactive and one optional (the shape of
#: the paper's Fig. 1).
REQUEST = (
    ("RM1", 4, DEFAULT_EXECUTABLE, SubjobType.REQUIRED, None),
    ("RM2", 4, DEFAULT_EXECUTABLE, SubjobType.REQUIRED, None),
    ("RM3", 4, DEFAULT_EXECUTABLE, SubjobType.INTERACTIVE, None),
    ("RM4", 2, DEFAULT_EXECUTABLE, SubjobType.OPTIONAL, None),
)

#: How long each trial runs on after the agent settles (drains late
#: optional joins and cancellations).
DRAIN_TIME = 30.0

#: The harness's retry policy: four attempts, jittered exponential
#: backoff, capped per-episode.
DEFAULT_POLICY = RetryPolicy(
    max_attempts=4, base_delay=0.5, multiplier=2.0, max_delay=8.0,
    jitter=0.1, deadline=60.0,
)

#: The co-allocator settings every trial runs under: how long a
#: submission may go unanswered, how long a subjob may take to check
#: in, and the liveness watch (a poll per second, two misses fail a
#: site).
SUBMIT_TIMEOUT = 3.0
SUBJOB_TIMEOUT = 120.0
HEARTBEAT_INTERVAL = 1.0
HEARTBEAT_MISSES = 2


@dataclass(frozen=True)
class Campaign:
    """One named fault scenario swept over seeds."""

    name: str
    description: str
    faults: tuple[FaultSpec, ...] = ()

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "faults": [spec.describe() for spec in self.faults],
            "retry": {
                "max_attempts": DEFAULT_POLICY.max_attempts,
                "base_delay": DEFAULT_POLICY.base_delay,
                "multiplier": DEFAULT_POLICY.multiplier,
                "max_delay": DEFAULT_POLICY.max_delay,
                "jitter": DEFAULT_POLICY.jitter,
                "deadline": DEFAULT_POLICY.deadline,
            },
        }

    def scenario(self) -> Scenario:
        """One trial: the four-site request under these faults, allocated
        by the interactive agent; the outcome is ``(agent outcome, job)``."""
        return Scenario(
            self.name,
            self.description,
            sites=tuple((site, 16) for site in SITES),
            drive=_drive,
            faults=self.faults,
            drain=DRAIN_TIME,
        )


#: The built-in campaign catalogue, keyed by name.
CAMPAIGNS: dict[str, Campaign] = {
    campaign.name: campaign
    for campaign in (
        Campaign(
            name="baseline",
            description="clean grid: every subjob commits, no retries",
        ),
        Campaign(
            name="message_loss",
            description="10% Bernoulli message loss on every link",
            faults=(MessageLoss(0.1),),
        ),
        Campaign(
            name="partition",
            description="optional site partitioned away mid-submission",
            faults=(Partition((("RM4",),), at=0.5, duration=45.0),),
        ),
        Campaign(
            name="crash",
            description="interactive site crashes during submission",
            faults=(HostCrash("RM3", at=1.0),),
        ),
        Campaign(
            name="overload",
            description="a required site is overloaded 20x at the barrier",
            faults=(Overload("RM2", factor=20.0),),
        ),
        Campaign(
            name="slow_link",
            description="client link to a required site is 100x slower",
            faults=(SlowLink("client", "RM2", latency=0.2),),
        ),
    )
}


def select_campaigns(names: Optional[Sequence[str]], trials: int) -> list[Campaign]:
    """The named campaigns (the whole catalogue, sorted, if none are
    named) for ``trials`` trials each; a typed error for a bad choice."""
    if trials < 1:
        raise ReproError(f"trials must be >= 1, got {trials!r}")
    selected = list(names) if names else sorted(CAMPAIGNS)
    unknown = [name for name in selected if name not in CAMPAIGNS]
    if unknown:
        raise ReproError(
            f"unknown campaign(s) {unknown}; pick from {sorted(CAMPAIGNS)}"
        )
    return [CAMPAIGNS[name] for name in selected]


def _drive(grid: Grid):
    duroc = grid.duroc(
        retry=DEFAULT_POLICY,
        submit_timeout=SUBMIT_TIMEOUT,
        default_subjob_timeout=SUBJOB_TIMEOUT,
        heartbeat_interval=HEARTBEAT_INTERVAL,
        heartbeat_misses=HEARTBEAT_MISSES,
    )
    agent = InteractiveAgent(duroc, spares=[grid.site("SPARE").contact])
    request = request_on(grid, *REQUEST)

    def scenario(env):
        outcome = yield from agent.allocate(request)
        return (outcome, duroc.jobs[0] if duroc.jobs else None)

    return scenario(grid.env)


def _record(seed: int, grid: Grid, trial: tuple[Any, Any]) -> dict[str, Any]:
    """One trial's ``(grid, outcome)`` reduced to its report record.

    The retry counts are read from the trace's metrics, so every trial
    runs with ``"trace"`` observed.
    """
    outcome, job = trial
    metrics = grid.tracer.metrics
    requested = len(REQUEST)
    released = len(job.released_slots()) if job is not None else 0
    record = {
        "seed": seed,
        "success": bool(outcome.success),
        "requested_subjobs": requested,
        "released_subjobs": released,
        "sizes": list(outcome.result.sizes) if outcome.result else [],
        "substitutions": outcome.substitutions,
        "dropped": outcome.dropped,
        "retries_used": int(metrics.counter("resilience.retries_total").total()),
        "exhausted_episodes": int(
            metrics.counter("resilience.exhausted_total").total()
        ),
        "time_to_commit": round(outcome.elapsed, 6) if outcome.success else None,
        "failure": outcome.failure,
        "degradation": _classify(outcome, requested, released),
    }
    if grid.flightrec is not None:
        from repro.obs.flightrec import dump_digest

        dumps = grid.flightrec.dumps
        record["flight_dump"] = {
            "trigger": dumps[0]["trigger"]["trigger"],
            "reason": dumps[0]["trigger"]["reason"],
            "time": dumps[0]["trigger"]["time"],
            "digest": dump_digest(dumps[0]),
            "dumps": len(dumps),
        } if dumps else None
    return record


def run_trial(
    campaign: Campaign, seed: int, observe: Collection[str] = ()
) -> dict[str, Any]:
    """One seeded trial of ``campaign``; returns its record.

    ``observe`` attaches observers by name (see
    :func:`repro.workloads.scenarios.run`); they never change the
    record (tested).  Under ``"flightrec"`` the record gains a
    ``flight_dump`` field summarizing the first triggered dump
    (trigger, reason, simulated time, canonical digest).
    """
    return _record(seed, *run(campaign.scenario(), seed, {"trace", *observe}))


def profile_trial(campaign: Campaign, seed: int) -> "Profile":
    """Profile one seeded trial of ``campaign``.

    The exact trial :func:`run_trial` runs, with op counters attached,
    reduced to a :class:`~repro.prof.profile.Profile` — the *where did
    the extra seconds go* artifact for a fault campaign.  Differencing
    a campaign's profile against ``baseline``'s attributes the cost of
    the injected faults to span paths (see ``python -m repro.prof``).
    """
    from repro.prof.profile import profile_grid

    grid, _ = run(campaign.scenario(), seed, {"profile"})
    return profile_grid(
        grid,
        meta={
            "source": "repro.resilience.campaign",
            "campaign": campaign.name,
            "scenario": "figure1",
            "seed": seed,
        },
    )


def _classify(outcome: Any, requested: int, released: int) -> str:
    """Reduce a trial to its degradation mode.

    ``none``        — full configuration, first try;
    ``substituted`` — full configuration via spare resources;
    ``degraded``    — committed, but with subjobs dropped (the paper's
    "decreased level of simulation fidelity");
    ``failed``      — the co-allocation aborted.
    """
    if not outcome.success:
        return "failed"
    if released < requested or outcome.dropped > 0:
        return "degraded"
    if outcome.substitutions > 0:
        return "substituted"
    return "none"


def run_campaigns(
    seed: int = 42,
    trials: int = 3,
    names: Optional[Sequence[str]] = None,
    flightrec: bool = False,
    dump_dir: "Optional[str]" = None,
) -> dict[str, Any]:
    """Run the selected campaigns; returns the deterministic report.

    ``flightrec=True`` flies a fresh black box per trial (each record
    gains a ``flight_dump`` field; see :func:`run_trial`).  With
    ``dump_dir``, each trial's first dump is written in canonical form
    to ``DIR/<campaign>_<seed>.json`` and the record carries that file
    name — the *name* only, so the report stays machine-independent.
    """
    if dump_dir is not None and not flightrec:
        raise ReproError("dump_dir requires flightrec=True")
    selected = select_campaigns(names, trials)

    report: dict[str, Any] = {
        "harness": "repro.resilience",
        "scenario": "figure1",
        "seed": seed,
        "trials": trials,
        "campaigns": [],
    }
    for campaign in selected:
        records = []
        for index in range(trials):
            grid, outcome = run(
                campaign.scenario(), seed + index,
                {"trace", "flightrec"} if flightrec else {"trace"},
            )
            record = _record(seed + index, grid, outcome)
            flightrec = grid.flightrec
            if dump_dir is not None and flightrec is not None and flightrec.dumps:
                from repro.obs.flightrec import write_dump

                filename = f"{campaign.name}_{seed + index}.json"
                write_dump(flightrec.dumps[0], Path(dump_dir) / filename)
                record["flight_dump"]["file"] = filename
            records.append(record)
        successes = [r for r in records if r["success"]]
        modes: dict[str, int] = {}
        for record in records:
            modes[record["degradation"]] = modes.get(record["degradation"], 0) + 1
        entry = campaign.describe()
        entry["records"] = records
        entry["summary"] = {
            "success_rate": round(len(successes) / trials, 6),
            "retries_used": sum(r["retries_used"] for r in records),
            "degradation_modes": modes,
            "mean_time_to_commit": (
                round(
                    sum(r["time_to_commit"] for r in successes) / len(successes),
                    6,
                )
                if successes
                else None
            ),
        }
        report["campaigns"].append(entry)
    return report


def render_report(report: dict[str, Any]) -> str:
    """The report's canonical byte form: sorted keys, 2-space indent."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
