"""Drive monitored runs and reduce them to verification reports.

:func:`verify_campaigns` replays the resilience fault campaigns
(:mod:`repro.resilience.campaign`) under ``observe={"monitors"}`` and
evaluates the full monitor suite over every run; :func:`verify_example`
does the same for the quickstart/Figure-1 scenario
(:data:`repro.workloads.scenarios.FIGURE1`).  Reports are canonical JSON
(sorted keys, 2-space indent, trailing newline), so a verification
sweep is byte-identical across repeated runs of the same seed — the CI
``verify`` job asserts exactly that.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

from repro.analysis.framework import Finding, Severity
from repro.analysis.reporters import finding_payload, format_finding
from repro.verify.events import EventLog, RunContext
from repro.verify.monitors import Monitor, all_monitors, evaluate
from repro.verify.recorder import Recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flightrec import FlightRecorder
    from repro.workloads.scenarios import Scenario

#: Example scenarios verifiable by name (quickstart *is* Figure 1).
EXAMPLES = ("quickstart", "figure1")


def verify_recorder(
    recorder: Recorder,
    run_id: str,
    monitors: Optional[Sequence[Monitor]] = None,
    select: Optional[Iterable[str]] = None,
    suppress: Optional[Iterable[str]] = None,
    flightrec: "Optional[FlightRecorder]" = None,
) -> tuple[dict[str, Any], list[Finding]]:
    """Evaluate one recorded run; returns (report entry, findings).

    When a :class:`~repro.obs.flightrec.FlightRecorder` that observed
    the same run is passed, any finding trips it — the black box dumps
    the run's last-N records under trigger ``verify.finding``, giving
    the monitor report a post-mortem to point at.
    """
    log = EventLog(recorder.events)
    ctx = RunContext(
        run_id=run_id,
        queue_exhausted=recorder.queue_exhausted,
        end_time=recorder.env.now if recorder.env is not None else 0.0,
    )
    findings = evaluate(
        monitors if monitors is not None else all_monitors(),
        log, ctx, select=select, suppress=suppress,
    )
    if flightrec is not None and findings:
        first = findings[0]
        flightrec.trip(
            f"{first.rule}: {first.message}", trigger="verify.finding"
        )
    entry = {
        "run": run_id,
        "events": len(log),
        "loci": len({event.node for event in log}),
        "queue_exhausted": ctx.queue_exhausted,
        "end_time": round(ctx.end_time, 6),
        "findings": [finding_payload(f) for f in findings],
    }
    return entry, findings


def verify_campaigns(
    seed: int = 42,
    trials: int = 3,
    names: Optional[Sequence[str]] = None,
    select: Optional[Iterable[str]] = None,
    suppress: Optional[Iterable[str]] = None,
) -> dict[str, Any]:
    """Run the fault campaigns under monitors; returns the report."""
    from repro.resilience.campaign import select_campaigns

    return _report("figure1", seed, trials, [
        (f"{campaign.name}/seed{seed + index}", campaign.scenario(), seed + index)
        for campaign in select_campaigns(names, trials)
        for index in range(trials)
    ], select, suppress)


def verify_example(
    name: str = "quickstart",
    seed: int = 42,
    select: Optional[Iterable[str]] = None,
    suppress: Optional[Iterable[str]] = None,
) -> dict[str, Any]:
    """Run the Figure-1 quickstart scenario under monitors."""
    from repro.errors import ReproError
    from repro.workloads.scenarios import FIGURE1

    if name not in EXAMPLES:
        raise ReproError(
            f"unknown example {name!r}; pick from {list(EXAMPLES)}"
        )
    return _report(
        name, seed, 1, [(f"{name}/seed{seed}", FIGURE1, seed)], select, suppress
    )


def _report(
    scenario: str,
    seed: int,
    trials: int,
    runs: "Sequence[tuple[str, Scenario, int]]",
    select: Optional[Iterable[str]],
    suppress: Optional[Iterable[str]],
) -> dict[str, Any]:
    """Run each ``(run id, scenario, seed)`` under the monitors."""
    from repro.workloads.scenarios import run

    report: dict[str, Any] = {
        "harness": "repro.verify",
        "scenario": scenario,
        "seed": seed,
        "trials": trials,
        "monitors": [monitor.name for monitor in all_monitors()],
        "runs": [],
    }
    total = 0
    for run_id, entry, entry_seed in runs:
        grid, _ = run(entry, entry_seed, {"monitors"})
        assert grid.recorder is not None  # what observe={"monitors"} attaches
        payload, findings = verify_recorder(
            grid.recorder, run_id, select=select, suppress=suppress
        )
        report["runs"].append(payload)
        total += len(findings)
    report["findings_total"] = total
    return report


def render_verification_json(report: dict[str, Any]) -> str:
    """The report's canonical byte form: sorted keys, 2-space indent."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_verification_text(report: dict[str, Any]) -> str:
    """Per-run summary lines, findings with witnesses, and a total."""
    lines: list[str] = []
    for entry in report["runs"]:
        drained = "drained" if entry["queue_exhausted"] else "horizon"
        lines.append(
            f"{entry['run']}: {entry['events']} events across "
            f"{entry['loci']} loci ({drained}, t_end={entry['end_time']:g}) "
            f"-> {len(entry['findings'])} finding(s)"
        )
        for payload in entry["findings"]:
            finding = Finding(
                file=payload["file"],
                line=payload["line"],
                col=payload["col"],
                rule=payload["rule"],
                severity=Severity(payload["severity"]),
                message=payload["message"],
                witness=tuple(payload.get("witness", ())),
            )
            lines.append(format_finding(finding))
    total = report["findings_total"]
    lines.append(
        f"{total} finding(s) across {len(report['runs'])} monitored run(s)"
    )
    return "\n".join(lines)
