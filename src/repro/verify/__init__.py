"""Runtime protocol verification (dynamic analysis).

This package turns the deterministic simulation into a model checker
for the paper's co-allocation protocol: a :class:`~repro.verify.recorder.Recorder`
logs every simulated message and protocol event with its program-order
and message edges — a happens-before event log whose vector clocks are
derived on demand — and a suite of :class:`~repro.verify.monitors.Monitor`
s evaluates protocol invariants over that log — race freedom (``hb-*``),
two-phase-commit safety (``tpc-*``), and event-queue liveness (``dl-*``).

Monitors emit :class:`repro.analysis.framework.Finding` records through
the same rule-id / ``--select`` machinery and reporters as the static
checkers, so ``python -m repro.verify`` reads exactly like
``python -m repro.analysis`` — but over executions instead of source.
"""

from repro.verify.events import EventLog, ProtoEvent, RunContext
from repro.verify.monitors import Monitor, all_monitors, evaluate
from repro.verify.recorder import Recorder
from repro.verify.runner import (
    render_verification_json,
    render_verification_text,
    verify_campaigns,
    verify_example,
)
from repro.verify.vclock import VClock

__all__ = [
    "EventLog",
    "Monitor",
    "ProtoEvent",
    "Recorder",
    "RunContext",
    "VClock",
    "all_monitors",
    "evaluate",
    "render_verification_json",
    "render_verification_text",
    "verify_campaigns",
    "verify_example",
]
