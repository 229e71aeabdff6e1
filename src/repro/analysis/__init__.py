"""Static invariant checks for the co-allocation codebase.

Five rule families guard the invariants of the paper's protocol that
the simulator can only test probabilistically:

* **determinism** (``det-*``) — all randomness through
  :class:`~repro.simcore.rng.RngRegistry`, all time through
  :attr:`Environment.now`;
* **state-machine** (``sm-*``) — every GRAM/DUROC state change obeys
  the declared transition tables;
* **callback-safety** (``cb-*``) — monitoring callbacks never block the
  event loop and per-job handlers get unregistered;
* **rsl-schema** (``rsl-*``) — RSL attribute keys at construction sites
  exist in the canonical registry;
* **resilience** (``res-*``) — no bare ``except`` around RPC calls, no
  literal-seeded RNGs feeding retry jitter.

Run ``python -m repro.analysis [paths]``; see ``docs/ANALYSIS.md``.
The *dynamic* counterpart — protocol monitors over recorded runs,
sharing this framework's rules and reporters — lives in
:mod:`repro.verify`.
"""

from repro.analysis.callback_safety import CallbackSafetyChecker
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.framework import (
    AnalysisReport,
    Analyzer,
    Checker,
    Finding,
    Module,
    Rule,
    Severity,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.resilience_rules import ResilienceChecker
from repro.analysis.rsl_schema import RslSchemaChecker
from repro.analysis.statemachine import StateMachineChecker

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "CallbackSafetyChecker",
    "Checker",
    "DeterminismChecker",
    "Finding",
    "Module",
    "ResilienceChecker",
    "RslSchemaChecker",
    "Rule",
    "Severity",
    "StateMachineChecker",
    "render_json",
    "render_text",
]
