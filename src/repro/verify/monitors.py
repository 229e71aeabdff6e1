"""Protocol monitors over the happens-before event log.

Each :class:`Monitor` is the dynamic analogue of a static
:class:`~repro.analysis.framework.Checker`: it declares
:class:`~repro.analysis.framework.Rule` s and yields
:class:`~repro.analysis.framework.Finding` s, so monitor output flows
through the same ``--select`` semantics and reporters as
``repro.analysis``.  A dynamic finding locates the violation in the
*run* rather than in source: ``file`` is the run id, ``line`` the
violating event's sequence number, and ``witness`` a connected
happens-before chain ending at that event.

Three monitors cover the co-allocation protocol of the paper:

* :class:`RaceMonitor` (``hb-*``) — conflicting accesses to shared
  protocol state from different loci of control with no happens-before
  edge between them;
* :class:`TwoPhaseCommitMonitor` (``tpc-*``) — the two-phase-commit
  safety invariants of §3.2: no barrier release before commit, atomic
  (GRAB) all-or-nothing-ness, abort blame, every delivered check-in
  eventually answered, duplicate-delivery idempotence;
* :class:`EventQueueMonitor` (``dl-*``) — clock monotonicity and
  lost-wakeup/deadlock detection (a commit that never settles even
  though the event queue ran dry).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.analysis.framework import (
    Finding,
    Rule,
    Severity,
    normalize_select,
    rule_selected,
)
from repro.verify.events import DELIVER, EVENT, SEND, EventLog, ProtoEvent, RunContext

#: Barrier verdict message kinds (mirrors repro.core.barrier; kept as
#: literals so the monitor layer never imports protocol modules).
_CHECKIN = "duroc.checkin"
_RELEASE = "duroc.release"
_ABORT = "duroc.abort"


class Monitor:
    """Base class: subclasses declare rules and check one run's log."""

    #: Family name, usable with ``--select`` (like a checker name).
    name: str = "monitor"
    rules: tuple[Rule, ...] = ()

    def rule(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(f"{self.name}: unknown rule {rule_id!r}")

    def finding(
        self,
        ctx: RunContext,
        log: EventLog,
        event: ProtoEvent,
        rule_id: str,
        message: str,
    ) -> Finding:
        rule = self.rule(rule_id)
        return Finding(
            file=ctx.run_id,
            line=event.seq,
            col=1,
            rule=rule.id,
            severity=rule.severity,
            message=message,
            witness=log.render_witness(event),
        )

    def check(self, log: EventLog, ctx: RunContext) -> Iterator[Finding]:
        """Yield findings for one run."""
        raise NotImplementedError


class RaceMonitor(Monitor):
    """Happens-before race detection on shared protocol state."""

    name = "race"
    rules = (
        Rule(
            "hb-race",
            "conflicting accesses to shared state with no happens-before edge",
        ),
    )

    def check(self, log: EventLog, ctx: RunContext) -> Iterator[Finding]:
        by_resource: dict[str, list[ProtoEvent]] = {}
        for event in log.accesses():
            by_resource.setdefault(event.name, []).append(event)
        for resource, accesses in sorted(by_resource.items()):
            for i, first in enumerate(accesses):
                for second in accesses[i + 1:]:
                    if first.node == second.node:
                        continue  # same locus: program-ordered
                    mode_a = first.attrs.get("mode")
                    mode_b = second.attrs.get("mode")
                    if mode_a != "w" and mode_b != "w":
                        continue  # read/read never conflicts
                    if not log.concurrent(first, second):
                        continue
                    yield self.finding(
                        ctx, log, second, "hb-race",
                        f"{resource}: {mode_b}-access on {second.node} (#"
                        f"{second.seq}) races {mode_a}-access on "
                        f"{first.node} (#{first.seq}); no happens-before "
                        "edge orders them",
                    )


class TwoPhaseCommitMonitor(Monitor):
    """Safety invariants of the two-phase-commit barrier (§3.2)."""

    name = "tpc"
    rules = (
        Rule(
            "tpc-release-before-commit",
            "barrier released before the request was committed",
        ),
        Rule(
            "tpc-atomic-partial-commit",
            "atomic (GRAB) request released after a subjob had failed",
        ),
        Rule(
            "tpc-atomic-orphan",
            "atomic (GRAB) abort left a submitted subjob uncancelled",
        ),
        Rule(
            "tpc-abort-on-optional",
            "request aborted blaming an optional/interactive subjob failure",
        ),
        Rule(
            "tpc-unanswered-checkin",
            "delivered check-in never answered with a release or abort",
        ),
        Rule(
            "tpc-dup-checkin",
            "duplicate check-in delivery double-counted at the barrier",
        ),
    )

    def check(self, log: EventLog, ctx: RunContext) -> Iterator[Finding]:
        yield from self._release_before_commit(log, ctx)
        yield from self._atomic(log, ctx)
        yield from self._abort_blame(log, ctx)
        if ctx.queue_exhausted:
            yield from self._unanswered_checkins(log, ctx)
        yield from self._dup_checkins(log, ctx)

    # -- tpc-release-before-commit ------------------------------------------

    def _release_before_commit(
        self, log: EventLog, ctx: RunContext
    ) -> Iterator[Finding]:
        commits_by_node: dict[str, list[ProtoEvent]] = {}
        for event in log.named("duroc.commit", kind=EVENT):
            commits_by_node.setdefault(event.node, []).append(event)
        for release in log.accesses():
            if release.attrs.get("op") != "release":
                continue
            committed = any(
                log.happens_before(commit, release)
                for commit in commits_by_node.get(release.node, [])
            )
            if not committed:
                yield self.finding(
                    ctx, log, release, "tpc-release-before-commit",
                    f"{release.name} released on {release.node} with no "
                    "commit happening-before it: phase two began before "
                    "phase one was closed",
                )

    # -- tpc-atomic-* --------------------------------------------------------

    def _atomic(self, log: EventLog, ctx: RunContext) -> Iterator[Finding]:
        atomic_nodes = {e.node for e in log.named("duroc.atomic", kind=EVENT)}
        for node in sorted(atomic_nodes):
            released = [
                e
                for e in log.named("duroc.state", kind=EVENT, state="released")
                if e.node == node
            ]
            failures = [
                e for e in log.named("duroc.slot.failed", kind=EVENT)
                if e.node == node
            ]
            for rel in released:
                for failure in failures:
                    if log.happens_before(failure, rel):
                        yield self.finding(
                            ctx, log, rel, "tpc-atomic-partial-commit",
                            f"atomic request on {node} released although "
                            f"subjob {failure.attrs.get('slot')} had failed "
                            f"(#{failure.seq}): GRAB must be all-or-nothing",
                        )
            yield from self._atomic_orphans(log, ctx, node)

    def _atomic_orphans(
        self, log: EventLog, ctx: RunContext, node: str
    ) -> Iterator[Finding]:
        aborts = [
            e for e in log.named("duroc.abort.decision", kind=EVENT)
            if e.node == node
        ]
        if not aborts:
            return
        submitted = [
            e for e in log.named("duroc.slot.state", kind=EVENT, state="submitted")
            if e.node == node
        ]
        cancelled = {
            e.attrs.get("slot")
            for e in log.named("duroc.cancel", kind=EVENT)
            if e.node == node
        }
        finished = {
            e.attrs.get("slot")
            for e in log.named("duroc.gram", kind=EVENT, terminal=True)
            if e.node == node
        }
        for sub in submitted:
            slot = sub.attrs.get("slot")
            if slot not in cancelled and slot not in finished:
                yield self.finding(
                    ctx, log, aborts[0], "tpc-atomic-orphan",
                    f"atomic request on {node} aborted but submitted "
                    f"subjob {slot} (#{sub.seq}) was never cancelled: "
                    "resources leak past the failed transaction",
                )

    # -- tpc-abort-on-optional ----------------------------------------------

    def _abort_blame(self, log: EventLog, ctx: RunContext) -> Iterator[Finding]:
        for decision in log.named("duroc.abort.decision", kind=EVENT):
            if decision.attrs.get("origin") != "subjob-failure":
                continue
            blame = decision.attrs.get("blame_start_type")
            if blame in ("optional", "interactive"):
                yield self.finding(
                    ctx, log, decision, "tpc-abort-on-optional",
                    f"request on {decision.node} aborted blaming a {blame} "
                    f"subjob ({decision.attrs.get('subjob')}): only required "
                    "subjob failures may terminate the computation",
                )

    # -- tpc-unanswered-checkin -----------------------------------------------

    def _unanswered_checkins(
        self, log: EventLog, ctx: RunContext
    ) -> Iterator[Finding]:
        answered: set[str] = set()
        for event in log.of_kind(SEND):
            if event.name in (_RELEASE, _ABORT):
                dst = event.attrs.get("dst")
                if isinstance(dst, str):
                    answered.add(dst)
        flagged: set[str] = set()
        for deliver in log.of_kind(DELIVER):
            if deliver.name != _CHECKIN:
                continue
            endpoint = deliver.attrs.get("endpoint")
            if not isinstance(endpoint, str) or endpoint in answered:
                continue
            if endpoint in flagged:
                continue  # one finding per starving process
            flagged.add(endpoint)
            yield self.finding(
                ctx, log, deliver, "tpc-unanswered-checkin",
                f"check-in from {endpoint} delivered (#{deliver.seq}) but "
                "no release or abort was ever sent back; the process "
                "blocks at the barrier forever",
            )

    # -- tpc-dup-checkin -------------------------------------------------------

    def _dup_checkins(self, log: EventLog, ctx: RunContext) -> Iterator[Finding]:
        applied: dict[tuple[str, str, object], ProtoEvent] = {}
        for access in log.accesses():
            if access.attrs.get("op") != "record":
                continue
            if not access.attrs.get("applied"):
                continue
            key = (access.node, access.name, access.attrs.get("rank"))
            first = applied.get(key)
            if first is None:
                applied[key] = access
                continue
            yield self.finding(
                ctx, log, access, "tpc-dup-checkin",
                f"{access.name}: rank {access.attrs.get('rank')} check-in "
                f"applied twice (#{first.seq} then #{access.seq}); "
                "duplicate delivery must be idempotent",
            )


class EventQueueMonitor(Monitor):
    """Clock sanity and deadlock/lost-wakeup detection."""

    name = "deadlock"
    rules = (
        Rule(
            "dl-clock-regression",
            "simulated time ran backwards between observed events",
        ),
        Rule(
            "dl-commit-stalled",
            "commit never settled although the event queue ran dry",
        ),
        Rule(
            "dl-barrier-abandoned",
            "a process waited out the barrier's give-up horizon without a verdict",
            severity=Severity.WARNING,
        ),
    )

    #: Request states that settle a pending commit.
    _SETTLED = ("released", "aborted", "terminated")

    def check(self, log: EventLog, ctx: RunContext) -> Iterator[Finding]:
        yield from self._clock_regressions(log, ctx)
        if ctx.queue_exhausted:
            yield from self._stalled_commits(log, ctx)
        for event in log.named("barrier.abandoned", kind=EVENT):
            yield self.finding(
                ctx, log, event, "dl-barrier-abandoned",
                f"process rank {event.attrs.get('rank')} (slot "
                f"{event.attrs.get('slot')}) abandoned the barrier at its "
                "give-up horizon: the co-allocator never answered",
            )

    def _clock_regressions(
        self, log: EventLog, ctx: RunContext
    ) -> Iterator[Finding]:
        last = 0.0
        for event in log:
            if event.time < last:
                yield self.finding(
                    ctx, log, event, "dl-clock-regression",
                    f"event #{event.seq} at t={event.time:g} observed after "
                    f"t={last:g}: simulated time must be monotone",
                )
            last = max(last, event.time)

    def _stalled_commits(
        self, log: EventLog, ctx: RunContext
    ) -> Iterator[Finding]:
        #: Node -> seq of its latest settling state.
        last_settled: dict[str, int] = {}
        for e in log.named("duroc.state", kind=EVENT):
            if e.attrs.get("state") in self._SETTLED:
                last_settled[e.node] = max(last_settled.get(e.node, 0), e.seq)
        for committing in log.named("duroc.state", kind=EVENT, state="committing"):
            if last_settled.get(committing.node, 0) <= committing.seq:
                yield self.finding(
                    ctx, log, committing, "dl-commit-stalled",
                    f"request on {committing.node} entered COMMITTING "
                    f"(#{committing.seq}) and never released or aborted, "
                    "yet the event queue ran dry: a wakeup was lost",
                )


def all_monitors() -> list[Monitor]:
    """The full monitor suite, in deterministic order."""
    return [RaceMonitor(), TwoPhaseCommitMonitor(), EventQueueMonitor()]


def evaluate(
    monitors: Iterable[Monitor],
    log: EventLog,
    ctx: RunContext,
    select: Optional[Iterable[str]] = None,
    suppress: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Run monitors over one run's log; returns sorted unique findings.

    ``select`` follows the static analyzer's semantics (rule id, family
    prefix, or monitor name); ``suppress`` drops exact rule ids — the
    dynamic analogue of ``# repro: noqa``.
    """
    selected = normalize_select(select)
    suppressed = {s.strip().lower() for s in suppress or () if s.strip()}
    findings: list[Finding] = []
    for monitor in monitors:
        for finding in monitor.check(log, ctx):
            if not rule_selected(finding.rule, monitor.name, selected):
                continue
            if finding.rule.lower() in suppressed:
                continue
            findings.append(finding)
    return sorted(set(findings))
