"""DUROC — the interactive-transaction co-allocator (§3.2, §4.1).

The Dynamically-Updated Resource Online Co-allocator drives a
co-allocation request through the two-phase-commit protocol:

1. subjobs are submitted to their GRAM resource managers *sequentially*
   (the paper's Fig. 5 timeline; the source of the linear-in-subjobs
   cost of Fig. 4), while started processes check into the barrier
   concurrently;
2. until :meth:`DurocJob.commit` completes, the request may be edited —
   ``add``, ``delete``, ``substitute`` — and subjob failures are
   handled per their start type:

   * ``required``  — failure/timeout terminates the entire computation,
     before or after commit;
   * ``interactive`` — failure/timeout triggers the application's
     interactive handler, which may delete the subjob or substitute
     alternatives;
   * ``optional`` — failures are ignored; processes join as and when
     they become active, even after release;

3. on commit, once every non-optional live subjob has checked in, the
   barrier is released and every process receives the final
   configuration (:class:`~repro.core.config.DurocConfig`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

import numpy as np

from repro.core.barrier import ABORT, BarrierManager, Checkin
from repro.core.callbacks import CallbackDispatcher, DurocEvent, Handler, Notification
from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
from repro.core.states import (
    RequestState,
    SubjobState,
    check_request_transition,
    check_subjob_transition,
)
from repro.core.applib import PARAM_CONTACT, PARAM_SLOT
from repro.errors import (
    AllocationAborted,
    AuthenticationError,
    CircuitOpen,
    GramError,
    HostDown,
    RPCTimeout,
    RequestStateError,
    RetryExhausted,
)
from repro.gram.client import GramClient, JobHandle
from repro.gram.jobmanager import CALLBACK
from repro.gram.states import JobState
from repro.gsi.auth import AuthConfig
from repro.gsi.credentials import Credential
from repro.net.network import Network
from repro.net.address import Endpoint
from repro.net.transport import Port, ephemeral_endpoint
from repro.resilience import BreakerBoard, RetryPolicy
from repro.simcore.events import NORMAL, Event
from repro.simcore.probe import emit, register_locus
from repro.simcore.process import ProcessGenerator
from repro.simcore.resources import Store
from repro.simcore.tracing import TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment

_slot_ids = itertools.count(1)

#: How a request's root span closes: the ``outcome`` label of
#: ``duroc.requests_total``.
REQUEST_OUTCOMES = ("released", "aborted", "killed")

#: Handler invoked on interactive subjob failure/timeout:
#: ``handler(job, slot, notification)``.
InteractiveHandler = Callable[["DurocJob", "SubjobSlot", Notification], None]

#: Slot states still waiting to check in (under a running deadline).
WAITING = (SubjobState.PENDING, SubjobState.SUBMITTING, SubjobState.SUBMITTED)


class SubjobSlot:
    """One live entry of the co-allocation's subjob table."""

    def __init__(self, index: int, spec: SubjobSpec, now: float) -> None:
        self.index = index
        self.spec = spec
        self.slot_id = next(_slot_ids)
        self.state = SubjobState.PENDING
        self.created_at = now
        self.submit_started_at: Optional[float] = None
        self.submitted_at: Optional[float] = None
        self.checked_in_at: Optional[float] = None
        self.released_at: Optional[float] = None
        self.failure_reason: Optional[str] = None
        self.gram_handle: Optional[JobHandle] = None
        self.gram_state: Optional[JobState] = None
        #: Context of this slot's ``duroc.submit`` span, once opened.
        self.trace_ctx: Optional[TraceContext] = None
        #: Kernel timer of the check-in deadline, armed at submission.
        self.deadline: Optional[Event] = None

    def transition(self, new: SubjobState, now: float) -> None:
        check_subjob_transition(self.state, new)
        self.state = new
        if self.deadline is not None and new not in WAITING:
            # The one place a slot stops waiting: the kernel discards
            # the retired timer without advancing the clock to it.
            self.deadline.cancelled = True
            self.deadline = None
        if new is SubjobState.SUBMITTING:
            self.submit_started_at = now
        elif new is SubjobState.SUBMITTED:
            self.submitted_at = now
        elif new is SubjobState.CHECKED_IN:
            self.checked_in_at = now
        elif new is SubjobState.RELEASED:
            self.released_at = now

    def __repr__(self) -> str:
        return (
            f"<SubjobSlot #{self.index} {self.spec.start_type.value} "
            f"{self.spec.contact} x{self.spec.count} {self.state.value}>"
        )


@dataclass
class DurocResult:
    """Outcome of a successful commit."""

    job: "DurocJob"
    sizes: tuple[int, ...]
    released_at: float
    elapsed: float

    @property
    def total_processes(self) -> int:
        return sum(self.sizes)

    def barrier_waits(self) -> list[tuple[int, int, float]]:
        return self.job.barrier.barrier_waits()


class DurocJob:
    """Handle for one co-allocation: edits, commit, monitoring, control."""

    def __init__(self, duroc: "Duroc", request: CoAllocationRequest) -> None:
        self.duroc = duroc
        self.env: "Environment" = duroc.env
        self.job_id = f"duroc{next(duroc._job_counter)}"
        # Check-ins and GRAM callbacks arrive on this one port.  It must
        # be unique per job even across Duroc instances (job ids are only
        # unique per instance), so it gets an ephemeral endpoint.
        self.port = Port(
            duroc.network, ephemeral_endpoint(duroc.host, f"duroc.{self.job_id}")
        )
        self.tracer = duroc.tracer
        #: Root span of the request's trace tree: everything this
        #: co-allocation causes hangs off it.
        self.trace_span = self.tracer.span("duroc.request", job=self.job_id)
        self.trace_ctx = self.trace_span.context
        self._trace_finished = False
        self.barrier = BarrierManager(self.env, self.port)
        self.callbacks = CallbackDispatcher()
        self.interactive_handler: Optional[InteractiveHandler] = None
        self.state = RequestState.ALLOCATING
        self.abort_reason: Optional[str] = None
        #: Index of the subjob whose failure triggered the abort, if one.
        self.abort_subjob: Optional[int] = None
        self.started_at = self.env.now
        self.released_at: Optional[float] = None

        #: Slot indices are the paper's subjob labels and part of the
        #: monitoring API, so the list keeps one stable entry per slot
        #: ever added (substitute() appends; bounded by edit count, not
        #: by time — audited, see the append in add()).
        self.slots: list[SubjobSlot] = []
        #: Live-slot index; entries are dropped as slots retire.
        self._slot_by_id: dict[int, SubjobSlot] = {}
        self._submit_queue: Store = Store(self.env)
        #: Blocked :meth:`wait` calls: (predicate, event to succeed).
        self._waiters: list[tuple[Callable[["DurocJob"], Any], Event]] = []
        #: GRAM job id -> its slot, while the job may still call back;
        #: entries are dropped when the job is terminal.
        self._gram_slots: dict[str, SubjobSlot] = {}

        #: Verification locus: the job's processes (listener, driver,
        #: commit) share state legitimately and form one unit of control
        #: for happens-before purposes.
        self._verify_node = f"{self.job_id}@{duroc.host}"
        register_locus(self.env, self.port.endpoint, self._verify_node)
        self._probe("duroc.state", state=self.state.value)
        self._listener = self.env.process(
            self._listen(), name=f"{self.job_id}:listen"
        )
        self._driver = self.env.process(
            self._drive(), name=f"{self.job_id}:drive"
        )
        for spec in request:
            self.add(spec)

    # ------------------------------------------------------------------
    # Editing operations (paper: add, delete, substitute — until commit)
    # ------------------------------------------------------------------

    def add(self, spec: SubjobSpec) -> SubjobSlot:
        """Add a subjob to the request; returns its slot."""
        if not self.state.editable:
            raise RequestStateError(
                f"cannot edit request in state {self.state.value}"
            )
        slot = SubjobSlot(len(self.slots), spec, self.env.now)
        self.slots.append(slot)
        self._slot_by_id[slot.slot_id] = slot
        self.barrier.open_table(slot.slot_id, spec.count)
        self._submit_queue.put(slot)
        return slot

    def delete(self, slot: "SubjobSlot | int") -> None:
        """Remove a subjob: cancel its GRAM job, discard its check-ins."""
        slot = self._resolve(slot)
        if not self.state.editable:
            raise RequestStateError(
                f"cannot edit request in state {self.state.value}"
            )
        if slot.state.terminal:
            if slot.state is SubjobState.FAILED:
                slot.transition(SubjobState.DELETED, self.env.now)
            return
        self._retire(slot, SubjobState.DELETED, "deleted by application")
        self._emit(DurocEvent.SUBJOB_DELETED, slot, "deleted by application")
        self._kick()

    def substitute(self, slot: "SubjobSlot | int", spec: SubjobSpec) -> SubjobSlot:
        """Replace a subjob with ``spec``; returns the new slot."""
        slot = self._resolve(slot)
        self.delete(slot)
        return self.add(spec)

    def _resolve(self, slot: "SubjobSlot | int") -> SubjobSlot:
        if isinstance(slot, SubjobSlot):
            return slot
        try:
            return self.slots[slot]
        except IndexError:
            raise RequestStateError(f"no subjob slot {slot!r}") from None

    # ------------------------------------------------------------------
    # Monitoring (§3.4)
    # ------------------------------------------------------------------

    def on(self, event: Optional[DurocEvent], handler: Handler) -> None:
        """Register a monitoring callback (None = every event)."""
        self.callbacks.on(event, handler)

    def off(self, event: Optional[DurocEvent], handler: Handler) -> None:
        """Remove a callback registered with :meth:`on`."""
        self.callbacks.off(event, handler)

    def set_interactive_handler(self, handler: InteractiveHandler) -> None:
        """Install the application's interactive-failure policy."""
        self.interactive_handler = handler

    def live_slots(self) -> list[SubjobSlot]:
        return [s for s in self.slots if s.state.live]

    def checked_in_slots(self) -> list[SubjobSlot]:
        return [s for s in self.slots if s.state is SubjobState.CHECKED_IN]

    def released_slots(self) -> list[SubjobSlot]:
        return [s for s in self.slots if s.state is SubjobState.RELEASED]

    # ------------------------------------------------------------------
    # Agent-side blocking operations
    # ------------------------------------------------------------------

    def wait(
        self, predicate: Callable[["DurocJob"], Any]
    ) -> Generator[Event, Any, Any]:
        """Generator: block until ``predicate(self)`` or a terminal state.

        Returns the predicate's truthy value, or raises
        :class:`AllocationAborted` if the request terminated first.  The
        job re-tests ``predicate`` at each of its state changes and wakes
        the caller only once it holds; the caller tests it again on
        resuming, so it must be a pure function of the job.
        """
        while True:
            if self.state.terminal:
                raise AllocationAborted(
                    self.abort_reason or self.state.value,
                    subjob=self.abort_subjob,
                )
            value = predicate(self)
            if value:
                return value
            event = self.env.event()
            self._waiters.append((predicate, event))
            yield event

    def commit(self) -> Generator[Event, Any, DurocResult]:
        """Generator: the commit operation of the two-phase protocol.

        Blocks until every live non-optional subjob has checked in, then
        releases the barrier and returns a :class:`DurocResult`.  Raises
        :class:`AllocationAborted` if a required subjob fails (or the
        request was killed) before release.
        """
        if self.state.terminal:
            raise AllocationAborted(
                self.abort_reason or self.state.value, subjob=self.abort_subjob
            )
        if self.state is not RequestState.ALLOCATING:
            raise RequestStateError(f"cannot commit in state {self.state.value}")
        self._transition(RequestState.COMMITTING)
        self._emit(DurocEvent.REQUEST_COMMITTED, None, None)
        self.tracer.mark("duroc.commit", parent=self.trace_ctx, job=self.job_id)
        self._probe("duroc.commit")

        def settled(job: "DurocJob") -> bool:
            waiting = [slot for slot in job.slots if slot.state in WAITING]
            if any(s.spec.start_type is not SubjobType.OPTIONAL for s in waiting):
                return False
            # Only optional subjobs are still in flight.  With nothing
            # ready yet, wait for the first arrival rather than release
            # an empty configuration ("workers join the computation as
            # and when they become active").
            return bool(job.checked_in_slots()) or not waiting

        yield from self.wait(settled)

        released = self._release()
        if not released:
            self._abort(
                "commit released an empty configuration", origin="empty-config"
            )
            raise AllocationAborted(self.abort_reason)
        return DurocResult(
            job=self,
            sizes=tuple(slot.spec.count for slot in released),
            released_at=self.env.now,
            elapsed=self.env.now - self.started_at,
        )

    def wait_done(self) -> Generator[Event, Any, None]:
        """Generator: block until every released subjob's job finished."""
        if self.state is not RequestState.RELEASED:
            raise RequestStateError(f"cannot wait_done in state {self.state.value}")

        def finished(job: "DurocJob") -> bool:
            return all(
                slot.gram_state is not None and slot.gram_state.terminal
                for slot in job.slots
                if slot.state in (SubjobState.RELEASED, SubjobState.FAILED)
                and slot.released_at is not None
            )

        yield from self.wait(finished)
        if self.state is RequestState.RELEASED:
            self._transition(RequestState.DONE)
            self._emit(DurocEvent.REQUEST_DONE, None, None)

    # ------------------------------------------------------------------
    # Control (§3.4): kill the ensemble as a collective unit
    # ------------------------------------------------------------------

    def kill(
        self,
        reason: str = "killed by application",
        subjob: Optional[int] = None,
    ) -> None:
        """Terminate every subjob and the request (fire-and-forget).

        ``subjob`` optionally records which subjob's failure forced the
        kill, for agents that revise-and-resubmit.
        """
        if self.state.terminal:
            return
        self.abort_reason = reason
        self.abort_subjob = subjob
        self._probe(
            "duroc.abort.decision",
            origin="kill",
            subjob=subjob,
            blame_start_type=self._blame_start_type(subjob),
            reason=reason,
        )
        self._transition(RequestState.TERMINATED)
        self._teardown(reason)
        self._emit(DurocEvent.REQUEST_ABORTED, None, reason)
        self._finish_trace("killed")
        self._kick()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _transition(self, new: RequestState) -> None:
        check_request_transition(self.state, new)
        self.state = new
        self._probe("duroc.state", state=new.value)

    def _finish_trace(self, outcome: str) -> None:
        """Close the root span with the request's outcome (first wins)."""
        if self._trace_finished:
            return
        self._trace_finished = True
        self.trace_span.finish(outcome=outcome)
        self.duroc._m_requests[outcome].inc()

    def _probe(self, name: str, **attrs: Any) -> None:
        """Emit a runtime-verification event on this job's locus."""
        emit(self.env, self._verify_node, name, job=self.job_id, **attrs)

    def _blame_start_type(self, subjob: Optional[int]) -> Optional[str]:
        """Start type of the subjob blamed for an abort, if one."""
        if subjob is None or not 0 <= subjob < len(self.slots):
            return None
        return self.slots[subjob].spec.start_type.value

    def _emit(
        self, event: DurocEvent, slot: Optional[SubjobSlot], detail: Any
    ) -> None:
        self.callbacks.emit(
            Notification(
                event=event,
                time=self.env.now,
                subjob=slot.index if slot is not None else None,
                detail=detail,
            )
        )

    def _kick(self) -> None:
        """Wake the waiters whose predicate now holds (all, once terminal)."""
        if not self._waiters:
            return
        terminal = self.state.terminal
        blocked = []
        for predicate, event in self._waiters:
            if terminal or predicate(self):
                event.succeed()
            else:
                blocked.append((predicate, event))
        self._waiters = blocked

    # -- submission driver ---------------------------------------------------

    def _drive(self) -> ProcessGenerator:
        """Submit queued slots to GRAM.

        The paper's DUROC submits subjob requests strictly one at a
        time (Fig. 5) — the source of the linear-in-subjobs cost of
        Fig. 4.  With ``Duroc(sequential_submission=False)`` (an
        ablation, not the paper's behaviour) submissions overlap.
        """
        while True:
            get = self._submit_queue.get()
            yield get
            slot: SubjobSlot = get.value
            if slot.state is not SubjobState.PENDING:
                continue  # deleted while queued
            if self.state.terminal:
                return
            if self.duroc.sequential_submission:
                yield from self._submit_slot(slot)
            else:
                self.env.process(
                    self._submit_slot(slot),
                    name=f"{self.job_id}:submit{slot.index}",
                )

    def _submit_slot(self, slot: SubjobSlot) -> ProcessGenerator:
        """Run one slot's GRAM submission to completion."""
        env = self.env
        slot.transition(SubjobState.SUBMITTING, env.now)
        self._arm_deadline(slot)
        span = self.tracer.span(
            "duroc.submit", parent=self.trace_ctx,
            job=self.job_id, slot=slot.index,
        )
        slot.trace_ctx = span.context
        try:
            handle = yield from self.duroc.gram.submit(
                slot.spec.contact,
                slot.spec.rsl_text,
                callback=self.port.endpoint,
                params={
                    PARAM_CONTACT: self.port.endpoint,
                    PARAM_SLOT: slot.slot_id,
                },
                timeout=self.duroc.submit_timeout,
                ctx=span.context,
            )
        except (
            GramError,
            RPCTimeout,
            AuthenticationError,
            HostDown,
            RetryExhausted,
            CircuitOpen,
        ) as exc:
            span.finish(ok=False)
            if slot.state is SubjobState.SUBMITTING:
                self._slot_failed(slot, str(exc), DurocEvent.SUBJOB_FAILED)
            return
        span.finish(ok=True, site=slot.spec.contact)
        if slot.state is not SubjobState.SUBMITTING:
            # Deleted (or the whole request aborted) mid-submission.
            self._cancel_gram_async(handle)
            return
        slot.gram_handle = handle
        self.duroc._watch(self, slot)
        self._gram_slots[handle.job_id] = slot
        slot.transition(SubjobState.SUBMITTED, env.now)
        self._probe(
            "duroc.slot.state",
            slot=slot.index,
            state="submitted",
            gram_job=handle.job_id,
        )
        self._emit(DurocEvent.SUBJOB_SUBMITTED, slot, handle.job_id)
        # Under a retry policy the submit reply may arrive long after
        # the job actually started: the processes may have fully
        # checked in while the slot was still SUBMITTING.  Settle the
        # barrier now rather than waiting for a retransmission.
        self._maybe_checkin(slot)
        self._kick()

    def _arm_deadline(self, slot: SubjobSlot) -> None:
        """Fail ``slot`` if it is still waiting when its timeout runs out.

        One kernel timer at ``NORMAL + 1``, as ``run(until=)``'s stop
        event, so it loses every tie: a check-in delivered in its own
        instant is recorded.  :meth:`SubjobSlot.transition` retires it.
        """
        timeout = slot.spec.timeout or self.duroc.default_subjob_timeout
        timer = slot.deadline = Event(self.env)
        timer._value = None  # triggered now, processed at the deadline

        def expire(_: Event) -> None:
            slot.deadline = None
            if not self.state.terminal:
                self._slot_failed(
                    slot,
                    f"no check-in within {timeout:g}s",
                    DurocEvent.SUBJOB_TIMEOUT,
                )

        timer.callbacks.append(expire)
        self.env.schedule(timer, NORMAL + 1, timeout)

    def _pollable(self, slot: SubjobSlot) -> bool:
        """Whether ``slot``'s GRAM job still needs the liveness watch."""
        return (
            not self.state.terminal
            and slot.state.live
            and (slot.gram_state is None or not slot.gram_state.terminal)
        )

    # -- the request's one receive loop ---------------------------------------

    def _listen(self) -> ProcessGenerator:
        """Receive process check-ins and GRAM state callbacks."""
        recv = self.port.recv
        while True:
            message = yield recv()
            payload = message.payload
            if message.kind == CALLBACK:
                slot = self._gram_slots.get(payload["job_id"])
                if slot is not None:
                    self._on_gram(slot, payload["state"], payload.get("reason"))
                continue
            # Anything else is a duroc.checkin: nothing else is sent here.
            slot_id = payload["slot_id"]
            rank = payload["rank"]
            slot = self._slot_by_id.get(slot_id)
            if slot is None or not slot.state.live:
                # A stale process (substituted-away subjob, aborted
                # request): tell it to terminate.
                self._send_abort(payload["endpoint"], "stale subjob")
                continue
            if self.state.terminal:
                self._send_abort(payload["endpoint"], self.abort_reason or "aborted")
                continue
            released = slot.state is SubjobState.RELEASED
            if not released:
                table_before = self.barrier.tables.get(slot_id)
                if table_before is not None and rank in table_before.checkins:
                    # Duplicate of an already-recorded check-in — nine
                    # in ten arrivals on a wide barrier — dropped before
                    # the record is built.
                    continue
            checkin = Checkin(
                slot_id=slot_id,
                rank=rank,
                ok=payload["ok"],
                reason=payload.get("reason"),
                endpoint=payload["endpoint"],
                time=self.env.now,
            )
            if released:
                # A retransmitted check-in whose RELEASE was lost: send
                # the stored configuration again.
                self.barrier.resend_release(checkin)
                continue
            self.tracer.mark(
                "duroc.checkin",
                parent=message.trace_ctx,
                job=self.job_id,
                slot=slot.index,
                rank=checkin.rank,
                ok=checkin.ok,
            )
            table = self.barrier.record(checkin)
            if table is None:  # pragma: no cover - table exists for live slots
                continue
            if not checkin.ok:
                self._slot_failed(
                    slot,
                    f"process {checkin.rank} failed startup: {checkin.reason}",
                    DurocEvent.SUBJOB_FAILED,
                )
                continue
            self._maybe_checkin(slot)

    def _maybe_checkin(self, slot: SubjobSlot) -> None:
        """Transition ``slot`` to CHECKED_IN once its barrier settles.

        Called both when a check-in lands and when a (retried) submit
        finally reports SUBMITTED — whichever happens last.
        """
        table = self.barrier.tables.get(slot.slot_id)
        if table is None or not table.all_ok:
            return
        if slot.state is not SubjobState.SUBMITTED:
            return
        slot.transition(SubjobState.CHECKED_IN, self.env.now)
        self._emit(DurocEvent.SUBJOB_CHECKIN, slot, None)
        if (
            self.state is RequestState.RELEASED
            and slot.spec.start_type is SubjobType.OPTIONAL
        ):
            self._release_latecomer(slot)
        self._kick()

    def _send_abort(self, endpoint: Endpoint, reason: str) -> None:
        try:
            self.port.send(endpoint, ABORT, {"reason": reason})
        except HostDown:  # pragma: no cover
            pass

    # -- GRAM state callbacks ---------------------------------------------------

    def _on_gram(
        self, slot: SubjobSlot, state: JobState, reason: Optional[str]
    ) -> None:
        if state is not slot.gram_state:
            self._probe(
                "duroc.gram",
                slot=slot.index,
                state=state.value,
                terminal=state.terminal,
            )
        slot.gram_state = state
        if state.terminal and slot.gram_handle is not None:
            # A terminal GRAM job never transitions again: drop its
            # entry so long-lived requests do not keep one per finished
            # subjob.
            self._gram_slots.pop(slot.gram_handle.job_id, None)
        if state is JobState.FAILED and slot.state in (
            SubjobState.SUBMITTED,
            SubjobState.CHECKED_IN,
            # Post-release failure: §3.4 monitoring.  Required subjobs
            # still take the whole computation down.
            SubjobState.RELEASED,
        ):
            self._slot_failed(
                slot, f"GRAM job failed: {reason}", DurocEvent.SUBJOB_FAILED
            )
        elif state.terminal:
            self._kick()

    # -- failure semantics (the heart of §3.2) --------------------------------

    def _slot_failed(self, slot: SubjobSlot, reason: str, kind: DurocEvent) -> None:
        if slot.state.terminal:
            return
        slot.failure_reason = reason
        was_released = slot.state is SubjobState.RELEASED
        start_type = slot.spec.start_type
        slot.transition(SubjobState.FAILED, self.env.now)
        self._probe(
            "duroc.slot.failed",
            slot=slot.index,
            start_type=start_type.value,
            reason=reason,
            released=was_released,
        )
        self._cancel_slot_resources(slot, reason)
        notification = Notification(
            event=kind, time=self.env.now, subjob=slot.index, detail=reason
        )
        self.callbacks.emit(notification)

        if start_type is SubjobType.REQUIRED:
            # "Failure or timeout of a required resource causes the
            # entire computation to be terminated, regardless of whether
            # a commit has been issued or not."
            if not self.state.terminal:
                if was_released or self.state is RequestState.RELEASED:
                    self.kill(
                        f"required subjob {slot.index} failed: {reason}",
                        subjob=slot.index,
                    )
                else:
                    self._abort(
                        f"required subjob {slot.index} failed: {reason}",
                        subjob=slot.index,
                    )
            return
        if start_type is SubjobType.INTERACTIVE and not was_released:
            # "...results in a callback to the application, which can
            # then delete the resource from its resource set or
            # substitute other resources."
            if self.interactive_handler is not None and self.state.editable:
                self.interactive_handler(self, slot, notification)
            # Without a handler the failed subjob is simply dropped from
            # the configuration (equivalent to delete).
        self._kick()

    def _cancel_slot_resources(self, slot: SubjobSlot, reason: str) -> None:
        """Cancel the slot's GRAM job and abort its barrier waiters."""
        self.barrier.abort_slot(slot.slot_id, reason)
        cancelling = slot.gram_handle is not None and (
            slot.gram_state is None or not slot.gram_state.terminal
        )
        self._probe(
            "duroc.cancel", slot=slot.index, gram=cancelling, reason=reason
        )
        if cancelling:
            self._cancel_gram_async(slot.gram_handle)

    def _cancel_gram_async(self, handle: JobHandle) -> None:
        def canceller(env: "Environment") -> ProcessGenerator:
            try:
                yield from self.duroc.gram.cancel(handle, timeout=30.0)
            except (RPCTimeout, GramError, HostDown, RetryExhausted, CircuitOpen):
                pass  # the site may be dead; nothing more we can do

        self.env.process(canceller(self.env), name=f"{self.job_id}:cancel")

    def _retire(self, slot: SubjobSlot, state: SubjobState, reason: str) -> None:
        self._cancel_slot_resources(slot, reason)
        slot.transition(state, self.env.now)
        self.barrier.discard_table(slot.slot_id)
        # Retired slots leave the live index (messages naming them are
        # answered "stale subjob" whether the id resolves to a retired
        # slot or to nothing); slot.state.terminal guards both paths.
        self._slot_by_id.pop(slot.slot_id, None)

    def _abort(
        self,
        reason: str,
        subjob: Optional[int] = None,
        origin: str = "subjob-failure",
    ) -> None:
        """Pre-release failure of the whole request."""
        if self.state.terminal:
            return
        self.abort_reason = reason
        self.abort_subjob = subjob
        self._probe(
            "duroc.abort.decision",
            origin=origin,
            subjob=subjob,
            blame_start_type=self._blame_start_type(subjob),
            reason=reason,
        )
        self._transition(RequestState.ABORTED)
        self._teardown(reason)
        self._emit(DurocEvent.REQUEST_ABORTED, None, reason)
        self._finish_trace("aborted")
        self._kick()

    def _teardown(self, reason: str) -> None:
        for slot in self.slots:
            if slot.state.live:
                self._cancel_slot_resources(slot, reason)
                slot.transition(SubjobState.TERMINATED, self.env.now)

    # -- release ---------------------------------------------------------------

    def _release(self) -> list[SubjobSlot]:
        """Release the barrier for every checked-in subjob."""
        ready = self.checked_in_slots()
        slot_ids = [slot.slot_id for slot in ready]
        configs = self.barrier.build_config(slot_ids)
        for slot in ready:
            self._record_barrier_span(slot)
            self.barrier.release_slot(slot.slot_id, configs[slot.slot_id])
            slot.transition(SubjobState.RELEASED, self.env.now)
            self._emit(DurocEvent.SUBJOB_RELEASED, slot, None)
        self._transition(RequestState.RELEASED)
        self.released_at = self.env.now
        self._emit(DurocEvent.REQUEST_RELEASED, None, None)
        self.tracer.mark("duroc.release", parent=self.trace_ctx, job=self.job_id)
        self._finish_trace("released")
        self._kick()
        return ready

    def _record_barrier_span(self, slot: SubjobSlot) -> None:
        """Record the slot's barrier occupancy: first check-in → release."""
        table = self.barrier.tables.get(slot.slot_id)
        if table is None or not table.checkins:
            return
        first = min(c.time for c in table.checkins.values())
        self.tracer.record(
            "duroc.barrier", first, self.env.now,
            parent=slot.trace_ctx, job=self.job_id, slot=slot.index,
        )

    def _release_latecomer(self, slot: SubjobSlot) -> None:
        """An optional subjob checked in after release: let it join."""
        members = self.released_slots() + [slot]
        slot_ids = [s.slot_id for s in members]
        configs = self.barrier.build_config(slot_ids)
        self._record_barrier_span(slot)
        self.barrier.release_slot(slot.slot_id, configs[slot.slot_id])
        slot.transition(SubjobState.RELEASED, self.env.now)
        self._emit(DurocEvent.SUBJOB_RELEASED, slot, "late join")

    def __repr__(self) -> str:
        return (
            f"<DurocJob {self.job_id} {self.state.value} "
            f"slots={[s.state.value[:4] for s in self.slots]}>"
        )


class Duroc:
    """The co-allocator service: creates and tracks :class:`DurocJob` s."""

    def __init__(
        self,
        network: Network,
        host: str,
        credential: Credential,
        auth: Optional[AuthConfig] = None,
        default_subjob_timeout: float = 300.0,
        submit_timeout: float = 60.0,
        heartbeat_interval: float = 1.0,
        heartbeat_misses: int = 1,
        sequential_submission: bool = True,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        breakers: Optional[BreakerBoard] = None,
    ) -> None:
        self.network = network
        self.env: "Environment" = network.env
        self.host = host
        self.tracer = self.env.tracer
        #: Retry policy for GRAM submissions (None = single attempt).
        #: Backoff jitter draws from ``rng`` — pass a seeded registry
        #: stream (``Grid.duroc()`` does) for reproducible retries.
        self.retry = retry
        if retry is not None and breakers is None:
            breakers = BreakerBoard(network.env)
        self.breakers = breakers
        self.gram = GramClient(
            network, host, credential, auth,
            retry=retry, rng=rng, breakers=breakers,
        )
        self.default_subjob_timeout = default_subjob_timeout
        self.submit_timeout = submit_timeout
        #: The paper's DUROC submits subjobs strictly sequentially
        #: (Fig. 5); False enables the concurrent-submission ablation.
        self.sequential_submission = sequential_submission
        #: Seconds between liveness polls of a watched site (0 disables).
        if heartbeat_interval < 0:
            raise ValueError(
                f"heartbeat_interval must be >= 0, got {heartbeat_interval!r}"
            )
        self.heartbeat_interval = heartbeat_interval
        #: Consecutive failed polls of a *site* before every subjob
        #: watched there is declared lost (a slot joining a site already
        #: one miss down inherits that evidence).  The default, 1, fails
        #: fast; raise it where one eaten status reply is not death.
        if heartbeat_misses < 1:
            raise ValueError(
                f"heartbeat_misses must be >= 1, got {heartbeat_misses!r}"
            )
        self.heartbeat_misses = heartbeat_misses
        #: The liveness watch: gatekeeper -> {GRAM job id: (job, slot)},
        #: one monitor process per key; both shrink as slots retire.
        self._watched: dict[Endpoint, dict[str, tuple[DurocJob, SubjobSlot]]] = {}
        self.jobs: list[DurocJob] = []
        self._job_counter = itertools.count(1)
        #: Outcome -> its ``duroc.requests_total`` series, bound once
        #: for every job of this co-allocator.
        metrics = self.tracer.metrics
        self._m_requests = {
            outcome: metrics.bind("counter", "duroc.requests_total", outcome=outcome)
            for outcome in REQUEST_OUTCOMES
        }

    def submit(self, request: CoAllocationRequest) -> DurocJob:
        """Begin co-allocation; returns the editable job handle.

        Subjob submission proceeds in the background; use the handle's
        ``commit()`` (and optionally ``wait``/callbacks) to drive the
        transaction.
        """
        job = DurocJob(self, request)
        # API surface: callers index duroc.jobs for handles, so every
        # submitted job stays listed, terminal ones included, until the
        # release of everything a terminal request owned drops it here
        # too (ROADMAP.md, "Everything a terminal request owned is
        # released at termination").
        self.jobs.append(job)
        return job

    # -- liveness watch (§3.4) -----------------------------------------------

    def _watch(self, job: DurocJob, slot: SubjobSlot) -> None:
        """Put ``slot``'s GRAM job under its site's liveness watch."""
        if not self.heartbeat_interval:
            return
        site = slot.gram_handle.gatekeeper
        watched = self._watched.get(site)
        if watched is None:
            watched = self._watched[site] = {}
            self.env.process(self._monitor(site, watched), name=f"watch:{site.host}")
        watched[slot.gram_handle.job_id] = (job, slot)

    def _monitor(
        self, site: Endpoint, watched: "dict[str, tuple[DurocJob, SubjobSlot]]"
    ) -> ProcessGenerator:
        """Poll one gatekeeper to detect a silent site death.

        A crashed machine takes its job managers with it, so no FAILED
        callback ever arrives.  One status RPC per interval asks about
        every live GRAM job watched there, whichever request owns it;
        each state in the reply is handled as its callback would be
        (repairing a lost one) and a job it does not name is no news.
        Contact is lost only after ``heartbeat_misses`` *consecutive*
        failed polls, so one eaten reply takes no healthy subjob down.
        Exits when nothing is left to watch, so a drained run quiesces.
        """
        interval = self.heartbeat_interval
        misses = 0
        while True:
            yield self.env.timeout(interval)
            for job_id, (job, slot) in list(watched.items()):
                if not job._pollable(slot):
                    del watched[job_id]
            if not watched:
                del self._watched[site]
                return
            handles = [slot.gram_handle for _, slot in watched.values()]
            try:
                states = yield from self.gram.site_status(
                    site, handles, timeout=interval, retry=self.retry
                )
            except (RPCTimeout, HostDown, RetryExhausted, CircuitOpen):
                misses += 1
                if misses >= self.heartbeat_misses:
                    for job, slot in watched.values():
                        if job._pollable(slot):
                            job._slot_failed(
                                slot,
                                "lost contact with job manager",
                                DurocEvent.SUBJOB_FAILED,
                            )
                continue
            misses = 0
            for job_id, (state, reason) in states.items():
                job, slot = watched[job_id]
                job._on_gram(slot, state, reason)

    def run(
        self, request: CoAllocationRequest
    ) -> Generator[Event, Any, DurocResult]:
        """Generator: submit and immediately commit (convenience)."""
        job = self.submit(request)
        result = yield from job.commit()
        return result
