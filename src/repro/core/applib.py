"""Application-side DUROC library (§4.1).

"A process that is to run on a co-allocated node starts as normal.  The
first thing it does is perform any non-side-effect-producing
initialization necessary to determine if the component execution can
proceed.  It then calls the co-allocation barrier, signalling whether
or not it has completed startup successfully.  Depending on how
co-allocation proceeds, the process may or may not return from the
barrier."

:func:`barrier` is that call; :func:`make_program` builds complete
program callables (startup → barrier → payload) for use as GRAM
executables, which is how every example and benchmark launches work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.core.barrier import ABORT, CHECKIN, RELEASE, config_from_release
from repro.core.config import DurocConfig
from repro.errors import CoAllocationError, StopProcess
from repro.machine.host import ProcessContext
from repro.net.transport import Port
from repro.resilience import Deadline, RetryPolicy
from repro.simcore.probe import emit
from repro.simcore.resources import TIMED_OUT
from repro.simcore.tracing import OBS_CONTEXT_PARAM, TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment

#: Context parameter keys injected by the DUROC co-allocator at submit.
PARAM_CONTACT = "duroc.contact"
PARAM_SLOT = "duroc.slot"

#: Check-in retransmission: the barrier messages ride the same lossy
#: datagram network as everything else, so a process re-sends its
#: check-in until the co-allocator's verdict (RELEASE/ABORT) arrives.
#: The co-allocator records check-ins idempotently and answers
#: retransmissions from released slots with the configuration again.
#: A waiting process backs off — resends 2, 6, 14, 30, 60, 90 and 120 s
#: after its first check-in — so barrier traffic follows the number of
#: processes, not how long they wait; 122 s after the first check-in it
#: gives up on the co-allocator.  No jitter: the simulated network has
#: no congestion for de-synchronised resends to relieve.  The price is
#: recovery latency: a lost first CHECKIN is still repaired after 2 s,
#: a RELEASE lost after a long wait only at the next resend, up to
#: ``max_delay`` later (docs/RESILIENCE.md).
CHECKIN_RESEND = RetryPolicy(
    max_attempts=8,
    base_delay=2.0,
    multiplier=2.0,
    max_delay=30.0,
    jitter=0.0,
    deadline=122.0,
)


#: The waits of one barrier call, shared by all of them: the resend
#: schedule, then whatever is left of the deadline.
_ROUNDS = (*CHECKIN_RESEND.schedule(), float("inf"))


def _verdict(message: Any) -> bool:
    return message.kind in (RELEASE, ABORT)


def _report(env: "Environment", port: Port, name: str, **attrs: Any) -> None:
    """Report a barrier event under the port's address, formatted only
    for an observer: most processes never need the text."""
    if env.probe is not None:
        emit(env, str(port.endpoint), name, **attrs)


def barrier(
    ctx: ProcessContext,
    port: Port,
    ok: bool = True,
    reason: Optional[str] = None,
    trace: Optional[TraceContext] = None,
) -> Generator:
    """Check in to the co-allocation barrier and wait for the verdict.

    Returns the :class:`~repro.core.config.DurocConfig` on release.
    Raises :class:`~repro.errors.StopProcess` if the co-allocation is
    aborted (the process "may not return from the barrier"), and also
    when ``ok=False`` was reported (a process that failed startup never
    proceeds) or no verdict arrives before ``CHECKIN_RESEND.deadline``
    (the co-allocator is taken for lost).  ``trace`` rides on the
    check-in message so the co-allocator can tie its barrier accounting
    into the trace tree.
    """
    if PARAM_CONTACT not in ctx.params:
        raise CoAllocationError(
            "process was not started under DUROC (missing duroc.contact)"
        )
    contact = ctx.params[PARAM_CONTACT]
    slot_id = ctx.params[PARAM_SLOT]
    payload = {
        "slot_id": slot_id,
        "rank": ctx.rank,
        "ok": ok,
        "reason": reason,
        "endpoint": port.endpoint,
    }
    env = ctx.env
    _report(env, port, "barrier.enter", slot=slot_id, rank=ctx.rank, ok=ok)
    port.send(contact, CHECKIN, payload=payload, ctx=trace)
    deadline = Deadline(env, CHECKIN_RESEND.deadline)
    # One timed receive per round; a wait the deadline cut short is the last.
    for delay in _ROUNDS:
        wait = deadline.clamp(delay)
        message = yield port.recv(_verdict, wait)
        if message is not TIMED_OUT:
            break
        if wait < delay:
            _report(env, port, "barrier.abandoned", slot=slot_id, rank=ctx.rank)
            raise StopProcess(("failed", "no barrier verdict arrived"))
        port.send(contact, CHECKIN, payload=payload, ctx=trace)
    if message.kind == ABORT:
        _report(env, port, "barrier.exit", slot=slot_id, rank=ctx.rank, verdict="abort")
        raise StopProcess(("aborted", message.payload.get("reason")))
    if not ok:  # pragma: no cover - the co-allocator never releases failures
        raise StopProcess(("failed", reason))
    _report(env, port, "barrier.exit", slot=slot_id, rank=ctx.rank, verdict="release")
    return config_from_release(message.payload)


#: Payload body: called after release with (ctx, port, config).
Body = Callable[[ProcessContext, Port, DurocConfig], Generator]


def make_program(
    startup: float = 0.0,
    body: Optional[Body] = None,
    startup_ok: Optional[Callable[[ProcessContext], tuple[bool, Optional[str]]]] = None,
    runtime: float = 0.0,
) -> Callable[[ProcessContext], Generator]:
    """Build a DUROC-aware program callable.

    ``startup`` seconds of initialization are scaled by the machine's
    load factor (an overloaded machine is late to the barrier — the
    paper's motivating failure).  ``startup_ok(ctx)`` may veto startup
    (application-defined failure: library checks, disk space, ...).
    After release, ``body`` runs; absent a body the process sleeps
    ``runtime`` seconds.
    """

    def program(ctx: ProcessContext) -> Generator:
        coallocated = PARAM_CONTACT in ctx.params
        # A plain-GRAM process without a body would never read a port.
        port = ctx.port("duroc") if coallocated or body is not None else None
        span = ctx.tracer.span(
            "app.startup",
            parent=ctx.params.get(OBS_CONTEXT_PARAM),
            rank=ctx.rank,
            executable=ctx.executable,
            site=ctx.machine.name,
        )
        if startup > 0:
            yield ctx.env.timeout(ctx.machine.startup_delay(startup))
        ok, reason = (True, None) if startup_ok is None else startup_ok(ctx)
        span.finish(ok=ok)
        # Waiting at the barrier needs only the span's context.
        trace = span.context
        del span
        if coallocated:
            assert port is not None
            config = yield from barrier(
                ctx, port, ok=ok, reason=reason, trace=trace
            )
        else:
            # Started by plain GRAM (no co-allocator): run standalone.
            config = None
            if not ok:
                raise StopProcess(("failed", reason))
        if body is not None:
            assert port is not None
            result = yield from body(ctx, port, config)
            return result
        if runtime > 0:
            yield ctx.env.timeout(runtime)
        return config.global_rank() if config is not None else ctx.rank

    return program
