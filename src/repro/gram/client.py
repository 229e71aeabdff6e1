"""GRAM client library.

The client-side analogue of the Globus GRAM API: submit a request to a
gatekeeper contact, poll job status, cancel, and receive asynchronous
state callbacks.  All calls are generators to be driven inside
simulated processes (``yield from client.submit(...)``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

import numpy as np

from repro.errors import AuthTimeout, GramError, HostDown, RPCTimeout
from repro.gram.gatekeeper import GATEKEEPER_PORT, SUBMIT
from repro.gram.jobmanager import CALLBACK, CANCEL, REGISTER, STATUS, UNREGISTER
from repro.gram.states import JobState
from repro.gsi.auth import AuthConfig, initiate
from repro.gsi.credentials import Credential
from repro.net.address import Endpoint
from repro.net.network import Network
from repro.net.rpc import RPCError, call
from repro.net.transport import Port, ephemeral_endpoint
from repro.resilience import BreakerBoard, CircuitBreaker, RetryPolicy, retrying
from repro.rsl.ast import Specification
from repro.rsl.printer import unparse
from repro.simcore.tracing import TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment

_client_seq = itertools.count(1)

#: Transient submit failures: a lost reply, a dead peer that may come
#: back, or a GSI handshake that never completed.
SUBMIT_RETRY_ON = (RPCTimeout, HostDown, AuthTimeout)


@dataclass
class JobHandle:
    """Client-side view of a submitted job."""

    job_id: str
    #: The job manager's identity and callback source; nothing listens there.
    manager: Endpoint
    #: The gatekeeper that issued the job, as ``submit`` resolved it:
    #: where every status/cancel/(un)register for the job is sent.
    gatekeeper: Endpoint
    state: JobState = JobState.PENDING
    failure_reason: Optional[str] = None
    submitted_at: float = 0.0
    active_at: Optional[float] = None
    finished_at: Optional[float] = None

    def update(self, state: JobState, reason: Optional[str], now: float) -> None:
        self.state = state
        self.failure_reason = reason
        if state is JobState.ACTIVE and self.active_at is None:
            self.active_at = now
        if state.terminal and self.finished_at is None:
            self.finished_at = now


def contact_endpoint(contact: str) -> Endpoint:
    """Resolve a resource manager contact string to the gatekeeper port.

    Accepts either ``"host"`` (conventional port assumed) or
    ``"host:port"``.
    """
    if ":" in contact:
        return Endpoint.parse(contact)
    # Gatekeeper contacts are resolved once per request: intern them so
    # repeated resolutions share one canonical (pre-hashed) instance.
    return Endpoint(contact, GATEKEEPER_PORT).intern()


class CallbackListener:
    """Receives ``gram.callback`` messages and dispatches to handlers.

    DUROC registers one handler per subjob; applications may register a
    catch-all with job_id ``None``.
    """

    def __init__(self, network: Network, host: str) -> None:
        self.port = Port(network, ephemeral_endpoint(host, "gram-cb"))
        self.endpoint = self.port.endpoint
        self._handlers: dict[Optional[str], list[Callable]] = {}
        self.process = network.env.process(self._listen(), name="gram-cb-listener")

    def on(self, job_id: Optional[str], handler: Callable[[str, JobState, Any], None]) -> None:
        """Register ``handler(job_id, state, reason)``; None = catch-all."""
        self._handlers.setdefault(job_id, []).append(handler)

    def off(
        self,
        job_id: Optional[str],
        handler: Optional[Callable[[str, JobState, Any], None]] = None,
    ) -> None:
        """Unregister handler(s) for ``job_id`` (idempotent).

        With ``handler=None`` every handler under that key is removed.
        Long-lived listeners (one DUROC serves many jobs) must drop
        per-job handlers once the job is terminal or they accumulate
        forever.
        """
        if handler is None:
            self._handlers.pop(job_id, None)
            return
        handlers = self._handlers.get(job_id)
        if handlers is None:
            return
        if handler in handlers:
            handlers.remove(handler)
        if not handlers:
            self._handlers.pop(job_id, None)

    def _listen(self):
        while True:
            message = yield self.port.recv_kind(CALLBACK)
            payload = message.payload
            job_id = payload["job_id"]
            for key in (job_id, None):
                for handler in self._handlers.get(key, ()):
                    handler(job_id, payload["state"], payload.get("reason"))


class GramClient:
    """Submit/status/cancel against GRAM gatekeepers."""

    def __init__(
        self,
        network: Network,
        host: str,
        credential: Credential,
        auth: Optional[AuthConfig] = None,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        breakers: Optional[BreakerBoard] = None,
    ) -> None:
        self.network = network
        self.env: "Environment" = network.env
        self.host = host
        self.credential = credential
        self.auth = auth or AuthConfig()
        self.tracer = self.env.tracer
        #: Default retry policy for ``submit`` (None = single attempt,
        #: the pre-resilience behaviour).  Jitter draws come from
        #: ``rng`` — pass a seeded registry stream for reproducibility.
        self.retry = retry
        self.rng = rng
        #: Per-gatekeeper circuit breakers (None = no fail-fast).
        self.breakers = breakers

    def _fresh_port(self) -> Port:
        """An ephemeral reply port; the caller closes it when its call
        concludes, so a reply that arrives later is an "unbound" drop."""
        return Port(self.network, ephemeral_endpoint(self.host, "gram"))

    def _call(self, gatekeeper: Endpoint, kind: str, payload: Any, timeout: Optional[float]):
        """One RPC to a gatekeeper over a reply port of its own."""
        port = self._fresh_port()
        try:
            return (yield from call(port, gatekeeper, kind, payload=payload, timeout=timeout))
        finally:
            port.close()

    def _control(self, handle: JobHandle, kind: str, timeout: Optional[float], **fields: Any):
        """A job-control RPC to the job's gatekeeper: updates and returns the
        handle's state; :class:`GramError` if the gatekeeper refuses it."""
        try:
            payload = yield from self._call(
                handle.gatekeeper, kind, {"job_id": handle.job_id, **fields}, timeout
            )
        except RPCError as exc:
            raise GramError(
                f"{kind} for {handle.job_id} refused: {exc.payload}",
                contact=str(handle.gatekeeper),
                payload=exc.payload,
            ) from None
        handle.update(payload["state"], payload.get("reason"), self.env.now)
        return handle.state

    def _breaker(self, endpoint: Endpoint) -> Optional[CircuitBreaker]:
        if self.breakers is None:
            return None
        return self.breakers.breaker(endpoint)

    # -- API --------------------------------------------------------------

    def submit(
        self,
        contact: str,
        rsl: "str | Specification",
        callback: Optional[Endpoint] = None,
        params: Optional[dict[str, Any]] = None,
        timeout: Optional[float] = None,
        ctx: Optional[TraceContext] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        """Submit a request; returns a :class:`JobHandle` or raises
        :class:`GramError` / :class:`~repro.errors.RPCTimeout` (or
        :class:`~repro.errors.RetryExhausted` under a retry policy).

        The call spans mutual authentication plus gatekeeper processing;
        it returns when the gatekeeper has created the job manager —
        job *activation* arrives later via callback or status polls.
        ``ctx`` parents the client-side ``gram.submit`` span (and, via
        the wire, everything the gatekeeper does for this request).

        ``retry`` (default: the client's policy) bounds re-submission
        on transient failures.  Every attempt carries the same
        ``submission_id``, which the gatekeeper deduplicates — a retry
        whose predecessor lost only the *reply* gets the original job
        back instead of a duplicate.
        """
        dst = contact_endpoint(contact)
        rsl_text = rsl if isinstance(rsl, str) else unparse(rsl)
        submission_id = f"{self.host}/sub{next(_client_seq)}"
        policy = retry if retry is not None else self.retry
        span = self.tracer.span("gram.submit", parent=ctx, contact=contact)

        def attempt():
            port = self._fresh_port()
            try:
                session = yield from initiate(
                    port, dst, self.credential, self.auth, timeout=timeout,
                    ctx=span.context,
                )
                try:
                    return (yield from call(
                        port,
                        dst,
                        SUBMIT,
                        payload={
                            "rsl": rsl_text,
                            "callback": callback,
                            "params": dict(params or {}),
                            "session": session.session_id,
                            "submission_id": submission_id,
                        },
                        timeout=timeout,
                        ctx=span.context,
                    ))
                except RPCError as exc:
                    raise GramError(
                        f"submit to {contact} refused: {exc.payload}",
                        contact=contact,
                        payload=exc.payload,
                    ) from None
            finally:
                port.close()

        try:
            if policy is None and self.breakers is None:
                payload = yield from attempt()
            else:
                payload = yield from retrying(
                    self.env,
                    policy if policy is not None else RetryPolicy.none(),
                    attempt,
                    rng=self.rng,
                    retry_on=SUBMIT_RETRY_ON,
                    operation="gram.submit",
                    endpoint=dst,
                    breaker=self._breaker(dst),
                )
        except BaseException:
            span.finish(ok=False)
            raise
        handle = JobHandle(
            job_id=payload["job_id"],
            manager=payload["manager"],
            submitted_at=self.env.now,
            gatekeeper=dst,
        )
        span.finish(ok=True, job=handle.job_id)
        return handle

    def status(
        self,
        handle: JobHandle,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        """Poll the job's gatekeeper; updates and returns the handle's state.

        :meth:`site_status` of one handle, except that a job the
        gatekeeper no longer retains raises :class:`GramError`: its
        last known state is not news.
        """
        states = yield from self.site_status(handle.gatekeeper, [handle], timeout, retry)
        if handle.job_id not in states:
            raise GramError(
                f"{STATUS} for {handle.job_id} refused: unknown job",
                contact=str(handle.gatekeeper),
            )
        return handle.state

    def site_status(
        self,
        gatekeeper: Endpoint,
        handles: Iterable[JobHandle],
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        """Poll a gatekeeper for many of its jobs in one round trip.

        Updates every handle the reply names and returns the reply,
        ``{job_id: (state, reason)}``.  A job the gatekeeper no longer
        retains is absent and its handle untouched: the reply proves the
        site alive, not that job dead.  ``retry`` (explicit only — a poll
        is not retried by default) re-polls on lost replies so a lossy
        network does not read as a dead site.
        """
        by_id = {handle.job_id: handle for handle in handles}

        def attempt():
            return self._call(gatekeeper, STATUS, {"jobs": list(by_id)}, timeout)

        if retry is None:
            states = yield from attempt()
        else:
            states = yield from retrying(
                self.env, retry, attempt,
                rng=self.rng, operation="gram.status", endpoint=gatekeeper,
            )
        for job_id, (state, reason) in states.items():
            by_id[job_id].update(state, reason, self.env.now)
        return states

    def cancel(self, handle: JobHandle, timeout: Optional[float] = None):
        """Cancel the job (idempotent); returns the resulting state."""
        try:
            return (yield from self._control(handle, CANCEL, timeout))
        except RPCTimeout:
            # The site may be dead; locally mark what we know.
            handle.update(JobState.FAILED, "cancel timed out", self.env.now)
            raise

    def register_callback(
        self,
        handle: JobHandle,
        endpoint: Endpoint,
        timeout: Optional[float] = None,
    ):
        """Register a(nother) callback listener on a running job.

        Mirrors GRAM's callback-register operation: monitoring can be
        attached after submission (e.g. by a second tool).
        """
        return self._control(handle, REGISTER, timeout, endpoint=endpoint)

    def unregister_callback(
        self,
        handle: JobHandle,
        endpoint: Endpoint,
        timeout: Optional[float] = None,
    ):
        """Remove a previously registered callback listener."""
        return self._control(handle, UNREGISTER, timeout, endpoint=endpoint)

    def wait_for_state(
        self,
        handle: JobHandle,
        want: JobState,
        poll: float = 0.5,
        timeout: Optional[float] = None,
    ):
        """Poll until the job reaches ``want`` (or any terminal state).

        Returns the final observed state; raises RPCTimeout if a poll
        times out, GramError if ``timeout`` elapses first.
        """
        deadline = None if timeout is None else self.env.now + timeout
        while True:
            state = yield from self.status(handle, timeout=poll * 4 if poll else None)
            if state is want or state.terminal:
                return state
            if deadline is not None and self.env.now >= deadline:
                raise GramError(
                    f"job {handle.job_id} did not reach {want.value} "
                    f"within {timeout:g}s (last state {state.value})",
                    contact=str(handle.gatekeeper),
                )
            yield self.env.timeout(poll)
