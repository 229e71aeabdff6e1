"""The GRAM gatekeeper.

The site's front door: it mutually authenticates each requestor (GSI),
authorizes them against the site gridmap, performs the expensive
``initgroups()`` identity switch (paper Fig. 3: 0.7 s against remote
NIS databases), and then hands the request to a freshly created job
manager, returning the job contact to the client.

Each incoming connection is served by its own handler process, as the
real gatekeeper forked per connection.  Job control (status, cancel,
callback registration) is answered by the listener itself, in-process,
for every job manager of the site.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from repro.errors import AuthenticationError, HostDown, RSLError
from repro.gram.costs import CostModel
from repro.gram.job import Job
from repro.gram.jobmanager import CANCEL, STATUS, JobManager
from repro.gram.states import JobState
from repro.gsi.auth import HELLO, accept
from repro.gsi.credentials import CertificateAuthority
from repro.gsi.gridmap import GridMap
from repro.machine.host import Machine, Program
from repro.net.address import Endpoint
from repro.net.rpc import reply_error, reply_ok
from repro.net.transport import Port
from repro.rsl.ast import Conjunction, ValueSequence
from repro.rsl.attributes import (
    ARGUMENTS,
    COUNT,
    ENVIRONMENT,
    EXECUTABLE,
    MAX_TIME,
    MIN_MEMORY,
    RESERVATION_ID,
    validate_subjob_spec,
)
from repro.rsl.parser import parse
from repro.rsl.transform import resolve_substitutions
from repro.schedulers.base import LocalScheduler
from repro.simcore.resources import TIMED_OUT

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment
    from repro.simcore.metrics import BoundCounter

SUBMIT = "gram.submit"
PING = "gram.ping"

#: The well-known gatekeeper port name.
GATEKEEPER_PORT = "gatekeeper"

#: Simulated seconds a finished job stays in the gatekeeper's tables:
#: a poller whose DONE callback was lost still reads DONE from
#: ``gram.status``, and a retried submit is still deduplicated.  Long
#: against every client poll and retry episode — about 30x a default
#: ``RetryPolicy`` episode (4 attempts of 30 s calls plus backoff).
FINISHED_JOB_RETENTION = 3600.0


class JobLedger:
    """What a site's jobs did once they ended.

    ``finished`` holds the finished jobs in finishing order, so their
    expiry times never decrease; the gatekeeper drops them from there
    after FINISHED_JOB_RETENTION.  ``wasted_node_seconds`` bills every
    job that started and then failed (killed or cancelled) as it ends,
    for the site's whole history.  Every job manager reports its end
    through :meth:`ended`; the ledger holds nothing of the gatekeeper,
    so the hook makes no reference cycle.
    """

    __slots__ = ("finished", "wasted_node_seconds")

    def __init__(self) -> None:
        self.finished: deque[Job] = deque()
        self.wasted_node_seconds = 0.0

    def ended(self, job: Job) -> None:
        self.finished.append(job)
        if job.state is JobState.FAILED and job.active_at is not None:
            assert job.finished_at is not None  # set with the terminal state
            self.wasted_node_seconds += job.count * (job.finished_at - job.active_at)


def _validated_spec(rsl: str) -> Conjunction:
    """RSL text -> its validated subjob spec; raises :class:`RSLError`."""
    spec = parse(rsl)
    if isinstance(spec, Conjunction):
        # Resolve $(NAME) references against the request's own
        # rslSubstitution bindings before validation.
        spec = resolve_substitutions(spec)
    return validate_subjob_spec(spec)


class Gatekeeper:
    """Per-site request acceptor."""

    def __init__(
        self,
        env: "Environment",
        machine: Machine,
        scheduler: LocalScheduler,
        ca: CertificateAuthority,
        gridmap: GridMap,
        programs: dict[str, Program],
        costs: Optional[CostModel] = None,
    ) -> None:
        self.env = env
        self.machine = machine
        self.scheduler = scheduler
        self.ca = ca
        self.gridmap = gridmap
        self.programs = programs
        self.costs = costs or CostModel()
        self.tracer = env.tracer
        self.metrics = metrics = self.tracer.metrics
        # This site's series, bound once (a handle asks for its
        # instrument on its first write).
        site = machine.name
        self._m_inflight = metrics.bind("gauge", "gram.gatekeeper_inflight", site=site)
        #: Submit outcome -> its counter, bound at the first such outcome.
        self._m_submits: "dict[str, BoundCounter]" = {}
        self._m_transitions = {
            state: metrics.bind(
                "counter", "gram.job_transitions_total", state=state.value, site=site
            )
            for state in JobState
        }
        self.port = Port(machine.network, Endpoint(machine.name, GATEKEEPER_PORT))
        self.endpoint = self.port.endpoint
        #: Job managers created by this gatekeeper, by job id: every
        #: live job, and each finished one for FINISHED_JOB_RETENTION.
        self.job_managers: dict[str, JobManager] = {}
        #: Accepted submissions by client submission id: a retried
        #: submit whose predecessor lost only the reply is answered
        #: from this cache instead of creating a duplicate job.  An
        #: entry goes with its job's, so the job is never duplicated
        #: while it is known.
        self._submissions: dict[str, dict] = {}
        self.ledger = JobLedger()
        #: Validated subjob specs by RSL text: co-allocators send few
        #: distinct texts many times.  Shared between jobs (every
        #: ``repro.rsl.ast`` node is frozen); a refused text raises, so
        #: it is not kept.  Bounded, since the keys are request data.
        self._specs = lru_cache(maxsize=1024)(_validated_spec)
        self._job_counter = 0
        self.listener = env.process(self._listen(), name=f"gk:{machine.name}")

    @property
    def contact(self) -> str:
        """The resource manager contact string clients put in RSL."""
        return str(self.endpoint)

    def _listen(self):
        served = (HELLO, PING, STATUS, CANCEL)
        while True:
            message = yield self.port.recv(filter=lambda m: m.kind in served)
            try:
                if message.kind == HELLO:
                    self.env.process(
                        self._handle(message), name=f"gk-conn:{self.machine.name}"
                    )
                elif message.kind == PING:
                    reply_ok(self.port, message, payload={"contact": self.contact})
                elif message.kind == STATUS:
                    self._reply_status(message)
                else:
                    self._cancel(message)
            except HostDown:
                pass  # we died in this very instant; nothing more to say

    def _reply_status(self, message) -> None:
        """Answer for every named job still in the table, in one reply.

        Same host as the job managers, so the same evidence of life.  A
        job never issued here, or finished longer ago than
        FINISHED_JOB_RETENTION, is left out: absent = no news.
        """
        payload = message.payload
        jobs = payload.get("jobs") if isinstance(payload, dict) else None
        if not isinstance(jobs, list):
            reply_error(self.port, message, payload="gram.status needs a 'jobs' list")
            return
        states = {}
        managers = self.job_managers
        for job_id in jobs:
            manager = managers.get(job_id) if isinstance(job_id, str) else None
            if manager is not None:
                states[job_id] = (manager.job.state, manager.job.failure_reason)
        reply_ok(self.port, message, payload=states)

    def _cancel(self, message) -> None:
        """Cancel a job in-process and answer with its status; a job not
        in the table (never issued, or past its retention) is an error,
        not silence."""
        payload = message.payload
        job_id = payload.get("job_id") if isinstance(payload, dict) else None
        manager = self.job_managers.get(job_id) if isinstance(job_id, str) else None
        if manager is None:
            reply_error(self.port, message, payload="unknown job")
            return
        manager.cancel("canceled by request")
        reply_ok(self.port, message, payload=manager.status())

    def _handle(self, hello):
        """Serve one connection: authenticate, authorize, submit."""
        self._m_inflight.inc()
        try:
            yield from self._handle_inner(hello)
        finally:
            self._m_inflight.dec()

    def _count_submit(self, outcome: str) -> None:
        series = self._m_submits.get(outcome)
        if series is None:
            # Code-bounded: outcomes are the string literals at this
            # class's _count_submit calls, not request data.
            series = self._m_submits[outcome] = (
                self.metrics.bind(
                    "counter", "gram.submits_total",
                    site=self.machine.name, outcome=outcome,
                )
            )
        series.inc()

    def _handle_inner(self, hello):
        env = self.env
        ctx = hello.trace_ctx
        auth_start = env.now
        try:
            session = yield from accept(
                self.port, hello, self.ca, self.gridmap, self.costs.auth,
                timeout=30.0,
            )
        except AuthenticationError:
            self._count_submit("auth_failed")
            return  # the client was already informed by accept()
        except HostDown:
            self._count_submit("host_down")
            return
        self.tracer.record(
            "gram.auth", auth_start, env.now, parent=ctx, site=self.machine.name
        )

        # The authenticated peer now sends the actual request.
        request = yield self.port.recv(
            lambda m: m.kind == SUBMIT and m.src == session.peer, 30.0
        )
        if request is TIMED_OUT:
            self._count_submit("request_timeout")
            return
        ctx = request.trace_ctx or ctx

        self._forget_finished()
        submission_id = request.payload.get("submission_id")
        if self._answered(request, submission_id):
            return

        misc_start = env.now
        try:
            spec = self._parse_request(request.payload["rsl"])
        except RSLError as exc:
            yield env.timeout(self.costs.misc)
            reply_error(self.port, request, payload=str(exc))
            self._count_submit("bad_rsl")
            return
        yield env.timeout(self.costs.misc)
        self.tracer.record(
            "gram.misc", misc_start, env.now, parent=ctx, site=self.machine.name
        )

        executable = spec.get(EXECUTABLE)
        if executable not in self.programs:
            reply_error(
                self.port, request, payload=f"executable {executable!r} not found"
            )
            self._count_submit("no_executable")
            return

        # initgroups(): switch to the gridmap-resolved local user.  The
        # paper's single largest cost — consults remote NIS databases.
        ig_start = env.now
        yield env.timeout(self.costs.initgroups)
        self.tracer.record(
            "gram.initgroups", ig_start, env.now, parent=ctx, site=self.machine.name
        )

        if self.machine.crashed:
            self._count_submit("crashed")
            return  # we died mid-request; the client's timeout handles it
        # Another attempt of this submission may have made its job
        # while this one waited in initgroups.
        if self._answered(request, submission_id):
            return

        job = self._make_job(spec, request.payload.get("params") or {}, submission_id)
        manager = JobManager(
            env=env,
            machine=self.machine,
            scheduler=self.scheduler,
            job=job,
            program=self.programs[executable],
            costs=self.costs,
            transitions=self._m_transitions,
            callback=request.payload.get("callback"),
            ctx=ctx,
            on_end=self.ledger.ended,
        )
        self.job_managers[job.job_id] = manager
        self._count_submit("accepted")
        payload = {"job_id": job.job_id, "manager": manager.contact.manager}
        if submission_id is not None:
            self._submissions[submission_id] = payload
        reply_ok(self.port, request, payload=payload)

    def _answered(self, request, submission_id) -> bool:
        """Idempotent resubmission: if this submission's job already
        exists, answer with it from the cache."""
        payload = self._submissions.get(submission_id)
        if payload is None:
            return False
        reply_ok(self.port, request, payload=payload)
        self._count_submit("duplicate")
        return True

    def _forget_finished(self) -> None:
        """Drop the jobs whose retention has run out, oldest first, with
        their submission ids.  Lazy — read when a submit arrives, the
        one path that adds entries — so it schedules and sends nothing."""
        finished = self.ledger.finished
        horizon = self.env.now - FINISHED_JOB_RETENTION
        while finished:
            job = finished[0]
            assert job.finished_at is not None  # set before it was queued
            if job.finished_at > horizon:
                return
            finished.popleft()
            del self.job_managers[job.job_id]
            if job.submission_id is not None:
                del self._submissions[job.submission_id]

    def _parse_request(self, rsl) -> Conjunction:
        if not isinstance(rsl, str):
            raise RSLError(f"rsl must be RSL text, got {type(rsl).__name__}")
        return self._specs(rsl)

    def _make_job(
        self, spec: Conjunction, params: dict, submission_id: Optional[str]
    ) -> Job:
        relations = spec.relations()
        args_rel = relations.get(ARGUMENTS.lower())
        env_params = dict(params)
        env_rel = relations.get(ENVIRONMENT.lower())
        if env_rel is not None:
            for item in env_rel.values:
                if isinstance(item, ValueSequence) and len(item) == 2:
                    key, value = item.values
                    env_params[str(key)] = value
        max_time = spec.get(MAX_TIME)
        min_memory = spec.get(MIN_MEMORY)
        reservation_id = spec.get(RESERVATION_ID)
        self._job_counter += 1
        return Job(
            job_id=f"{self.machine.name}/job{self._job_counter}",
            site=self.machine.name,
            count=int(spec.get(COUNT)),
            executable=str(spec.get(EXECUTABLE)),
            arguments=args_rel.values if args_rel is not None else (),
            params=env_params,
            max_time=float(max_time) if max_time is not None else None,
            min_memory=float(min_memory) if min_memory is not None else None,
            reservation_id=str(reservation_id) if reservation_id is not None else None,
            submission_id=submission_id,
        )
