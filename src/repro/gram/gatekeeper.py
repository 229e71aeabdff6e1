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

from typing import TYPE_CHECKING, Optional

from repro.errors import AuthenticationError, HostDown, RSLError
from repro.gram.costs import CostModel
from repro.gram.job import Job
from repro.gram.jobmanager import CANCEL, REGISTER, STATUS, UNREGISTER, JobManager
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
    # BoundedDict is imported lazily in __init__: repro.core's package
    # init reaches back into repro.gram via the co-allocator, so a
    # module-level import here would close that cycle.
    from repro.core.bounded import BoundedDict
    from repro.simcore.environment import Environment
    from repro.simcore.metrics import BoundCounter

SUBMIT = "gram.submit"
PING = "gram.ping"

#: The well-known gatekeeper port name.
GATEKEEPER_PORT = "gatekeeper"

#: Bound on per-gatekeeper retained request state (job-manager handles,
#: the submission dedup cache and the parsed-RSL table).  LRU eviction:
#: an entry only matters while its client may still retry, so the bound
#: need only exceed the in-flight window, not the service lifetime.
RETAINED_JOBS_MAX = 1024


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
        from repro.core.bounded import BoundedDict

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
        #: Job managers created by this gatekeeper, by job id.  The
        #: handle table is a lookup registry, not ownership: evicting
        #: an entry never stops the manager's process.
        self.job_managers: "BoundedDict[str, JobManager]" = BoundedDict(
            RETAINED_JOBS_MAX
        )
        #: Accepted submissions by client submission id: a retried
        #: submit whose predecessor lost only the reply is answered
        #: from this cache instead of creating a duplicate job.  LRU —
        #: retries arrive within the client's resend window, far inside
        #: the bound; an evicted id would merely resubmit.
        self._submissions: "BoundedDict[str, dict]" = BoundedDict(
            RETAINED_JOBS_MAX
        )
        #: Validated subjob specs by RSL text: co-allocators send few
        #: distinct texts many times.  Shared between jobs (every
        #: ``repro.rsl.ast`` node is frozen); a refused text is not kept.
        self._specs: "BoundedDict[str, Conjunction]" = BoundedDict(RETAINED_JOBS_MAX)
        self._job_counter = 0
        self.listener = env.process(self._listen(), name=f"gk:{machine.name}")

    @property
    def contact(self) -> str:
        """The resource manager contact string clients put in RSL."""
        return str(self.endpoint)

    def _listen(self):
        served = (HELLO, PING, STATUS, CANCEL, REGISTER, UNREGISTER)
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
                    self._control(message)
            except HostDown:
                pass  # we died in this very instant; nothing more to say

    def _reply_status(self, message) -> None:
        """Answer for every named job still in the table, in one reply.

        Same host as the job managers, so the same evidence of life.  A
        job never issued here, or evicted, is left out: absent = no news.
        """
        payload = message.payload
        jobs = payload.get("jobs") if isinstance(payload, dict) else None
        if not isinstance(jobs, list):
            reply_error(self.port, message, payload="gram.status needs a 'jobs' list")
            return
        states = {}
        for job_id in jobs:
            # peek: a poll must not reorder the LRU table it reads.
            manager = self.job_managers.peek(job_id)
            if manager is not None:
                states[job_id] = (manager.job.state, manager.job.failure_reason)
        reply_ok(self.port, message, payload=states)

    def _control(self, message) -> None:
        """Cancel a job or edit its callback list, in-process, and answer
        with its status; a job not in the table is an error, not silence."""
        payload = message.payload
        job_id = payload.get("job_id") if isinstance(payload, dict) else None
        manager = self.job_managers.peek(job_id) if isinstance(job_id, str) else None
        if manager is None:
            reply_error(self.port, message, payload="unknown job")
            return
        if message.kind == CANCEL:
            manager.cancel("canceled by request")
        else:
            endpoint = payload.get("endpoint")
            if not isinstance(endpoint, Endpoint):
                reply_error(self.port, message, payload=f"{message.kind} needs an 'endpoint'")
                return
            listening = endpoint in manager.callbacks
            if message.kind == REGISTER and not listening:
                manager.callbacks.append(endpoint)
            elif message.kind == UNREGISTER and listening:
                manager.callbacks.remove(endpoint)
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
            series = self._m_submits[outcome] = (  # repro: noqa mem-grow-only-attr
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

        submission_id = request.payload.get("submission_id")
        if submission_id is not None and submission_id in self._submissions:
            # Idempotent resubmission: the job already exists.
            reply_ok(self.port, request, payload=self._submissions[submission_id])
            self._count_submit("duplicate")
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

        job = self._make_job(spec, request.payload.get("params") or {})
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
        )
        self.job_managers[job.job_id] = manager
        self._count_submit("accepted")
        payload = {"job_id": job.job_id, "manager": manager.contact.manager}
        if submission_id is not None:
            self._submissions[submission_id] = payload
        reply_ok(self.port, request, payload=payload)

    def _parse_request(self, rsl) -> Conjunction:
        if not isinstance(rsl, str):
            raise RSLError(f"rsl must be RSL text, got {type(rsl).__name__}")
        spec = self._specs.get(rsl)
        if spec is None:
            spec = parse(rsl)
            if isinstance(spec, Conjunction):
                # Resolve $(NAME) references against the request's own
                # rslSubstitution bindings before validation.
                spec = resolve_substitutions(spec)
            spec = self._specs[rsl] = validate_subjob_spec(spec)
        return spec

    def _make_job(self, spec: Conjunction, params: dict) -> Job:
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
        )
