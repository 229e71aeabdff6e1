"""The GRAM job manager.

One job manager is created per accepted request.  It owns the job's
state machine: it obtains nodes from the local scheduler, forks the
application processes on the machine and publishes state-change
callbacks to the client.  It is an object, not a server: the site's
gatekeeper answers status/cancel/(un)register messages and calls
:meth:`JobManager.cancel` or edits :attr:`JobManager.callbacks` directly,
so a job that has ended owns no process and no mailbox.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import HostDown, SchedulerError
from repro.gram.costs import CostModel
from repro.gram.job import Job, JobContact
from repro.gram.states import JobState
from repro.machine.host import Machine, Program
from repro.net.address import Endpoint
from repro.net.message import Message
from repro.schedulers.base import LocalScheduler, NodeRequest
from repro.simcore.process import Interrupt
from repro.simcore.tracing import OBS_CONTEXT_PARAM, TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.metrics import BoundCounter
    from repro.simcore.environment import Environment

#: Job-control message kinds, served by the gatekeeper for its managers.
STATUS = "gram.status"
CANCEL = "gram.cancel"
CALLBACK = "gram.callback"
REGISTER = "gram.register_callback"
UNREGISTER = "gram.unregister_callback"


class JobManager:
    """Drives one job from PENDING to a terminal state."""

    def __init__(
        self,
        env: "Environment",
        machine: Machine,
        scheduler: LocalScheduler,
        job: Job,
        program: Program,
        costs: CostModel,
        transitions: "dict[JobState, BoundCounter]",
        callback: Optional[Endpoint] = None,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        self.env = env
        self.machine = machine
        self.scheduler = scheduler
        self.job = job
        self.program = program
        self.costs = costs
        #: Callback listeners; more can be (un)registered at runtime.
        self.callbacks: list[Endpoint] = [callback] if callback is not None else []
        self.tracer = env.tracer
        #: The site's ``gram.job_transitions_total`` series by state:
        #: the gatekeeper resolves them once for all its job managers.
        self._m_transitions = transitions
        #: Trace context of the submit request this manager serves.
        self.ctx = ctx
        #: This manager's identity and the source address of its
        #: callbacks.  Never bound: control goes to the gatekeeper.
        self.endpoint = Endpoint(machine.name, f"jm.{job.job_id.split('/')[-1]}")
        self.contact = JobContact(job_id=job.job_id, manager=self.endpoint)
        self._lease = None
        self._pending_alloc = None
        #: Join over the job's processes, while the driver waits on it.
        self._exits = None
        self.driver = env.process(self._drive(), name=f"jm:{job.job_id}")

    # -- lifecycle ------------------------------------------------------------

    def _count_transition(self) -> None:
        self._m_transitions[self.job.state].inc()

    def _drive(self):
        env = self.env
        job = self.job
        job.transition(JobState.PENDING, env.now)
        self._count_transition()
        self._notify()

        # Obtain nodes from the local scheduling policy.  Requests the
        # machine can never satisfy (too many nodes, too much memory)
        # are refused synchronously.
        queue_start = env.now
        try:
            self._pending_alloc = self.scheduler.submit(
                NodeRequest(
                    count=job.count,
                    max_time=job.max_time,
                    job_id=job.job_id,
                    reservation_id=job.reservation_id,
                    memory=(
                        job.count * job.min_memory
                        if job.min_memory is not None
                        else None
                    ),
                )
            )
        except SchedulerError as exc:
            self._fail(str(exc))
            return
        try:
            self._lease = yield self._pending_alloc.event
        except Interrupt:
            self._fail("canceled while queued")
            return
        except Exception as exc:  # scheduler rejected (e.g. reservation)
            self._fail(str(exc))
            return
        if env.now > queue_start:
            self.tracer.record(
                "gram.queue", queue_start, env.now, parent=self.ctx, job=job.job_id
            )

        # Fork the processes (paper: ~1 ms per process).
        fork_start = env.now
        try:
            yield env.timeout(self.costs.fork(job.count))
        except Interrupt:
            self._release()
            self._fail("canceled during fork")
            return
        self.tracer.record(
            "gram.fork", fork_start, env.now, parent=self.ctx, job=job.job_id
        )

        if self.machine.crashed:
            self._release()
            self._fail("machine crashed")
            return

        records = []
        for rank in range(job.count):
            record = self.machine.spawn(
                self.program,
                executable=job.executable,
                rank=rank,
                count=job.count,
                arguments=job.arguments,
                params=dict(job.params, **{
                    "gram.job_id": job.job_id,
                    "gram.contact": str(self.contact),
                    OBS_CONTEXT_PARAM: self.ctx,
                }),
            )
            records.append(record)
        job.pids = [r.pid for r in records]

        job.transition(JobState.ACTIVE, env.now)
        self._count_transition()
        self._notify()

        # Wait for every process to exit.  If any process dies abnormally
        # (kill, crash, application error), the whole job fails and the
        # remaining processes are terminated.
        self._exits = env.all_of([r.process for r in records])
        try:
            yield self._exits
        except Interrupt as intr:
            for pid in list(self.job.pids):
                self.machine.kill(pid)
            self._release()
            self._fail(str(intr.cause) if intr.cause else "killed")
            return
        except Exception as exc:
            for pid in list(self.job.pids):
                self.machine.kill(pid)
            self._release()
            self._fail(f"process error: {exc}")
            return
        finally:
            # A retained manager must not keep its dead processes alive.
            self._exits = None

        self._release()
        if job.state.terminal:
            # A cancel landed in the same timestep the last process
            # exited: the job is already FAILED; don't claim DONE.
            return
        job.transition(JobState.DONE, env.now)
        self._count_transition()
        self._notify()

    def _release(self) -> None:
        if self._lease is not None and not self._lease.released:
            self._lease.release()
            self._lease = None

    def _fail(self, reason: str) -> None:
        if not self.job.state.terminal:
            self.job.transition(JobState.FAILED, self.env.now, reason=reason)
            self._count_transition()
            self._notify()

    def _notify(self) -> None:
        """Send a state callback to every registered listener."""
        send = self.machine.network.send
        for endpoint in self.callbacks:
            try:
                send(Message(self.endpoint, endpoint, CALLBACK, self.status()))
            except HostDown:
                return  # our own machine died; nothing more to say

    # -- control API (what the gatekeeper answers control messages with) --------

    def status(self) -> dict:
        """The ``{job_id, state, reason}`` payload of callbacks and replies."""
        return {
            "job_id": self.job.job_id,
            "state": self.job.state,
            "reason": self.job.failure_reason,
        }

    def cancel(self, reason: str = "canceled") -> None:
        """Kill the job: dequeue it if still queued, else kill its processes.

        The FAILED transition is applied synchronously so the caller's
        cancel acknowledgment reports the terminal state; the driver's
        own failure path then finds the job already terminal and only
        performs teardown (kills, lease release).
        """
        if self.job.state.terminal:
            return
        exits = self._exits
        if exits is not None and exits.triggered and exits.ok:
            # Every process has already exited cleanly and the driver
            # is about to say so: there is nothing left to kill, and
            # which of the two runs first in this instant must not
            # decide whether the job reads DONE or FAILED.
            return
        self._fail(reason)
        if self._pending_alloc is not None and not self._pending_alloc.granted:
            self._pending_alloc.cancel()
            if self.driver.is_alive:
                self.driver.interrupt(cause=reason)
            return
        if self.job.pids:
            # Killing the processes fails the driver's all_of with an
            # Interrupt, which drives the FAILED transition.
            for pid in list(self.job.pids):
                self.machine.kill(pid)
        elif self.driver.is_alive:
            # Caught mid-fork, before any process exists.
            self.driver.interrupt(cause=reason)
