"""Integration tests for GRAM: submit, callbacks, cancel, failures."""

import pytest

from repro.errors import GramError
from repro.gram import CallbackListener, JobState, Site
from repro.gram.costs import CostModel
from repro.gsi import initiate
from repro.net import Endpoint, Network, Port
from repro.simcore import Environment, Tracer

from .conftest import rsl_for


def drive(env, gen):
    """Run a client generator as a process and return its result."""
    return env.run(env.process(gen))


class TestSubmit:
    def test_submit_returns_job_handle(self, env, site, client):
        def scenario(env):
            handle = yield from client.submit(site.contact, rsl_for(site.contact))
            return handle

        handle = drive(env, scenario(env))
        assert handle.job_id.startswith("origin/")
        assert handle.manager.host == "origin"

    def test_submit_latency_matches_cost_model(self, env, site, client):
        """Submit spans auth (0.5) + misc (0.01) + initgroups (0.7)."""

        def scenario(env):
            yield from client.submit(site.contact, rsl_for(site.contact))
            return env.now

        elapsed = drive(env, scenario(env))
        costs = site.costs
        floor = costs.auth.total_cpu + costs.misc + costs.initgroups
        assert floor < elapsed < floor + 0.05  # + network round trips

    def test_job_becomes_active_then_done(self, env, site, client):
        def scenario(env):
            handle = yield from client.submit(
                site.contact, rsl_for(site.contact, count=4)
            )
            state = yield from client.wait_for_state(handle, JobState.ACTIVE)
            assert state is JobState.ACTIVE
            state = yield from client.wait_for_state(handle, JobState.DONE)
            return state

        assert drive(env, scenario(env)) is JobState.DONE

    def test_fork_cost_scales_with_count(self, env, site, client):
        times = {}

        def scenario(env, count):
            handle = yield from client.submit(
                site.contact, rsl_for(site.contact, count=count)
            )
            yield from client.wait_for_state(handle, JobState.ACTIVE, poll=0.001)
            times[count] = env.now

        drive(env, scenario(env, 1))
        start = env.now
        drive(env, scenario(env, 64))
        # 63 extra forks at 1 ms each; polling granularity adds slack.
        delta = (times[64] - start) - times[1]
        assert 0.0 <= delta < 0.1

    def test_unknown_executable_refused(self, env, site, client):
        def scenario(env):
            with pytest.raises(GramError, match="not found"):
                yield from client.submit(
                    site.contact, rsl_for(site.contact, executable="nonesuch")
                )
            return True
            yield  # pragma: no cover

        assert drive(env, scenario(env))

    def test_invalid_rsl_refused(self, env, site, client):
        def scenario(env):
            with pytest.raises(GramError):
                yield from client.submit(site.contact, "&(count=1)")  # no executable
            return True

        assert drive(env, scenario(env))

    def test_unauthorized_subject_refused(self, env, site, stranger):
        from repro.errors import AuthenticationError

        def scenario(env):
            with pytest.raises(AuthenticationError, match="gridmap"):
                yield from stranger.submit(site.contact, rsl_for(site.contact))
            return True

        assert drive(env, scenario(env))

    def test_environment_rsl_becomes_params(self, env, net, ca, site, client):
        seen = {}

        def spy(ctx):
            seen.update(ctx.params)
            return
            yield  # pragma: no cover

        site.gatekeeper.programs["spy"] = spy

        def scenario(env):
            rsl = rsl_for(
                site.contact, executable="spy",
                extra="(environment=(MODE fast)(LEVEL 3))",
            )
            yield from client.submit(site.contact, rsl)

        drive(env, scenario(env))
        env.run()
        assert seen["MODE"] == "fast"
        assert seen["LEVEL"] == 3


class TestCallbacks:
    def test_state_callbacks_delivered(self, env, net, site, client):
        listener = CallbackListener(net, "workstation")
        states = []

        def scenario(env):
            handle = yield from client.submit(
                site.contact, rsl_for(site.contact), callback=listener.endpoint
            )
            listener.on(handle.job_id, lambda j, s, r: states.append(s))
            # PENDING callback raced the registration; poll to the end.
            yield from client.wait_for_state(handle, JobState.DONE)

        drive(env, scenario(env))
        assert JobState.ACTIVE in states
        assert states[-1] is JobState.DONE

    def test_catch_all_handler(self, env, net, site, client):
        listener = CallbackListener(net, "workstation")
        seen = []
        listener.on(None, lambda j, s, r: seen.append((j, s)))

        def scenario(env):
            handle = yield from client.submit(
                site.contact, rsl_for(site.contact, executable="quick"),
                callback=listener.endpoint,
            )
            yield from client.wait_for_state(handle, JobState.DONE)
            return handle

        handle = drive(env, scenario(env))
        env.run()
        assert (handle.job_id, JobState.PENDING) in seen
        assert (handle.job_id, JobState.DONE) in seen


class TestCancel:
    def test_cancel_active_job(self, env, site, client):
        def scenario(env):
            handle = yield from client.submit(site.contact, rsl_for(site.contact))
            yield from client.wait_for_state(handle, JobState.ACTIVE)
            state = yield from client.cancel(handle)
            return state

        assert drive(env, scenario(env)) is JobState.FAILED

    def test_cancel_releases_nodes(self, env, site, client):
        def scenario(env):
            handle = yield from client.submit(
                site.contact, rsl_for(site.contact, count=8)
            )
            yield from client.wait_for_state(handle, JobState.ACTIVE)
            yield from client.cancel(handle)

        drive(env, scenario(env))
        env.run()
        assert site.scheduler.free == site.nodes

    def test_cancel_is_idempotent(self, env, site, client):
        def scenario(env):
            handle = yield from client.submit(site.contact, rsl_for(site.contact))
            yield from client.wait_for_state(handle, JobState.ACTIVE)
            yield from client.cancel(handle)
            state = yield from client.cancel(handle)
            return state

        assert drive(env, scenario(env)) is JobState.FAILED

    def test_cancel_after_every_process_exited_leaves_the_job_done(
        self, env, site, client
    ):
        """A rule, not a count of kernel hops: a cancel landing in the
        instant the last process exits cleanly — after the exits, before
        the driver has said so — kills nothing, and the job ends DONE."""
        acks = []

        def scenario(env):
            handle = yield from client.submit(
                site.contact, rsl_for(site.contact, count=2)
            )
            yield from client.wait_for_state(handle, JobState.ACTIVE)
            manager = site.gatekeeper.job_managers[handle.job_id]
            last = site.machine.processes[manager.job.pids[-1]].process

            def cancel_late(event):
                assert manager.job.state is JobState.ACTIVE
                manager.cancel("too late")
                acks.append(manager.job.state)

            # Runs after the job manager's own exit bookkeeping.
            last.callbacks.append(cancel_late)
            yield manager.driver
            return manager.job

        job = drive(env, scenario(env))
        assert acks == [JobState.ACTIVE]
        assert (job.state, job.failure_reason) == (JobState.DONE, None)
        env.run()
        assert site.scheduler.free == site.nodes


class TestGatekeeperDeadlines:
    def test_authenticated_peer_that_never_submits_is_timed_out(self, ca, programs):
        """The gatekeeper waits 30 s for the request with one timed
        receive; the outcome is counted at that instant."""
        env = Environment()
        env.tracer = Tracer(env)
        net = Network(env)
        net.add_host("workstation")
        site = Site(env, net, "origin", nodes=4, ca=ca, programs=programs)
        site.authorize("alice")
        port = Port(net, Endpoint("workstation", "mute"))
        env.process(initiate(port, site.gatekeeper.endpoint, ca.issue("alice")))
        timed_out = env.tracer.metrics.counter("gram.submits_total")
        inflight = env.tracer.metrics.gauge("gram.gatekeeper_inflight")
        # The server's side of the handshake ends at 0.506 s.
        env.run(until=30.5059)
        assert timed_out.value(site="origin", outcome="request_timeout") == 0
        assert inflight.value(site="origin") == 1
        env.run(until=30.5061)
        assert timed_out.value(site="origin", outcome="request_timeout") == 1
        assert inflight.value(site="origin") == 0
        assert len(site.gatekeeper.port.mailbox._waiters) == 1  # the listener


class TestFailureModes:
    def test_application_bug_fails_job(self, env, site, client):
        def scenario(env):
            handle = yield from client.submit(
                site.contact, rsl_for(site.contact, executable="buggy")
            )
            state = yield from client.wait_for_state(handle, JobState.DONE)
            return (state, handle.failure_reason)

        state, reason = drive(env, scenario(env))
        assert state is JobState.FAILED
        assert "application bug" in reason

    def test_machine_crash_fails_running_job(self, env, site, client):
        from repro.faults import HostCrash, schedule

        def scenario(env):
            handle = yield from client.submit(
                site.contact, rsl_for(site.contact, count=4)
            )
            yield from client.wait_for_state(handle, JobState.ACTIVE)
            schedule(
                env, site.machine,
                [HostCrash(site.machine.name, at=env.now + 0.5)],
            )
            yield env.timeout(1.0)
            return handle

        handle = drive(env, scenario(env))
        env.run()
        job = site.gatekeeper.job_managers[handle.job_id].job
        assert job.state is JobState.FAILED

    def test_submit_to_dead_site_times_out(self, env, site, client):
        from repro.errors import AuthenticationError

        site.crash()

        def scenario(env):
            with pytest.raises(AuthenticationError, match="timed out"):
                yield from client.submit(
                    site.contact, rsl_for(site.contact), timeout=5.0
                )
            return env.now

        elapsed = drive(env, scenario(env))
        assert elapsed == pytest.approx(5.0)


class TestQueuedSite:
    def test_fcfs_site_queues_jobs(self, env, net, ca, programs):
        from repro.gram import GramClient, Site
        from repro.schedulers import FcfsScheduler

        site = Site(
            env, net, "batch", nodes=4, ca=ca, programs=programs,
            scheduler_factory=FcfsScheduler,
        )
        site.authorize("alice")
        client = GramClient(net, "workstation", ca.issue("alice"))
        actives = {}

        def scenario(env, label):
            handle = yield from client.submit(
                site.contact,
                rsl_for(site.contact, count=4, extra="(maxTime=5)"),
            )
            yield from client.wait_for_state(handle, JobState.ACTIVE, poll=0.05)
            actives[label] = env.now
            yield from client.wait_for_state(handle, JobState.DONE)

        env.process(scenario(env, "first"))
        env.process(scenario(env, "second"))
        env.run()
        # Both want all 4 nodes; the second must wait for the first's
        # 5-second sleeper processes to finish.
        assert actives["second"] - actives["first"] >= 5.0
