"""Unit tests for GRAM support pieces: cost model, job records, site."""

import pytest

from repro.gram import CostModel, FREE_COSTS, JobState, PAPER_COSTS, Site
from repro.gram.client import contact_endpoint
from repro.gram.job import Job, JobContact
from repro.gsi import CertificateAuthority
from repro.net import Endpoint, Network
from repro.simcore import Environment


class TestCostModel:
    def test_paper_defaults(self):
        assert PAPER_COSTS.initgroups == 0.7
        assert PAPER_COSTS.auth.total_cpu == 0.5
        assert PAPER_COSTS.misc == 0.01
        assert PAPER_COSTS.fork_per_process == 0.001

    def test_fork_scales(self):
        assert PAPER_COSTS.fork(64) == pytest.approx(0.064)

    def test_gatekeeper_serial(self):
        assert PAPER_COSTS.gatekeeper_serial == pytest.approx(0.71)

    def test_free_costs_are_zero(self):
        assert FREE_COSTS.fork(100) == 0.0
        assert FREE_COSTS.gatekeeper_serial == 0.0
        assert FREE_COSTS.auth.total_cpu == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(initgroups=-1)
        with pytest.raises(ValueError):
            CostModel(app_startup_cv=-0.1)

    def test_frozen(self):
        with pytest.raises(Exception):
            PAPER_COSTS.misc = 1.0


class TestJobRecord:
    def test_transition_timestamps(self):
        job = Job(job_id="s/j1", site="s", count=2, executable="x")
        job.transition(JobState.PENDING, 1.0)
        assert job.submitted_at == 1.0
        job.transition(JobState.ACTIVE, 2.0)
        assert job.active_at == 2.0
        job.transition(JobState.DONE, 5.0)
        assert job.finished_at == 5.0

    def test_failure_reason_recorded(self):
        job = Job(job_id="s/j1", site="s", count=2, executable="x")
        job.transition(JobState.PENDING, 0.0)
        job.transition(JobState.FAILED, 1.0, reason="crash")
        assert job.failure_reason == "crash"

    def test_contact_string(self):
        contact = JobContact(job_id="s/j1", manager=Endpoint("s", "jm.j1"))
        assert str(contact) == "s:jm.j1/s/j1"


class TestContactEndpoint:
    def test_host_port_form(self):
        assert contact_endpoint("origin:gatekeeper") == Endpoint(
            "origin", "gatekeeper"
        )

    def test_bare_host_gets_conventional_port(self):
        assert contact_endpoint("origin") == Endpoint("origin", "gatekeeper")


class TestSite:
    def test_wiring(self):
        env = Environment()
        net = Network(env)
        ca = CertificateAuthority()
        site = Site(env, net, "origin", nodes=16, ca=ca, programs={})
        assert site.contact == "origin:gatekeeper"
        assert site.nodes == 16
        assert net.has_host("origin")
        assert site.scheduler.policy == "fork"

    def test_authorize_default_local_user(self):
        env = Environment()
        net = Network(env)
        site = Site(env, net, "s", nodes=4,
                    ca=CertificateAuthority(), programs={})
        site.authorize("alice")
        assert site.gridmap.lookup("alice") == "u-alice"

    def test_crash_and_restore(self):
        env = Environment()
        net = Network(env)
        site = Site(env, net, "s", nodes=4,
                    ca=CertificateAuthority(), programs={})
        site.crash()
        assert not net.host_up("s")
        site.restore()
        assert net.host_up("s")

    def test_scheduler_factory(self):
        from repro.schedulers import FcfsScheduler

        env = Environment()
        net = Network(env)
        site = Site(env, net, "s", nodes=4, ca=CertificateAuthority(),
                    programs={}, scheduler_factory=FcfsScheduler)
        assert site.scheduler.policy == "fcfs"


class TestGatekeeperPing:
    def test_ping_replies_with_contact(self):
        from repro.gram.gatekeeper import PING
        from repro.net import Port, reply_ok  # noqa: F401
        from repro.net.rpc import call

        env = Environment()
        net = Network(env)
        net.add_host("client")
        site = Site(env, net, "origin", nodes=4,
                    ca=CertificateAuthority(), programs={})
        from repro.net.transport import Port as _Port

        port = _Port(net, Endpoint("client", "cli"))

        def scenario(env):
            payload = yield from call(
                port, site.gatekeeper.endpoint, PING, timeout=5.0
            )
            return payload

        payload = env.run(env.process(scenario(env)))
        assert payload == {"contact": "origin:gatekeeper"}


class TestGatekeeperRetention:
    """A gatekeeper keeps every live job, and a finished one for
    FINISHED_JOB_RETENTION simulated seconds; the first submit after
    that drops it, together with its submission id."""

    @staticmethod
    def world():
        from repro.gram import GramClient

        from .conftest import sleeper_program

        env = Environment()
        net = Network(env)
        net.add_host("client")
        ca = CertificateAuthority()
        programs = {"quick": sleeper_program(0.0), "long": sleeper_program(1e7)}
        site = Site(env, net, "s", nodes=4, ca=ca, programs=programs)
        site.authorize("alice")
        return env, net, site, ca, GramClient(net, "client", ca.issue("alice"))

    def test_request_tables_are_bounded(self):
        from repro.gram.gatekeeper import FINISHED_JOB_RETENTION

        from .conftest import drive, rsl_for

        env, _, site, _, client = self.world()
        gatekeeper = site.gatekeeper

        def submit(executable):
            text = rsl_for(site.contact, executable=executable)
            return (yield from client.submit(site.contact, text)).job_id

        def scenario(env):
            jobs = [(yield from submit("quick")), (yield from submit("long"))]
            for _ in range(2):
                yield env.timeout(FINISHED_JOB_RETENTION / 2 + 1.0)
                jobs.append((yield from submit("quick")))
            return jobs

        expired, live, *recent = drive(env, scenario(env))
        # The live job and those inside their window, and nothing else.
        assert list(gatekeeper.job_managers) == [live, *recent]
        assert [p["job_id"] for p in gatekeeper._submissions.values()] == [live, *recent]
        for manager in gatekeeper.job_managers.values():
            job = manager.job
            assert not job.state.terminal or job.finished_at + FINISHED_JOB_RETENTION > env.now
        # A live job is never dropped, however long it runs.
        env.run(until=env.now + 3 * FINISHED_JOB_RETENTION)
        last = drive(env, submit("quick"))
        assert list(gatekeeper.job_managers) == [live, last]
        assert len(gatekeeper._submissions) == 2
        assert gatekeeper.job_managers[live].job.state is JobState.ACTIVE

    @staticmethod
    def submit_as(net, site, credential, submission_id, name="raw"):
        """One submit over a port of its own, with a chosen submission id."""
        from repro.gram.gatekeeper import SUBMIT
        from repro.gsi import initiate
        from repro.net import Port
        from repro.net.rpc import call

        from .conftest import rsl_for

        port = Port(net, Endpoint("client", name))
        gatekeeper = site.gatekeeper.endpoint
        try:
            session = yield from initiate(port, gatekeeper, credential)
            return (yield from call(
                port, gatekeeper, SUBMIT,
                payload={
                    "rsl": rsl_for(site.contact, executable="quick"),
                    "session": session.session_id,
                    "submission_id": submission_id,
                },
                timeout=5.0,
            ))
        finally:
            port.close()

    def test_a_retried_submit_is_deduplicated_while_its_job_is_known(self):
        from repro.gram.gatekeeper import FINISHED_JOB_RETENTION

        from .conftest import drive, rsl_for

        env, net, site, ca, client = self.world()
        gatekeeper = site.gatekeeper
        credential = ca.issue("alice")
        text = rsl_for(site.contact, executable="quick")

        def newer():
            yield from client.submit(site.contact, text)

        def scenario(env):
            original = yield from self.submit_as(net, site, credential, "client/retried")
            yield env.all_of([env.process(newer()) for _ in range(1030)])
            retried = yield from self.submit_as(net, site, credential, "client/retried")
            jobs = len(gatekeeper.job_managers)
            yield env.timeout(FINISHED_JOB_RETENTION)
            fresh = yield from self.submit_as(net, site, credential, "client/retried")
            return original, retried, jobs, fresh

        original, retried, jobs, fresh = drive(env, scenario(env))
        # Behind 1 030 newer submissions, the retry is still answered
        # from the cache: the same job, and no new one.
        assert retried == original
        assert jobs == 1031
        # Past the window the id is forgotten with its job: a new one.
        assert fresh["job_id"] != original["job_id"]
        assert list(gatekeeper.job_managers) == [fresh["job_id"]]
        assert gatekeeper._submissions == {"client/retried": fresh}

    def test_two_attempts_in_flight_at_once_make_one_job(self):
        """The second attempt passes the first dedup check while the
        first is still in initgroups; it is answered from the cache
        once the first has made the job."""
        env, net, site, ca, _ = self.world()
        credential = ca.issue("alice")
        replies = []

        def attempt(name):
            replies.append((yield from self.submit_as(
                net, site, credential, "client/sub1", name
            )))

        env.run(env.all_of([env.process(attempt(name)) for name in ("a", "b")]))
        assert replies[0] == replies[1]
        assert list(site.gatekeeper.job_managers) == [replies[0]["job_id"]]
