"""Integration tests for co-allocation agents (strategies)."""

import pytest

from repro.broker import (
    AtomicAgent,
    InteractiveAgent,
    OrderedAcquisitionAgent,
    OverAllocatingAgent,
    plan_layout,
)
from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.errors import ReproError
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.mds import Directory


@pytest.fixture
def grid():
    return (
        GridBuilder(seed=11)
        .add_machine("RM1", nodes=64)
        .add_machine("RM2", nodes=64)
        .add_machine("RM3", nodes=64)
        .add_machine("RM4", nodes=64)
        .build()
    )


@pytest.fixture
def directory(grid):
    d = Directory(grid.env, refresh_interval=5.0)
    for site in grid.sites.values():
        d.register(site)
    return d


def spec(grid, name, count=4, start_type=SubjobType.REQUIRED, timeout=None):
    return SubjobSpec(
        contact=grid.site(name).contact,
        count=count,
        executable=DEFAULT_EXECUTABLE,
        start_type=start_type,
        timeout=timeout,
    )


def drive(grid, gen):
    return grid.run(grid.process(gen))


class TestAtomicAgent:
    def test_clean_grid_first_attempt(self, grid):
        agent = AtomicAgent(grid.grab())

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest([spec(grid, "RM1"), spec(grid, "RM2")])
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert outcome.success
        assert outcome.attempts == 1

    def test_retry_with_substitution_from_directory(self, grid, directory):
        grid.site("RM2").crash()
        agent = AtomicAgent(
            grid.grab(submit_timeout=5.0), max_attempts=3, directory=directory
        )

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest([spec(grid, "RM1"), spec(grid, "RM2")])
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert outcome.success
        assert outcome.attempts == 2
        assert outcome.substitutions == 1

    def test_exhausts_attempts_without_directory(self, grid):
        grid.site("RM2").crash()
        agent = AtomicAgent(grid.grab(submit_timeout=2.0), max_attempts=2)

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest([spec(grid, "RM1"), spec(grid, "RM2")])
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert not outcome.success
        assert outcome.attempts == 2
        assert "aborted" in outcome.log[0]

    def test_resubmissions_are_metered(self, grid):
        # The retry episode reads the grid's registry off env.tracer like
        # every other instrumented component (it used to be built
        # without one, so GRAB resubmissions were invisible).
        resubmissions = 3
        grid.site("RM2").crash()
        agent = AtomicAgent(
            grid.grab(submit_timeout=2.0), max_attempts=resubmissions + 1
        )
        outcome = drive(
            grid,
            agent.allocate(
                CoAllocationRequest([spec(grid, "RM1"), spec(grid, "RM2")])
            ),
        )
        assert not outcome.success
        assert outcome.attempts == resubmissions + 1
        metrics = grid.tracer.metrics
        assert metrics.counter("resilience.retries_total").value(
            operation="grab.allocate"
        ) == resubmissions
        assert metrics.counter("resilience.exhausted_total").value(
            operation="grab.allocate"
        ) == 1

    def test_restart_pays_full_price(self, grid, directory):
        """Each failed attempt costs a whole submission round."""
        grid.site("RM1").crash()
        agent = AtomicAgent(
            grid.grab(submit_timeout=4.0), max_attempts=3, directory=directory
        )

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest([spec(grid, "RM1"), spec(grid, "RM2")])
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert outcome.success
        # Attempt 1 burned the 4 s submit timeout plus teardown.
        assert outcome.elapsed > 4.0

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            AtomicAgent(grid.grab(), max_attempts=0)


class TestInteractiveAgent:
    def test_substitutes_from_spares(self, grid):
        grid.site("RM2").crash()
        duroc = grid.duroc(submit_timeout=5.0)
        agent = InteractiveAgent(
            duroc, spares=[grid.site("RM4").contact]
        )

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest(
                    [
                        spec(grid, "RM1"),
                        spec(grid, "RM2", start_type=SubjobType.INTERACTIVE),
                        spec(grid, "RM3", start_type=SubjobType.INTERACTIVE),
                    ]
                )
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert outcome.success
        assert outcome.substitutions == 1
        assert outcome.dropped == 0
        assert outcome.result.sizes == (4, 4, 4)

    def test_drops_when_no_spares(self, grid):
        grid.site("RM2").crash()
        agent = InteractiveAgent(grid.duroc(submit_timeout=5.0))

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest(
                    [
                        spec(grid, "RM1"),
                        spec(grid, "RM2", start_type=SubjobType.INTERACTIVE),
                    ]
                )
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert outcome.success
        assert outcome.dropped == 1
        assert outcome.result.sizes == (4,)

    def test_substitution_from_directory(self, grid, directory):
        grid.site("RM3").crash()
        agent = InteractiveAgent(
            grid.duroc(submit_timeout=5.0), directory=directory
        )

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest(
                    [
                        spec(grid, "RM1"),
                        spec(grid, "RM3", start_type=SubjobType.INTERACTIVE),
                    ]
                )
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert outcome.success
        assert outcome.substitutions == 1
        # Replacement came from an unused machine (RM2 or RM4).
        assert outcome.result.sizes == (4, 4)

    def test_substitution_limit(self, grid):
        """A spare that is itself dead consumes a substitution slot."""
        grid.site("RM2").crash()
        grid.site("RM3").crash()
        duroc = grid.duroc(submit_timeout=3.0)
        agent = InteractiveAgent(
            duroc,
            spares=[grid.site("RM3").contact],  # dead spare
            max_substitutions_per_subjob=1,
        )

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest(
                    [
                        spec(grid, "RM1"),
                        spec(grid, "RM2", start_type=SubjobType.INTERACTIVE),
                    ]
                )
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert outcome.success
        assert outcome.substitutions == 1
        assert outcome.dropped == 1
        assert outcome.result.sizes == (4,)

    def test_required_failure_still_fatal(self, grid):
        grid.site("RM1").crash()
        agent = InteractiveAgent(grid.duroc(submit_timeout=3.0))

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest([spec(grid, "RM1")])
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert not outcome.success
        assert "required" in outcome.failure


class TestOverAllocatingAgent:
    def test_commits_first_k(self, grid):
        grid.machine("RM4").overload(50.0)  # slowest of the three workers
        agent = OverAllocatingAgent(grid.duroc(), needed=2)

        def scenario(env):
            outcome = yield from agent.allocate(
                anchors=[spec(grid, "RM1", count=1)],
                workers=[
                    spec(grid, "RM2", start_type=SubjobType.INTERACTIVE),
                    spec(grid, "RM3", start_type=SubjobType.INTERACTIVE),
                    spec(grid, "RM4", start_type=SubjobType.INTERACTIVE),
                ],
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert outcome.success
        assert outcome.dropped == 1  # the slow straggler was terminated
        assert outcome.result.sizes == (1, 4, 4)
        grid.run()
        assert grid.machine("RM4").process_count == 0

    def test_fails_when_too_few_survive(self, grid):
        grid.site("RM2").crash()
        grid.site("RM3").crash()
        agent = OverAllocatingAgent(grid.duroc(submit_timeout=3.0), needed=2)

        def scenario(env):
            outcome = yield from agent.allocate(
                anchors=[spec(grid, "RM1", count=1)],
                workers=[
                    spec(grid, "RM2", start_type=SubjobType.INTERACTIVE),
                    spec(grid, "RM3", start_type=SubjobType.INTERACTIVE),
                ],
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert not outcome.success

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            OverAllocatingAgent(grid.duroc(), needed=0)

        agent = OverAllocatingAgent(grid.duroc(), needed=3)

        def scenario(env):
            with pytest.raises(ValueError):
                yield from agent.allocate(anchors=[], workers=[])
            return True

        assert drive(grid, scenario(grid.env))


class TestOrderedAcquisition:
    def test_required_acquired_before_interactive(self, grid):
        agent = OrderedAcquisitionAgent(grid.duroc())

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest(
                    [
                        spec(grid, "RM1", count=1),
                        spec(grid, "RM2", start_type=SubjobType.INTERACTIVE),
                    ]
                )
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert outcome.success
        assert outcome.result.sizes == (1, 4)
        # The interactive subjob was submitted only after the required
        # one held: its submit span starts after the first check-in.
        spans = sorted(
            grid.tracer.spans_named("duroc.submit"), key=lambda s: s.start
        )
        assert len(spans) == 2
        assert spans[1].start > spans[0].end

    def test_required_failure_costs_nothing_interactive(self, grid):
        grid.site("RM1").crash()
        agent = OrderedAcquisitionAgent(grid.duroc(submit_timeout=3.0))

        def scenario(env):
            outcome = yield from agent.allocate(
                CoAllocationRequest(
                    [
                        spec(grid, "RM1", count=1),
                        spec(grid, "RM2", start_type=SubjobType.INTERACTIVE),
                    ]
                )
            )
            return outcome

        outcome = drive(grid, scenario(grid.env))
        assert not outcome.success
        # RM2 was never touched.
        assert grid.site("RM2").gatekeeper.job_managers == {}


class TestPlanLayout:
    def test_splits_across_best_sites(self, grid, directory):
        request = plan_layout(
            directory, total=100, max_per_site=64, executable=DEFAULT_EXECUTABLE
        )
        assert request.total_processes() == 100
        assert all(s.count <= 64 for s in request)

    def test_insufficient_capacity(self, grid, directory):
        with pytest.raises(ReproError, match="cannot cover"):
            plan_layout(
                directory, total=10_000, max_per_site=64,
                executable=DEFAULT_EXECUTABLE,
            )

    def test_validation(self, grid, directory):
        with pytest.raises(ReproError):
            plan_layout(directory, total=0, max_per_site=4, executable="x")
        with pytest.raises(ReproError):
            plan_layout(directory, total=4, max_per_site=0, executable="x")
