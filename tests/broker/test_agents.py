"""Integration tests for co-allocation agents (strategies)."""

import pytest

from repro.broker import (
    AtomicAgent,
    CoReservationAgent,
    InteractiveAgent,
    OverAllocatingAgent,
)
from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.errors import ReservationError
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.mds import Directory
from tests.metric_reads import value


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
        assert value(
            metrics, "resilience.retries_total", operation="grab.allocate"
        ) == resubmissions
        assert value(
            metrics, "resilience.exhausted_total", operation="grab.allocate"
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

    def test_validation(self, grid):
        with pytest.raises(ValueError, match="max_substitutions_per_subjob"):
            InteractiveAgent(grid.duroc(), max_substitutions_per_subjob=-1)
        # Zero is a budget too: drop every failed interactive subjob.
        agent = InteractiveAgent(grid.duroc(), max_substitutions_per_subjob=0)
        assert agent.max_substitutions_per_subjob == 0


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

    def test_coerced_worker_keeps_every_field(self, grid):
        """Making a worker INTERACTIVE must not drop any other field."""
        agent = OverAllocatingAgent(grid.duroc(), needed=2)
        workers = [
            SubjobSpec(
                contact=grid.site(name).contact,
                count=4,
                executable=DEFAULT_EXECUTABLE,
                min_memory=256,
                reservation_id="r-1",
            )
            for name in ("RM2", "RM3", "RM4")
        ]

        outcome = drive(
            grid, agent.allocate(anchors=[spec(grid, "RM1", count=1)], workers=workers)
        )
        assert outcome.success
        worker_specs = [slot.spec for slot in outcome.result.job.slots[1:]]
        assert len(worker_specs) == 3
        for worker, original in zip(worker_specs, workers):
            assert worker.start_type is SubjobType.INTERACTIVE
            assert worker.min_memory == 256
            assert worker.reservation_id == "r-1"
            assert worker.contact == original.contact


class TestCoReservationAgent:
    @pytest.fixture
    def resv_grid(self):
        return (
            GridBuilder(seed=11)
            .add_machine("east", nodes=64, scheduler="reservation")
            .add_machine("west", nodes=64, scheduler="reservation")
            .build()
        )

    def test_site_without_reservations_refused(self, grid):
        agent = CoReservationAgent(grid.duroc())

        def scenario(env):
            with pytest.raises(ReservationError, match="cannot grant"):
                yield from agent.allocate(
                    [(grid.site("RM1"), 4)], duration=10.0,
                    executable=DEFAULT_EXECUTABLE,
                )
            return True

        assert drive(grid, scenario(grid.env))

    def test_refusal_at_second_site_cancels_the_first(self, resv_grid):
        east, west = resv_grid.site("east"), resv_grid.site("west")
        # West is fully booked for the whole horizon, so the agent's
        # second reservation is refused after the first was granted.
        held = west.scheduler.reserve(64, 0.0, 10_000.0)
        agent = CoReservationAgent(resv_grid.duroc())

        outcome = drive(
            resv_grid,
            agent.allocate(
                [(east, 32), (west, 32)], duration=60.0,
                executable=DEFAULT_EXECUTABLE,
            ),
        )
        assert not outcome.success
        assert outcome.failure.startswith("co-reservation failed")
        assert east.scheduler.reservations() == []
        assert west.scheduler.reservations() == [held]

    def test_abort_after_reserving_cancels_every_reservation(self, resv_grid):
        east, west = resv_grid.site("east"), resv_grid.site("west")
        west.crash()  # the reservation is granted; the submission is lost
        agent = CoReservationAgent(resv_grid.duroc(submit_timeout=3.0))

        outcome = drive(
            resv_grid,
            agent.allocate(
                [(east, 32), (west, 32)], duration=60.0,
                executable=DEFAULT_EXECUTABLE,
            ),
        )
        assert not outcome.success
        assert outcome.log[0].startswith("reserved common window")
        assert east.scheduler.reservations() == []
        assert west.scheduler.reservations() == []
