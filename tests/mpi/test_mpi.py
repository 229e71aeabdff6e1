"""Integration tests for the mini-MPI layer over DUROC."""

from pathlib import Path

import pytest

from repro.core import SubjobType
from repro.errors import AllocationAborted
from repro.experiments.mpi_startup import render, run_mpi_startup
from repro.gridenv import GridBuilder
from repro.mpi import mpiexec

RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.fixture
def grid():
    return (
        GridBuilder(seed=3)
        .add_machine("RM1", nodes=32)
        .add_machine("RM2", nodes=32)
        .add_machine("RM3", nodes=32)
        .build()
    )


def launch(grid, layout, main, **kwargs):
    def agent(env):
        run = yield from mpiexec(grid, layout, main, **kwargs)
        return run

    run = grid.run(grid.process(agent(grid.env)))
    grid.run()  # drain the application itself
    return run


class TestBootstrap:
    def test_ranks_and_sizes(self, grid):
        seen = []

        def main(ctx, comm):
            seen.append((comm.rank, comm.size, comm.config.my_subjob))
            return comm.rank
            yield  # pragma: no cover

        layout = [(grid.contacts()[0], 2), (grid.contacts()[1], 3)]
        run = launch(grid, layout, main)
        assert run.world_size == 5
        assert run.sizes == (2, 3)
        assert sorted(r for r, _, _ in seen) == [0, 1, 2, 3, 4]
        # Subjob-major rank order: ranks 0-1 on subjob 0, 2-4 on subjob 1.
        for rank, size, subjob in seen:
            assert size == 5
            assert subjob == (0 if rank < 2 else 1)


class TestCollectives:
    def test_bcast(self, grid):
        values = {}

        def main(ctx, comm):
            value = yield from comm.bcast("payload" if comm.rank == 0 else None)
            values[comm.rank] = value

        launch(grid, [(grid.contacts()[0], 3)], main)
        assert values == {0: "payload", 1: "payload", 2: "payload"}

    def test_gather_rank_order(self, grid):
        result = {}

        def main(ctx, comm):
            gathered = yield from comm.gather(comm.rank * 10)
            if comm.rank == 0:
                result["gathered"] = gathered

        launch(grid, [(grid.contacts()[0], 2), (grid.contacts()[1], 2)], main)
        assert result["gathered"] == [0, 10, 20, 30]

    def test_allreduce_sum(self, grid):
        sums = set()

        def main(ctx, comm):
            total = yield from comm.allreduce(comm.rank + 1)
            sums.add(total)

        launch(grid, [(grid.contacts()[0], 2), (grid.contacts()[1], 2)], main)
        assert sums == {10}  # 1+2+3+4

    def test_consecutive_collectives_do_not_crosstalk(self, grid):
        outcome = {}

        def main(ctx, comm):
            a = yield from comm.allreduce(1)
            b = yield from comm.allreduce(comm.rank)
            g = yield from comm.gather(comm.rank * 2)
            c = yield from comm.bcast(comm.rank if comm.rank == 0 else None)
            r = yield from comm.reduce(comm.rank, op=max)
            if comm.rank == 0:
                outcome.update(a=a, b=b, g=g, c=c, r=r)

        launch(grid, [(grid.contacts()[0], 4)], main)
        assert outcome == {"a": 4, "b": 6, "g": [0, 2, 4, 6], "c": 0, "r": 3}

class TestFailureHandling:
    def test_required_site_failure_aborts_mpi_job(self, grid):
        grid.site("RM2").crash()

        def main(ctx, comm):
            return comm.rank
            yield  # pragma: no cover

        def agent(env):
            duroc = grid.duroc(submit_timeout=5.0)
            with pytest.raises(AllocationAborted):
                yield from mpiexec(
                    grid,
                    [(grid.contacts()[0], 2), (grid.contacts()[1], 2)],
                    main,
                    duroc=duroc,
                )
            return True

        assert grid.run(grid.process(agent(grid.env)))

    def test_interactive_subjobs_reconfigure_around_failure(self, grid):
        """The paper's 'hero run' behaviour: startup reconfigures around
        a dead machine when subjobs are interactive."""
        grid.site("RM3").crash()
        sizes = {}

        def main(ctx, comm):
            sizes[comm.rank] = comm.size
            return None
            yield  # pragma: no cover

        def agent(env):
            duroc = grid.duroc(submit_timeout=5.0)
            run = yield from mpiexec(
                grid,
                [(c, 2) for c in grid.contacts()],
                main,
                duroc=duroc,
                subjob_type=SubjobType.INTERACTIVE,
            )
            return run

        run = grid.run(grid.process(agent(grid.env)))
        grid.run()
        assert run.world_size == 4  # RM3's pair dropped
        assert set(sizes.values()) == {4}


class TestStartupTable:
    """The launches ``results/app_mpi_startup.txt`` reports."""

    @pytest.fixture(scope="class")
    def launches(self):
        return run_mpi_startup()

    def test_launches_make_the_committed_table(self, launches):
        assert render(launches) + "\n" == (RESULTS / "app_mpi_startup.txt").read_text()

    def test_every_rank_of_each_world_reports(self, launches):
        (_, ranks_h), (_, ranks_d) = launches
        assert sorted(r for r, _ in ranks_h) == list(range(32))
        # Reconfigured around the dead machine: three machines' ranks.
        assert sorted(r for r, _ in ranks_d) == list(range(24))
