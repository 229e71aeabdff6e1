"""Edge-case tests for the mini-MPI layer."""

import pytest

from repro.errors import MPIError
from repro.gridenv import GridBuilder
from repro.mpi import mpiexec


@pytest.fixture
def grid():
    return GridBuilder(seed=53).add_machine("RM1", nodes=16).build()


def launch(grid, main, count=2):
    def agent(env):
        run = yield from mpiexec(
            grid, [(grid.site("RM1").contact, count)], main
        )
        return run

    run = grid.run(grid.process(agent(grid.env)))
    grid.run()
    return run


class TestValidation:
    def test_bcast_bad_root(self, grid):
        errors = []

        def main(ctx, comm):
            try:
                yield from comm.bcast("x", root=7)
            except MPIError as exc:
                if comm.rank == 0:
                    errors.append(str(exc))

        launch(grid, main)
        assert errors

    def test_reduce_with_custom_op(self, grid):
        outcome = {}

        def main(ctx, comm):
            value = yield from comm.reduce(comm.rank + 1, op=max)
            if comm.rank == 0:
                outcome["max"] = value

        launch(grid, main, count=4)
        assert outcome["max"] == 4

    def test_single_rank_world(self, grid):
        outcome = {}

        def main(ctx, comm):
            value = yield from comm.bcast("alone")
            total = yield from comm.allreduce(5)
            gathered = yield from comm.gather("only")
            outcome.update(value=value, total=total, gathered=gathered, size=comm.size)

        launch(grid, main, count=1)
        assert outcome == {"value": "alone", "total": 5, "gathered": ["only"], "size": 1}

    def test_repr(self, grid):
        reprs = []

        def main(ctx, comm):
            reprs.append(repr(comm))
            return None
            yield  # pragma: no cover

        launch(grid, main)
        assert any("rank=0/2" in r for r in reprs)
