"""Every id a world hands out is numbered by that world.

Building and running the same small world twice in one process must
name everything alike: message ids, process ids, co-allocation slot
ids, reservation ids, credential serials and MPI executables.  A
module-level counter would hand the second build the numbers after the
first's, so a world's dumps would depend on what ran before it; the
guard below keeps one from coming back.
"""

import ast
from pathlib import Path

from repro.mpi import mpiexec
from repro.simcore.probe import Probe
from repro.workloads.scenarios import FIGURE1

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class Sends(Probe):
    def __init__(self):
        self.msg_ids = []

    def on_send(self, message):
        self.msg_ids.append(message.msg_id)


def world_ids():
    """Run Figure 1, one ``mpiexec`` and two reservations in a fresh
    world; return every id the world handed out."""
    sends = Sends()
    grid = (
        FIGURE1.builder(seed=42)
        .add_machine("RS", nodes=8, scheduler="reservation")
        .with_probe(sends)
        .build()
    )
    job, _ = grid.run(grid.process(FIGURE1.drive(grid)))

    def main(ctx, comm):
        return (yield from comm.allreduce(comm.rank))

    grid.run(grid.process(mpiexec(grid, [(grid.site("RM2").contact, 2)], main)))
    grid.run()
    reservations = grid.site("RS").scheduler
    resv_ids = [
        reservations.reserve(2, start=grid.now + 10.0 * n, duration=5.0).resv_id
        for n in (1, 2)
    ]
    return {
        "msg_ids": sends.msg_ids,
        "pids": {
            name: [manager.job.pids for manager in site.gatekeeper.job_managers.values()]
            for name, site in sorted(grid.sites.items())
        },
        "slot_ids": [slot.slot_id for slot in job.slots],
        "resv_ids": resv_ids,
        "serials": [grid.credential.serial, grid.ca.issue("bob").serial],
        "mpi_apps": sorted(name for name in grid.programs if name.startswith("mpi_app")),
    }


def test_a_world_numbers_its_own_ids():
    first = world_ids()
    assert first["msg_ids"][:3] == [1, 2, 3]
    assert min(min(pids) for jobs in first["pids"].values() for pids in jobs) == 1000
    assert first["slot_ids"] == [1, 2, 3]
    assert first["resv_ids"] == ["resv-1", "resv-2"]
    assert first["serials"] == [1, 2]
    assert first["mpi_apps"] == ["mpi_app1"]
    assert world_ids() == first


def _module_level_statements(body):
    """Statements that run at import: the body, minus function and
    class bodies."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_level_statements(getattr(node, field, []))


def _is_itertools_count(call, count_names):
    func = call.func
    if isinstance(func, ast.Attribute):
        return (
            func.attr == "count"
            and isinstance(func.value, ast.Name)
            and func.value.id == "itertools"
        )
    return isinstance(func, ast.Name) and func.id in count_names


def test_no_module_level_counter():
    """A module-level ``itertools.count(...)`` numbers per process."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        count_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for alias in node.names
            if alias.name == "count"
        }
        for node in _module_level_statements(tree.body):
            if (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(node.value, ast.Call)
                and _is_itertools_count(node.value, count_names)
            ):
                found.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert found == []
