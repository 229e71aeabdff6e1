"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Sequential vs concurrent subjob submission** — the paper's DUROC
   serializes GRAM requests (the Fig. 4 linearity); submitting
   concurrently collapses the curve to near-flat, quantifying what the
   1999 implementation left on the table.
2. **Two-phase-commit barrier vs eager initialization** — the barrier
   lets processes defer irreversible initialization until commit;
   without it, an abort wastes the full initialization of every
   already-started process.
3. **Over-allocation factor** — requesting spare interactive subjobs
   and committing to the first K trades extra submissions for a
   shorter time-to-commit on grids with stragglers.
"""

from repro.core import CoAllocationRequest, SubjobSpec, SubjobType, make_program
from repro.core.applib import barrier as duroc_barrier
from repro.broker import OverAllocatingAgent
from repro.errors import AllocationAborted
from repro.experiments.apps import wasted_node_seconds
from repro.experiments.report import format_table, linear_fit
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.workloads.synthetic import split_processes


def _duroc_time(subjobs: int, sequential: bool) -> float:
    builder = GridBuilder(seed=23)
    for idx in range(1, subjobs + 1):
        builder.add_machine(f"RM{idx}", nodes=64)
    grid = builder.build()
    duroc = grid.duroc(
        heartbeat_interval=0.0, sequential_submission=sequential
    )
    counts = split_processes(64, subjobs)
    request = CoAllocationRequest(
        [
            SubjobSpec(
                contact=grid.site(f"RM{i + 1}").contact,
                count=counts[i],
                executable=DEFAULT_EXECUTABLE,
            )
            for i in range(subjobs)
        ]
    )

    def agent(env):
        job = duroc.submit(request)
        result = yield from job.commit()
        return result

    return grid.run(grid.process(agent(grid.env))).released_at


def test_bench_ablation_concurrent_submission(benchmark, publish):
    subjob_counts = (1, 4, 8, 16, 25)

    def sweep():
        return {
            m: (_duroc_time(m, True), _duroc_time(m, False))
            for m in subjob_counts
        }

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    publish(
        "ablation_concurrent_submission",
        format_table(
            headers=("subjobs", "sequential (s)", "concurrent (s)"),
            rows=[(m, seq, conc) for m, (seq, conc) in times.items()],
            title="Ablation: sequential (paper) vs concurrent submission",
        ),
    )

    seq_slope, _, _ = linear_fit(
        list(times), [seq for seq, _ in times.values()]
    )
    conc_slope, _, _ = linear_fit(
        list(times), [conc for _, conc in times.values()]
    )
    # Sequential is linear (~1.2 s/subjob); concurrent nearly flat.
    assert seq_slope > 1.0
    assert conc_slope < 0.15
    assert times[25][1] < times[25][0] / 5


def test_bench_ablation_barrier_vs_eager_init(benchmark, publish):
    """Quantify what the two-phase commit saves on abort.

    A computation with 60 s of irreversible initialization aborts
    because one machine is down.  With the barrier, processes check in
    after 1 s of reversible checks and are killed cheaply; without it
    ("eager"), every process performs the full 60 s before checking in,
    all of it wasted.
    """
    EXPENSIVE = 60.0
    CHEAP = 1.0

    def eager_program(ctx):
        # No-barrier discipline: initialize fully, then check in.
        port = ctx.port("duroc")
        yield ctx.env.timeout(ctx.machine.startup_delay(CHEAP + EXPENSIVE))
        config = yield from duroc_barrier(ctx, port)
        return config.global_rank()

    def barrier_body(ctx, port, config):
        # Barrier discipline: the expensive part runs post-release.
        yield ctx.env.timeout(EXPENSIVE)
        return config.global_rank()

    def run(program_name, program):
        grid = (
            GridBuilder(seed=31)
            .add_machine("RM1", nodes=32)
            .add_machine("RM2", nodes=32)
            .add_machine("RM3", nodes=32)
            .program(program_name, program)
            .build()
        )
        grid.site("RM3").crash()
        duroc = grid.duroc(
            submit_timeout=5.0,
            default_subjob_timeout=3 * EXPENSIVE,
        )
        request = CoAllocationRequest(
            [
                SubjobSpec(contact=grid.site(f"RM{i}").contact, count=16,
                           executable=program_name)
                for i in (1, 2, 3)
            ]
        )

        def agent(env):
            job = duroc.submit(request)
            try:
                yield from job.commit()
            except AllocationAborted:
                pass

        grid.run(grid.process(agent(grid.env)))
        grid.run()
        return wasted_node_seconds(grid)

    def scenario():
        return (
            run("barriered", make_program(startup=CHEAP, body=barrier_body)),
            run("eager", eager_program),
        )

    barriered_waste, eager_waste = benchmark.pedantic(
        scenario, rounds=1, iterations=1
    )
    publish(
        "ablation_barrier",
        format_table(
            headers=("discipline", "wasted node-seconds on abort"),
            rows=[
                ("two-phase barrier (paper)", barriered_waste),
                ("eager initialization", eager_waste),
            ],
            title="Ablation: what the two-phase commit saves on abort",
        ),
    )
    # Eager initialization wastes roughly EXPENSIVE/CHEAP more work.
    assert eager_waste > 10 * barriered_waste


def test_bench_ablation_overallocation(benchmark, publish):
    """Over-allocating interactive workers cuts time-to-commit when
    some machines are stragglers."""

    def run(extra: int) -> float:
        grid = GridBuilder(seed=37).add_machines(
            "RM", count=1 + 4 + extra, nodes=64
        ).build()
        # Machines beyond the first five are progressively slower.
        for idx, factor in ((3, 12.0), (5, 20.0)):
            grid.machine(f"RM{idx}").overload(factor)
        anchors = [
            SubjobSpec(contact=grid.site("RM1").contact, count=1,
                       executable=DEFAULT_EXECUTABLE)
        ]
        workers = [
            SubjobSpec(
                contact=grid.site(f"RM{i}").contact, count=8,
                executable=DEFAULT_EXECUTABLE,
                start_type=SubjobType.INTERACTIVE,
            )
            for i in range(2, 2 + 4 + extra)
        ]
        agent = OverAllocatingAgent(grid.duroc(), needed=4)

        def scenario(env):
            outcome = yield from agent.allocate(anchors=anchors, workers=workers)
            return outcome

        outcome = grid.run(grid.process(scenario(grid.env)))
        assert outcome.success
        return outcome.elapsed

    def sweep():
        return {extra: run(extra) for extra in (0, 1, 2)}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    publish(
        "ablation_overallocation",
        format_table(
            headers=("spare worker subjobs", "time to release (s)"),
            rows=list(times.items()),
            title="Ablation: over-allocation factor vs time-to-commit",
        ),
    )
    # Each spare lets the agent skip one straggler.
    assert times[2] < times[1] < times[0]
