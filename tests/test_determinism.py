"""Determinism: identical seeds produce identical simulations.

Reproducibility is a core requirement of the benchmark harness — every
figure regenerated from the same seed must be bit-identical.
"""

from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder


def run_coallocation(seed, jitter=0.0):
    grid = (
        GridBuilder(seed=seed, latency_jitter_cv=jitter)
        .add_machine("RM1", nodes=32)
        .add_machine("RM2", nodes=32)
        .add_machine("RM3", nodes=32)
        .build()
    )
    duroc = grid.duroc(heartbeat_interval=0.0)
    request = CoAllocationRequest(
        [
            SubjobSpec(
                contact=grid.site(f"RM{i}").contact,
                count=4,
                executable=DEFAULT_EXECUTABLE,
                start_type=SubjobType.INTERACTIVE if i > 1 else SubjobType.REQUIRED,
            )
            for i in (1, 2, 3)
        ]
    )

    def agent(env):
        job = duroc.submit(request)
        result = yield from job.commit()
        return result

    result = grid.run(grid.process(agent(grid.env)))
    return result, grid.tracer.fingerprint()


class TestDeterminism:
    def test_same_seed_same_trace(self):
        (r1, f1) = run_coallocation(seed=123)
        (r2, f2) = run_coallocation(seed=123)
        assert r1.released_at == r2.released_at
        assert r1.sizes == r2.sizes
        assert f1 == f2

    def test_same_seed_same_trace_with_jitter(self):
        """Stochastic latency still replays identically under one seed."""
        (r1, f1) = run_coallocation(seed=7, jitter=0.3)
        (r2, f2) = run_coallocation(seed=7, jitter=0.3)
        assert r1.released_at == r2.released_at
        assert f1 == f2

    def test_different_seed_different_jittered_trace(self):
        (r1, _) = run_coallocation(seed=1, jitter=0.3)
        (r2, _) = run_coallocation(seed=2, jitter=0.3)
        assert r1.released_at != r2.released_at

    def test_scenario_fault_draws_deterministic(self):
        from repro.machine import FailureModel
        from repro.workloads import sf_express

        scenario = sf_express(FailureModel(p_unavailable=0.25))
        faults = []
        for _ in range(2):
            grid = scenario.builder(seed=11).build()
            scenario.drive(grid)  # draws the faults, before the clock starts
            faults.append([site.machine.crashed for site in grid.sites.values()])
        assert faults[0] == faults[1]

    def test_experiment_harness_deterministic(self):
        from repro.experiments.fig4 import measure_duroc

        a = measure_duroc(subjobs=4, total_processes=16, seed=3)
        b = measure_duroc(subjobs=4, total_processes=16, seed=3)
        assert a == b
