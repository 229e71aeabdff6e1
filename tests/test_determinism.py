"""Determinism: identical seeds produce identical simulations.

Reproducibility is a core requirement of the benchmark harness — every
figure regenerated from the same seed must be bit-identical.
"""

from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder


def run_coallocation(seed):
    grid = (
        GridBuilder(seed=seed)
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


def fault_draws(seed, p_unavailable=0.3):
    """Which sites an ``sf_express`` scenario crashes at ``seed``."""
    from repro.machine import FailureModel
    from repro.workloads import sf_express

    scenario = sf_express(FailureModel(p_unavailable=p_unavailable))
    grid = scenario.builder(seed=seed).build()
    scenario.drive(grid)  # draws the faults, before the clock starts
    return [site.machine.crashed for site in grid.sites.values()]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        (r1, f1) = run_coallocation(seed=123)
        (r2, f2) = run_coallocation(seed=123)
        assert r1.released_at == r2.released_at
        assert r1.sizes == r2.sizes
        assert f1 == f2

    def test_scenario_fault_draws_deterministic(self):
        assert fault_draws(seed=11, p_unavailable=0.25) == fault_draws(
            seed=11, p_unavailable=0.25
        )

    def test_different_seed_different_fault_draws(self):
        """The seed reaches the draws the §4.3 table makes."""
        assert fault_draws(seed=1) != fault_draws(seed=2)

    def test_experiment_harness_deterministic(self):
        from repro.experiments.fig4 import measure_duroc

        a = measure_duroc(subjobs=4, total_processes=16, seed=3)
        b = measure_duroc(subjobs=4, total_processes=16, seed=3)
        assert a == b
