"""Unit tests for workload generators and scenarios."""

import pytest

from repro.core import SubjobType
from repro.errors import ReproError
from repro.experiments.apps import sweep_failure_rate
from repro.machine import FailureModel
from repro.simcore.metrics import NULL_METRICS, MetricsRegistry
from repro.simcore.tracing import NULL_TRACER, Tracer
from repro.workloads.scenarios import FIGURE1, run
from repro.workloads import (
    LoadSpec,
    SF_EXPRESS_COUNTS,
    SF_EXPRESS_SIZES,
    BackgroundLoad,
    microtomography,
    motivating_scenario,
    sf_express,
    split_processes,
)


class TestSplitProcesses:
    def test_even_split(self):
        assert split_processes(64, 4) == [16, 16, 16, 16]

    def test_uneven_split(self):
        parts = split_processes(64, 5)
        assert sum(parts) == 64
        assert max(parts) - min(parts) <= 1

    def test_each_subjob_gets_at_least_one(self):
        assert min(split_processes(25, 25)) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_processes(3, 5)
        with pytest.raises(ValueError):
            split_processes(3, 0)


@pytest.fixture(scope="module")
def sf_express_run():
    """One fault-free SF-Express run; no spec is substituted, so the
    request's slots carry the specs as requested."""
    return run(sf_express(), 0)


def faulted(scenario, seed):
    """Which machines are down before the clock starts (the failure
    model is drawn as the run is set up)."""
    grid = scenario.builder(seed=seed).build()
    scenario.drive(grid)
    return {name: site.machine.crashed for name, site in grid.sites.items()}


class TestScenarios:
    def test_sf_express_shape(self, sf_express_run):
        grid, outcome = sf_express_run
        specs = [slot.spec for slot in outcome.result.job.slots]
        assert len(SF_EXPRESS_SIZES) == 13
        assert sum(SF_EXPRESS_COUNTS) == 1386
        assert len(specs) == 13
        assert outcome.started_processes == 1386
        # 13 request machines + 3 spares.
        assert len(grid.sites) == 16
        # Every subjob fits on its machine.
        for spec in specs:
            name = spec.contact.split(":")[0]
            assert spec.count <= grid.site(name).nodes

    def test_sf_express_anchor_is_required(self, sf_express_run):
        _, outcome = sf_express_run
        specs = [slot.spec for slot in outcome.result.job.slots]
        assert specs[0].start_type is SubjobType.REQUIRED
        assert all(s.start_type is SubjobType.INTERACTIVE for s in specs[1:])

    def test_sf_express_fault_injection_is_seeded(self):
        scenario = sf_express(failure_model=FailureModel(p_unavailable=0.3))
        a, b = faulted(scenario, 7), faulted(scenario, 7)
        assert a == b
        assert any(a.values())

    def test_sf_express_spares_never_fault(self):
        down = faulted(sf_express(failure_model=FailureModel(p_unavailable=1.0)), 0)
        assert not down["RM1"]  # the anchor
        assert all(down[f"RM{idx}"] for idx in range(2, 14))
        assert not any(down[f"spare{idx}"] for idx in (1, 2, 3))

    def test_motivating_scenario_faults(self):
        grid, outcome = run(motivating_scenario(), 0)
        assert grid.machine("sim2").crashed
        assert grid.machine("sim5").load_factor > 1
        # 400 requested; the crashed machine's subjob moved to the spare.
        requested, substitute = outcome.result.job.slots[:5], outcome.result.job.slots[5:]
        assert sum(slot.spec.count for slot in requested) == 400
        assert [slot.spec.contact for slot in substitute] == ["sim6:gatekeeper"]

    def test_microtomography_structure(self):
        _, (job, _) = run(microtomography(), 0)
        types = [slot.spec.start_type for slot in job.slots]
        assert types[0] is SubjobType.REQUIRED
        assert types[1:6] == [SubjobType.INTERACTIVE] * 5
        assert types[6:] == [SubjobType.OPTIONAL] * 2

    def test_unknown_strategy_and_observer_are_refused(self):
        with pytest.raises(ValueError, match="strategy"):
            sf_express(strategy="optimistic")
        with pytest.raises(ReproError, match="observer"):
            run(FIGURE1, 0, observe={"tracer"})

    def test_a_bare_string_is_refused_not_split_into_letters(self):
        with pytest.raises(ReproError) as refused:
            run(FIGURE1, 0, "monitors")
        message = str(refused.value)
        assert "OBSERVERS" in message and "'monitors'" in message
        assert "unknown" not in message


@pytest.fixture
def constructed(monkeypatch):
    """Names every :class:`Tracer` and :class:`MetricsRegistry` built."""
    built = []
    for cls in (Tracer, MetricsRegistry):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


class TestBareRunRecordsNothing:
    def test_a_bare_run_gets_the_null_tracer(self):
        grid, _ = run(FIGURE1, 0)
        assert grid.tracer is NULL_TRACER
        assert grid.tracer.metrics is NULL_METRICS

    def test_trace_records_spans_and_metrics(self, constructed):
        grid, _ = run(FIGURE1, 0, {"trace"})
        assert constructed == ["Tracer", "MetricsRegistry"]
        assert grid.tracer.spans and grid.tracer.marks
        assert grid.tracer.metrics.snapshot()["metrics"]

    def test_a_sweep_cell_builds_no_tracer_and_no_registry(self, constructed):
        (row,) = sweep_failure_rate(
            probabilities=(0.3,), strategies=("atomic",), seeds=(0,)
        )
        assert row.attempts >= 1
        assert constructed == []


class TestBackgroundLoad:
    def test_load_spec_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(interarrival=0, mean_nodes=4, mean_runtime=10)

    def test_generates_and_completes_jobs(self):
        from repro.gridenv import GridBuilder

        grid = (
            GridBuilder(seed=2)
            .add_machine("m", nodes=32, scheduler="fcfs")
            .build()
        )
        load = BackgroundLoad(
            grid.site("m"),
            LoadSpec(interarrival=5.0, mean_nodes=4, mean_runtime=10.0),
            grid.rngs.stream("bg"),
            horizon=200.0,
        )
        grid.run(until=500.0)
        assert load.submitted > 10
        assert load.completed > 0
        # Conservation held throughout (free nodes non-negative).
        assert 0 <= grid.site("m").scheduler.free <= 32

    def test_determinism(self):
        from repro.gridenv import GridBuilder

        counts = []
        for _ in range(2):
            grid = (
                GridBuilder(seed=9)
                .add_machine("m", nodes=32, scheduler="fcfs")
                .build()
            )
            load = BackgroundLoad(
                grid.site("m"),
                LoadSpec(interarrival=5.0, mean_nodes=4, mean_runtime=10.0),
                grid.rngs.stream("bg"),
                horizon=100.0,
            )
            grid.run(until=300.0)
            counts.append((load.submitted, load.completed))
        assert counts[0] == counts[1]
