"""Unit tests for workload generators and scenarios."""

import pytest

from repro.core import SubjobType
from repro.machine import FailureModel
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


class TestScenarios:
    def test_sf_express_shape(self):
        scenario = sf_express()
        grid = scenario.grid
        assert len(SF_EXPRESS_SIZES) == 13
        assert sum(SF_EXPRESS_COUNTS) == 1386
        assert len(scenario.request) == 13
        assert scenario.request.total_processes() == 1386
        # 13 request machines + 3 spares.
        assert len(grid.sites) == 16
        # Every subjob fits on its machine.
        for spec in scenario.request:
            name = spec.contact.split(":")[0]
            assert spec.count <= grid.site(name).nodes

    def test_sf_express_anchor_is_required(self):
        scenario = sf_express()
        assert scenario.request[0].start_type is SubjobType.REQUIRED
        assert all(
            s.start_type is SubjobType.INTERACTIVE
            for s in list(scenario.request)[1:]
        )

    def test_sf_express_fault_injection_is_seeded(self):
        a = sf_express(failure_model=FailureModel(p_unavailable=0.3), seed=7)
        b = sf_express(failure_model=FailureModel(p_unavailable=0.3), seed=7)
        assert a.faults == b.faults
        assert any(kind == "crashed" for kind in a.faults.values())

    def test_sf_express_spares_never_fault(self):
        scenario = sf_express(
            failure_model=FailureModel(p_unavailable=1.0), seed=0
        )
        assert all(not name.startswith("spare") for name in scenario.faults)
        assert not scenario.grid.machine("spare1").crashed

    def test_motivating_scenario_faults(self):
        scenario = motivating_scenario()
        assert scenario.grid.machine("sim2").crashed
        assert scenario.grid.machine("sim5").load_factor > 1
        assert scenario.request.total_processes() == 400

    def test_microtomography_structure(self):
        scenario = microtomography()
        types = [s.start_type for s in scenario.request]
        assert types[0] is SubjobType.REQUIRED
        assert types[1:6] == [SubjobType.INTERACTIVE] * 5
        assert types[6:] == [SubjobType.OPTIONAL] * 2


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
