"""The unified fault facade and its deprecated per-layer shims."""

import numpy as np
import pytest

from repro.errors import FaultSpecError
from repro.faults import (
    HostCrash,
    MessageLoss,
    Overload,
    Partition,
    SlowLink,
    schedule,
)
from repro.gridenv import GridBuilder


def build_grid(*specs, seed=7):
    builder = GridBuilder(seed=seed)
    builder.add_machine("RM1", nodes=8)
    builder.add_machine("RM2", nodes=8)
    return builder.with_faults(*specs).build()


class TestSpecs:
    def test_describe_is_json_able_and_deterministic(self):
        import json

        specs = [
            HostCrash("RM1", at=10.0, duration=5.0),
            Overload("RM2", factor=20.0),
            Partition((("RM1",), ("RM2",)), at=1.0, duration=2.0),
            MessageLoss(0.1, kinds=["gram.submit"]),
            SlowLink("RM1", "RM2", latency=0.2),
        ]
        dumped = json.dumps([s.describe() for s in specs], sort_keys=True)
        assert json.dumps([s.describe() for s in specs], sort_keys=True) == dumped
        names = [s.describe()["fault"] for s in specs]
        assert names == [
            "HostCrash", "Overload", "Partition", "MessageLoss", "SlowLink",
        ]

    def test_specs_are_hashable_and_comparable(self):
        assert HostCrash("RM1", at=1.0) == HostCrash("RM1", at=1.0)
        assert len({MessageLoss(0.1), MessageLoss(0.1), MessageLoss(0.2)}) == 2

    @pytest.mark.parametrize(
        "spec,match",
        [
            (HostCrash("RM9"), "unknown host"),
            (Overload("RM9"), "not a machine"),
            (Overload("RM1", factor=0.0), "factor"),
            (Partition((), at=0.0), "at least one group"),
            (Partition((("RM9",),)), "unknown host"),
            (MessageLoss(1.5), "probability"),
            (SlowLink("RM1", "RM2", latency=-1.0), "latency"),
            (HostCrash("RM1", at=-1.0), "at must be"),
            # NaN fails every comparison, so each check is written to
            # refuse it rather than let the fault's window meet it.
            (HostCrash("RM1", at=float("nan")), "at must be"),
            (Overload("RM1", factor=float("nan")), "factor"),
            (SlowLink("RM1", "RM2", latency=float("nan")), "latency"),
            (HostCrash("RM1", duration=float("nan")), "duration"),
            (Partition((("RM1",), ("RM2",)), duration=-1.0), "duration"),
        ],
    )
    def test_validation_is_atomic(self, spec, match):
        """A bad spec refuses the whole schedule before anything installs."""
        grid = build_grid()
        with pytest.raises(FaultSpecError, match=match):
            schedule(grid.env, grid, [HostCrash("RM1", at=5.0), spec])
        assert not grid.machine("RM1").crashed
        grid.run(until=10.0)
        assert not grid.machine("RM1").crashed

    def test_message_loss_needs_a_seeded_rng(self):
        grid = build_grid()
        with pytest.raises(FaultSpecError, match="seeded rng"):
            schedule(grid.env, grid.network, [MessageLoss(0.5)])
        # Explicit rng satisfies it even against a bare network.
        schedule(
            grid.env, grid.network, [MessageLoss(0.5)],
            rng=np.random.default_rng(0),
        )


class TestInstallation:
    def test_host_crash_window(self):
        grid = build_grid(HostCrash("RM1", at=5.0, duration=10.0))
        machine = grid.machine("RM1")
        grid.run(until=4.0)
        assert not machine.crashed
        grid.run(until=6.0)
        assert machine.crashed
        grid.run(until=16.0)
        assert not machine.crashed

    def test_overload_window_restores_previous_load(self):
        grid = build_grid(Overload("RM2", factor=20.0, at=1.0, duration=4.0))
        machine = grid.machine("RM2")
        baseline = machine.load_factor
        grid.run(until=2.0)
        assert machine.load_factor == 20.0
        grid.run(until=6.0)
        assert machine.load_factor == baseline

    def test_schedule_rejects_unknown_target(self):
        grid = build_grid()
        with pytest.raises(FaultSpecError, match="cannot inject"):
            schedule(grid.env, object(), [HostCrash("RM1")])


class TestShimRetirement:
    """The pre-facade helpers completed their deprecation cycle."""

    def test_machine_shims_are_gone(self):
        import repro.machine
        import repro.machine.faults

        assert not hasattr(repro.machine, "crash_at")
        assert not hasattr(repro.machine.faults, "crash_at")
        assert not hasattr(repro.machine.faults, "overload_during")

    def test_net_fault_module_is_gone(self):
        import repro.net

        assert not hasattr(repro.net, "FaultPlan")
        assert not hasattr(repro.net, "random_loss")
        with pytest.raises(ModuleNotFoundError):
            import repro.net.faults  # noqa: F401

    def test_facade_covers_the_old_crash_helper(self):
        grid = build_grid()
        machine = grid.machine("RM1")
        schedule(grid.env, machine, [HostCrash("RM1", at=3.0)])
        grid.run(until=4.0)
        assert machine.crashed
