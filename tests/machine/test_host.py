"""Unit tests for the machine/process model."""

import gc

import pytest

from repro.errors import SimulationError
from repro.faults import HostCrash, Overload, schedule
from repro.machine import Machine
from repro.net import Network
from repro.simcore import Environment, Interrupt, Process


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return Network(env)


@pytest.fixture
def machine(env, net):
    return Machine(env, net, "node-a", nodes=8)


class TestMachine:
    def test_registration(self, machine, net):
        assert net.has_host("node-a")
        assert machine.nodes == 8

    def test_zero_nodes_rejected(self, env, net):
        with pytest.raises(SimulationError):
            Machine(env, net, "bad", nodes=0)

    def test_spawn_runs_program(self, env, machine):
        seen = []

        def program(ctx):
            yield ctx.env.timeout(1.0)
            seen.append((ctx.rank, ctx.count, ctx.executable, ctx.env.now))

        machine.spawn(program, executable="app", rank=2, count=4)
        env.run()
        assert seen == [(2, 4, "app", 1.0)]

    def test_process_table_reaped_on_exit(self, env, machine):
        def program(ctx):
            yield ctx.env.timeout(1.0)

        machine.spawn(program, executable="app", rank=0, count=1)
        assert machine.process_count == 1
        env.run()
        assert machine.process_count == 0

    def test_params_act_as_environment_variables(self, env, machine):
        seen = {}

        def program(ctx):
            seen.update(ctx.params)
            return
            yield  # pragma: no cover

        machine.spawn(
            program, executable="app", rank=0, count=1,
            params={"DUROC_CONTACT": "client:duroc"},
        )
        env.run()
        assert seen == {"DUROC_CONTACT": "client:duroc"}

    def test_kill_interrupts_process(self, env, machine):
        outcome = []

        def program(ctx):
            try:
                yield ctx.env.timeout(100)
            except Interrupt as intr:
                outcome.append(intr.cause)

        context = machine.spawn(program, executable="app", rank=0, count=1)

        def killer(env):
            yield env.timeout(1)
            machine.kill(context.pid)

        env.process(killer(env))
        env.run()
        assert outcome == ["killed"]
        assert machine.process_count == 0

    def test_killed_process_is_freed_without_the_collector(self, env, machine):
        """A kill ends a process with an ``Interrupt`` whose traceback
        holds the frame that delivered it, and that frame the process: a
        cycle per killed process (an abort kills thousands) that waited
        for a full collection.  Reaping drops the traceback."""

        def program(ctx):
            yield ctx.env.timeout(100)  # lets the Interrupt propagate

        def live_processes():
            return sum(1 for obj in gc.get_objects() if type(obj) is Process)

        gc.collect()
        gc.disable()
        try:
            before = live_processes()
            context = machine.spawn(program, executable="app", rank=0, count=1)
            process = context.process
            env.run(until=1)
            machine.kill(context.pid)
            env.run()
            assert not process.ok and isinstance(process.value, Interrupt)
            assert process.value.cause == "killed"
            assert process.value.__traceback__ is None
            del context, process
            assert live_processes() == before
        finally:
            gc.enable()

    def test_kill_unknown_pid_returns_false(self, machine):
        assert machine.kill(99999) is False

    def test_crash_kills_everything_and_downs_host(self, env, machine, net):
        survivors = []

        def program(ctx):
            yield ctx.env.timeout(100)
            survivors.append(ctx.rank)

        for rank in range(3):
            machine.spawn(program, executable="app", rank=rank, count=3)

        def crasher(env):
            yield env.timeout(1)
            machine.crash()

        env.process(crasher(env))
        # The interrupts kill the programs; uncaught Interrupt is the
        # process outcome, but crash() is fire-and-forget, so run() must
        # not raise.
        env.run()
        assert survivors == []
        assert machine.process_count == 0
        assert not net.host_up("node-a")

    def test_spawn_on_crashed_machine_raises(self, env, machine):
        machine.crash()
        with pytest.raises(SimulationError):
            machine.spawn(lambda ctx: iter(()), executable="x", rank=0, count=1)

    def test_restore(self, env, machine, net):
        machine.crash()
        machine.restore()
        assert net.host_up("node-a")
        assert not machine.crashed

    def test_startup_delay_scales_with_load(self, machine):
        assert machine.startup_delay(2.0) == 2.0
        machine.overload(5.0)
        assert machine.startup_delay(2.0) == 10.0

    def test_speed_divides_startup(self, env, net):
        fast = Machine(env, net, "fast", nodes=4, speed=2.0)
        assert fast.startup_delay(2.0) == 1.0

    def test_bad_load_factor_rejected(self, machine):
        with pytest.raises(SimulationError):
            machine.overload(0.0)

    def test_nan_load_factor_rejected(self, machine):
        with pytest.raises(SimulationError):
            machine.overload(float("nan"))
        assert machine.load_factor == 1.0

    @pytest.mark.parametrize(
        "nodes", [2.7, float("nan"), float("inf"), "8"], ids=repr
    )
    def test_fractional_or_non_numeric_nodes_rejected(self, env, net, nodes):
        with pytest.raises(SimulationError, match="node count"):
            Machine(env, net, "bad", nodes=nodes)

    def test_whole_float_node_count_accepted(self, env, net):
        assert Machine(env, net, "whole", nodes=4.0).nodes == 4

    @pytest.mark.parametrize(
        "speed", [0.0, -1.0, float("nan"), float("inf")], ids=repr
    )
    def test_bad_speed_rejected(self, env, net, speed):
        """``speed`` divides every startup delay: zero was a
        ZeroDivisionError mid-run, negative or NaN a negative or NaN
        delay."""
        with pytest.raises(SimulationError, match="speed"):
            Machine(env, net, "bad", nodes=4, speed=speed)

    def test_context_port_binds_on_machine(self, env, machine):
        ports = []

        def program(ctx):
            ports.append(ctx.port("checkin"))
            return
            yield  # pragma: no cover

        machine.spawn(program, executable="app", rank=0, count=1)
        env.run()
        assert ports[0].endpoint.host == "node-a"


class TestScheduledFaults:
    """The declarative facade drives machine faults directly."""

    def test_scheduled_crash(self, env, machine):
        schedule(env, machine, [HostCrash("node-a", at=5.0)])
        env.run(until=4.0)
        assert not machine.crashed
        env.run(until=6.0)
        assert machine.crashed

    def test_crash_with_recovery(self, env, machine):
        schedule(env, machine, [HostCrash("node-a", at=2.0, duration=3.0)])
        env.run(until=3.0)
        assert machine.crashed
        env.run(until=6.0)
        assert not machine.crashed

    def test_overload_window(self, env, machine):
        schedule(
            env, machine, [Overload("node-a", factor=10.0, at=1.0, duration=2.0)]
        )
        env.run(until=2.0)
        assert machine.load_factor == 10.0
        env.run(until=4.0)
        assert machine.load_factor == 1.0
