"""The five workloads: seeded inputs, the program under test, output checks.

Every workload is four functions the harness calls in order —
``generate(seed, load)`` makes plain-data inputs from the seed alone,
``build(inputs)`` constructs the world (grid, parsed requests),
``run(world)`` drives the simulation to quiescence and ``check(inputs,
outcome)`` counts the ops whose output is wrong.  They reach the
program only through its public API (``GridBuilder``, ``Grid.duroc`` /
``gram_client``, ``repro.experiments.apps``, ``Environment``,
``Network``, ``Port``, ``repro.net.rpc``); nothing here reads a clock
(``verify.evaluate_s`` goes through :mod:`benchmarks.wall.clock`).

Loads are constants: both commits of a comparison run the same thing.
A workload's cost must not depend on the seed — the seed decides
*which* sites, counts, arrival times and payloads, drawn so that the
amount of work is the same for every seed (fixed multisets shuffled,
not free draws).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Optional

from repro.core.request import CoAllocationRequest
from repro.core.states import RequestState
from repro.experiments.apps import sweep_failure_rate
from repro.gram.states import JobState
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.net import rpc
from repro.net.address import Endpoint
from repro.net.network import LatencyModel, Network
from repro.net.transport import Port
from repro.obs.flightrec import FlightRecorder
from repro.simcore.environment import Environment
from repro.simcore.rng import RngRegistry
from repro.verify.runner import verify_recorder
from repro.workloads.scenarios import SF_EXPRESS_COUNTS

from benchmarks.wall import clock

Inputs = dict[str, Any]


@dataclass(frozen=True)
class Outcome:
    """What one run produced, as the public API reported it."""

    #: One record per op in input order; ``None`` for an op that never
    #: reached a terminal protocol state.
    ops: tuple
    #: Simulated facts beyond the per-op records (final ``env.now``,
    #: events scheduled, messages sent) — part of the run's digest.
    signature: tuple = ()
    #: Named values for per-layer metrics that the profile cannot give.
    facts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: What one op is.
    op: str
    why: str
    #: ``repro`` modules a user of this workload imports (for ``setup_s``).
    modules: tuple[str, ...]
    #: Size at full load, in the unit ``generate`` takes.
    load: int
    generate: Callable[[int, int], Inputs]
    build: Callable[[Inputs], Any]
    run: Callable[[Any], Outcome]
    check: Callable[[Inputs, Outcome], int]
    #: A workload run interleaved with this one in the layer pass, for
    #: ``obs.overhead_ratio`` (this one's time per op over that one's).
    companion: Optional["Workload"] = None


def _world_signature(env: Environment, network: Network) -> tuple:
    return (env.now, env.queue.stats()["pushes"], network.sent_count)


# -- coalloc_burst / coalloc_observed ---------------------------------------

COALLOC_SITES = 8
#: Processes per subjob: every request shuffles this multiset over its
#: eight subjobs, so each co-allocation starts exactly 16 processes.
COALLOC_COUNTS = (1, 1, 2, 2, 2, 2, 3, 3)


def _coalloc_generate(seed: int, load: int) -> Inputs:
    rng = RngRegistry(seed).stream("wall.coalloc")
    texts, sizes = [], []
    for _ in range(load):
        sites = [int(s) + 1 for s in rng.permutation(COALLOC_SITES)]
        counts = [int(c) for c in rng.permutation(COALLOC_COUNTS)]
        texts.append("+" + "".join(
            f"(&(resourceManagerContact=RM{site}:gatekeeper)(count={count})"
            f"(executable={DEFAULT_EXECUTABLE})(subjobStartType=required))"
            for site, count in zip(sites, counts)
        ))
        sizes.append(counts)
    return {"ops": load, "seed": seed, "rsl": texts, "sizes": sizes}


def _coalloc_build(inputs: Inputs, observed: bool):
    builder = GridBuilder(seed=inputs["seed"], trace=observed)
    builder.add_machines("RM", COALLOC_SITES, nodes=64)
    if observed:
        builder.with_monitors().with_profiling().with_probe(FlightRecorder())
    grid = builder.build()
    requests = [CoAllocationRequest.from_rsl(text) for text in inputs["rsl"]]
    return grid, requests


def _coalloc_run(world) -> Outcome:
    grid, requests = world
    duroc = grid.duroc()
    records: list[Optional[tuple]] = [None] * len(requests)

    def agent(index: int, request: CoAllocationRequest):
        job = duroc.submit(request)
        result = yield from job.commit()
        yield from job.wait_done()
        records[index] = (job.state.value, result.sizes, round(result.elapsed, 9))

    for index, request in enumerate(requests):
        grid.process(agent(index, request))
    grid.run()

    commits = [record[2] for record in records if record is not None]
    facts = {
        "core.sim_commit_p50_s": median(commits) if commits else 0.0,
        "core.sim_commit_max_s": max(commits, default=0.0),
    }
    if grid.recorder is not None:
        # The observed variant: the monitors' verdict is part of the op.
        started = clock.now()
        entry, findings = verify_recorder(
            grid.recorder, "coalloc_observed", flightrec=grid.flightrec
        )
        facts["verify.evaluate_s"] = clock.now() - started
        facts["verify.events_recorded"] = float(entry["events"])
        facts["verify.findings"] = float(len(findings))
        facts["obs.spans_retained_high_water"] = grid.counters.snapshot().get(
            "obs.spans_retained_high_water", 0.0
        )
    return Outcome(
        ops=tuple(records),
        signature=_world_signature(grid.env, grid.network),
        facts=facts,
    )


def _coalloc_check(inputs: Inputs, outcome: Outcome) -> int:
    failed = sum(
        1
        for record, sizes in zip(outcome.ops, inputs["sizes"])
        if record is None
        or record[0] != RequestState.DONE.value
        or list(record[1]) != sizes
    )
    # A protocol-monitor finding condemns the run it was found in.
    findings = int(outcome.facts.get("verify.findings", 0))
    return min(inputs["ops"], failed + findings)


# -- sf_express_churn -------------------------------------------------------

#: The fault patterns are pinned.  Which machines the scenario's seeded
#: fault model takes down decides the op's cost by an order of magnitude
#: (10 k to 107 k kernel events per op over sweep seeds 0-9), so a run
#: cannot average it out; sweep seeds 0 and 4 between them exercise
#: abort + resubmit to success, abort until the agent gives up,
#: ``substitute`` and ``delete``.  ``--seed`` moves every simulated
#: timestamp instead (startup and subjob timeout, +-5 %).
SF_SWEEP_SEEDS = (0, 4)
SF_STRATEGIES = ("atomic", "interactive")
SF_P_UNAVAILABLE = 0.3


def _sf_generate(seed: int, load: int) -> Inputs:
    rng = RngRegistry(seed).stream("wall.sf_express")
    return {
        "ops": load * len(SF_STRATEGIES),
        "sweep_seeds": list(SF_SWEEP_SEEDS[:load]),
        "startup": 30.0 * (1.0 + float(rng.uniform(-0.05, 0.05))),
        "subjob_timeout": 120.0 * (1.0 + float(rng.uniform(-0.05, 0.05))),
    }


def _sf_build(inputs: Inputs):
    # sweep_failure_rate builds each scenario's grid itself, inside the
    # run; there is nothing to construct ahead of it.
    return inputs


def _sf_run(inputs: Inputs) -> Outcome:
    rows = sweep_failure_rate(
        probabilities=(SF_P_UNAVAILABLE,),
        strategies=SF_STRATEGIES,
        seeds=tuple(inputs["sweep_seeds"]),
        startup=inputs["startup"],
        subjob_timeout=inputs["subjob_timeout"],
    )
    facts = {
        "broker.attempts": float(sum(row.attempts for row in rows)),
        "broker.substitutions": float(sum(row.substitutions for row in rows)),
        "broker.success_frac": sum(row.success for row in rows) / len(rows),
    }
    starts = [row.time_to_start for row in rows if row.success]
    if starts:
        facts["core.sim_commit_p50_s"] = median(starts)
        facts["core.sim_commit_max_s"] = max(starts)
    ops = tuple(
        (row.strategy, row.seed, row.success, row.attempts, row.substitutions,
         row.dropped, row.started_processes,
         None if row.time_to_start is None else round(row.time_to_start, 9))
        for row in rows
    )
    return Outcome(ops=ops, facts=facts)


def _sf_check(inputs: Inputs, outcome: Outcome) -> int:
    """An agent that gives up is an intended outcome; a wrong one is not."""
    total = sum(SF_EXPRESS_COUNTS)
    failed = inputs["ops"] - len(outcome.ops)
    for _, _, success, attempts, _, dropped, started, start in outcome.ops:
        if success:
            # Every process started unless subjobs were dropped.
            ok = (
                start is not None
                and 0 < started <= total
                and (started == total) == (dropped == 0)
            )
        else:
            ok = started == 0 and attempts > 1
        failed += not ok
    return failed


# -- gram_fanout ------------------------------------------------------------

GRAM_SITES = 8
GRAM_SCHEDULERS = ("fork", "fcfs", "backfill")
#: Process counts, in equal shares over the jobs of a run.
GRAM_COUNTS = (1, 2, 4, 8, 16)
#: Arrivals per simulated second (Poisson).
GRAM_RATE = 100.0


def _gram_generate(seed: int, load: int) -> Inputs:
    rng = RngRegistry(seed).stream("wall.gram_fanout")
    counts = rng.permutation([GRAM_COUNTS[i % len(GRAM_COUNTS)] for i in range(load)])
    sites = rng.permutation([i % GRAM_SITES + 1 for i in range(load)])
    arrivals = rng.exponential(1.0 / GRAM_RATE, size=load).cumsum()
    jobs = [
        [round(float(at), 9), f"RM{int(site)}:gatekeeper",
         f"&(resourceManagerContact=RM{int(site)}:gatekeeper)"
         f"(count={int(count)})(executable={DEFAULT_EXECUTABLE})"]
        for at, site, count in zip(arrivals, sites, counts)
    ]
    return {"ops": load, "seed": seed, "jobs": jobs}


def _gram_build(inputs: Inputs):
    builder = GridBuilder(seed=inputs["seed"], trace=False)
    for index in range(GRAM_SITES):
        builder.add_machine(
            f"RM{index + 1}", nodes=64,
            scheduler=GRAM_SCHEDULERS[index % len(GRAM_SCHEDULERS)],
        )
    return builder.build(), inputs["jobs"]


def _gram_run(world) -> Outcome:
    grid, jobs = world
    client = grid.gram_client()
    env = grid.env
    records: list[Optional[tuple]] = [None] * len(jobs)

    def submitter(index: int, at: float, contact: str, rsl: str):
        yield env.timeout(at)
        handle = yield from client.submit(contact, rsl)
        state = yield from client.wait_for_state(handle, JobState.DONE, poll=0.5)
        records[index] = (state.value, round(env.now - at, 9))

    for index, (at, contact, rsl) in enumerate(jobs):
        grid.process(submitter(index, at, contact, rsl))
    grid.run()
    return Outcome(
        ops=tuple(records), signature=_world_signature(env, grid.network)
    )


def _gram_check(inputs: Inputs, outcome: Outcome) -> int:
    return sum(
        1 for record in outcome.ops
        if record is None or record[0] != JobState.DONE.value
    )


# -- rpc_storm --------------------------------------------------------------

RPC_CLIENTS = 48
RPC_SERVERS = 4
RPC_TIMEOUT = 5.0


def _rpc_generate(seed: int, load: int) -> Inputs:
    """``load`` lock-step calls from each of the 48 clients."""
    rng = RngRegistry(seed).stream("wall.rpc_storm")
    servers = rng.permutation([i % RPC_SERVERS for i in range(RPC_CLIENTS)])
    payloads = rng.integers(0, 1 << 30, size=(RPC_CLIENTS, load))
    return {
        "ops": RPC_CLIENTS * load,
        "servers": [int(s) for s in servers],
        "payloads": [[int(p) for p in row] for row in payloads],
    }


def _rpc_build(inputs: Inputs):
    env = Environment()
    network = Network(env, LatencyModel(base=0.002))
    network.add_host("edge")
    network.add_host("core")
    servers = [Port(network, Endpoint("core", f"echo{i}")) for i in range(RPC_SERVERS)]
    clients = [Port(network, Endpoint("edge", f"client{i}")) for i in range(RPC_CLIENTS)]
    return env, network, servers, clients, inputs


def _rpc_run(world) -> Outcome:
    env, network, servers, clients, inputs = world
    replies: list[list[int]] = [[] for _ in clients]

    def serve(port: Port):
        while True:
            request = yield port.recv()
            rpc.reply_ok(port, request, request.payload)

    def storm(port: Port, target: Endpoint, payloads: list[int], got: list[int]):
        for payload in payloads:
            got.append((yield from rpc.call(
                port, target, "echo", payload, timeout=RPC_TIMEOUT
            )))

    for port in servers:
        env.process(serve(port))
    for port, server, payloads, got in zip(
        clients, inputs["servers"], inputs["payloads"], replies
    ):
        env.process(storm(port, servers[server].endpoint, payloads, got))
    env.run()
    ops = tuple(reply for got in replies for reply in got)
    return Outcome(ops=ops, signature=_world_signature(env, network))


def _rpc_check(inputs: Inputs, outcome: Outcome) -> int:
    sent = [payload for row in inputs["payloads"] for payload in row]
    wrong = sum(1 for want, got in zip(sent, outcome.ops) if want != got)
    return wrong + len(sent) - len(outcome.ops)


# -- the table --------------------------------------------------------------

_COALLOC_MODULES = ("repro.gridenv", "repro.core.request")

#: ``coalloc_observed``'s load with nothing attached (its companion).
_COALLOC_BARE = Workload(
    name="coalloc_bare",
    op="one committed 8-subjob DUROC co-allocation",
    why="the observed load with no observer, for obs.overhead_ratio",
    modules=_COALLOC_MODULES,
    load=40,
    generate=_coalloc_generate,
    build=lambda inputs: _coalloc_build(inputs, observed=False),
    run=_coalloc_run,
    check=_coalloc_check,
)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="coalloc_burst",
        op="one committed 8-subjob DUROC co-allocation",
        why="the full stack under concurrency: every request at t=0 through "
            "one Duroc, hundreds of waiters filtering one client mailbox",
        modules=_COALLOC_MODULES,
        load=120,
        generate=_coalloc_generate,
        build=lambda inputs: _coalloc_build(inputs, observed=False),
        run=_coalloc_run,
        check=_coalloc_check,
    ),
    Workload(
        name="coalloc_observed",
        op="one committed 8-subjob DUROC co-allocation, recorded and verified",
        why="tracer, monitors, op counters and flight recorder attached, then "
            "the protocol monitors run: obs/verify/prof work that burst has none of",
        modules=_COALLOC_MODULES + (
            "repro.obs.flightrec", "repro.verify.runner", "repro.prof.counters",
        ),
        load=_COALLOC_BARE.load,
        generate=_coalloc_generate,
        build=lambda inputs: _coalloc_build(inputs, observed=True),
        run=_coalloc_run,
        check=_coalloc_check,
        companion=_COALLOC_BARE,
    ),
    Workload(
        name="sf_express_churn",
        op="one application start attempt run to its AgentOutcome",
        why="the paper's 13-machine 1386-process request at 30% unavailability: "
            "edits, aborts, collective kill and a wide barrier, default tracer on",
        modules=("repro.experiments.apps",),
        load=len(SF_SWEEP_SEEDS),
        generate=_sf_generate,
        build=_sf_build,
        run=_sf_run,
        check=_sf_check,
    ),
    Workload(
        name="gram_fanout",
        op="one GRAM job submitted and polled to DONE",
        why="gsi + gram + schedulers + machine with no co-allocator: Poisson "
            "arrivals keep queues shallow, the opposite of coalloc_burst",
        modules=("repro.gridenv",),
        load=1200,
        generate=_gram_generate,
        build=_gram_build,
        run=_gram_run,
        check=_gram_check,
    ),
    Workload(
        name="rpc_storm",
        op="one completed rpc.call round trip",
        why="simcore + net only: same-instant fan-in and a timer armed and "
            "retired per call, one waiter per mailbox",
        modules=("repro.simcore.environment", "repro.net.network", "repro.net.rpc"),
        load=800,
        generate=_rpc_generate,
        build=_rpc_build,
        run=_rpc_run,
        check=_rpc_check,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
