#!/usr/bin/env python
"""Quickstart: co-allocate a master/worker computation across three sites.

This is the paper's Figure 1 example end to end:

* a required ``master`` subjob on RM1,
* interactive ``worker`` subjobs on RM2 and RM3,
* expressed in RSL, submitted through DUROC, and released via the
  two-phase-commit barrier.

Run:  python examples/quickstart.py

Besides the console narration, the run exports its trace and metrics to
``results/quickstart_trace.jsonl`` / ``results/quickstart_metrics.json``
for inspection with ``python -m repro.obs``, and its cost profile to
``results/quickstart_profile.json`` (plus a collapsed-stack
``.collapsed`` for flamegraph tools) for ``python -m repro.prof``.
"""

from dataclasses import replace
from pathlib import Path

from repro.core import DurocEvent, make_program
from repro.obs.export import write_jsonl, write_metrics
from repro.prof import profile_grid, write_collapsed
from repro.rsl import pretty
from repro.verify import EventLog, RunContext, all_monitors, evaluate
from repro.workloads.scenarios import FIGURE1, figure1_request, run

RESULTS = Path(__file__).resolve().parent.parent / "results"


def body(ctx, port, config):
    """What every process does once the co-allocation is released."""
    print(
        f"  t={ctx.now:6.2f}s  {ctx.machine.name}: process started as "
        f"global rank {config.global_rank()} "
        f"(subjob {config.my_subjob}, local rank {config.my_rank}, "
        f"world size {config.total_processes})"
    )
    yield ctx.env.timeout(1.0)  # the actual computation
    return config.global_rank()


def drive(grid):
    # 2. Express the co-allocation (the paper's Figure 1) and print its RSL.
    request = figure1_request(grid, master="master", worker="worker")
    print("Submitting RSL request:")
    print(pretty(request.to_rsl()))
    print()

    # 3. Submit through the interactive co-allocator and commit.
    duroc = grid.duroc()

    def agent(env):
        job = duroc.submit(request)
        job.on(None, lambda n: print(
            f"  t={n.time:6.2f}s  callback: {n.event.value}"
            + (f" (subjob {n.subjob})" if n.subjob is not None else "")
        ))
        result = yield from job.commit()
        print()
        print(
            f"Released at t={result.released_at:.2f}s: "
            f"{result.total_processes} processes in {len(result.sizes)} "
            f"subjobs {result.sizes}"
        )
        yield from job.wait_done()
        print(f"Computation finished at t={env.now:.2f}s")
        return job

    return agent(grid.env)


def main() -> None:
    # 1. The Figure-1 testbed: three independently administered sites,
    #    running our master/worker program, with the runtime-verification
    #    recorder attached so this run is also a checked execution (see
    #    ``python -m repro.verify``) and the op counters for its profile.
    program = make_program(startup=0.5, body=body)
    scenario = replace(
        FIGURE1, programs={"master": program, "worker": program}, drive=drive
    )
    grid, job = run(scenario, seed=42, observe={"monitors", "profile"})

    # 4. Inspect the monitoring log (§3.4).
    checkins = job.callbacks.events(DurocEvent.SUBJOB_CHECKIN)
    print(f"\n{len(checkins)} subjobs checked into the barrier; "
          f"request ended in state {job.state.value!r}")

    # 5. Evaluate the protocol monitors over the recorded run: vector
    #    clocks + happens-before race/2PC/deadlock checks.
    recorder = grid.recorder
    findings = evaluate(
        all_monitors(),
        EventLog(recorder.events),
        RunContext(
            run_id="quickstart",
            queue_exhausted=recorder.queue_exhausted,
            end_time=grid.now,
        ),
    )
    print(
        f"Runtime verification: {len(recorder.events)} events recorded, "
        f"{len(findings)} protocol finding(s)"
    )
    for finding in findings:
        print(f"  {finding.rule}: {finding.message}")

    # 6. Export the trace and metrics for ``python -m repro.obs``, and
    #    the cost profile for ``python -m repro.prof``.
    trace_path = write_jsonl(grid.tracer, RESULTS / "quickstart_trace.jsonl")
    metrics_path = write_metrics(
        grid.tracer.metrics.snapshot(), RESULTS / "quickstart_metrics.json"
    )
    profile = profile_grid(grid, meta={"source": "examples/quickstart.py", "seed": 42})
    profile_path = profile.write(RESULTS / "quickstart_profile.json")
    collapsed_path = write_collapsed(profile, RESULTS / "quickstart_profile.collapsed")
    print(f"Trace written to {trace_path}")
    print(f"Metrics written to {metrics_path}")
    print(f"Profile written to {profile_path}")
    print(f"Collapsed stacks written to {collapsed_path}")


if __name__ == "__main__":
    main()
