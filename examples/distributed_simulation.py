#!/usr/bin/env python
"""The paper's §2 motivating scenario, reproduced end to end.

    "A large distributed simulation requires 400 processors ...  Five
    computers are identified ...  one of the computers turns out to be
    unavailable due to a system crash.  This failure is handled by
    dropping that computer from the ensemble and adding another,
    located dynamically.  ...  after five minutes the fifth system has
    not joined them ...  The solution adopted in this case is to drop
    the 'faulty' system from the ensemble, and proceed with just four
    systems, at a decreased level of simulation fidelity, but with the
    same completion time."

Six 128-node machines exist (five planned + one spare).  ``sim2`` is
already down, ``sim5`` is overloaded and will miss its startup
deadline.  The interactive-transaction strategy substitutes the crash
and drops the straggler.

Run:  python examples/distributed_simulation.py
"""

from repro.core import DurocEvent
from repro.faults import HostCrash
from repro.workloads.scenarios import motivating_scenario, run


def main() -> None:
    scenario = motivating_scenario()
    faults = {spec.host: spec for spec in scenario.faults}
    print("Grid:")
    for name, nodes in scenario.sites:
        fault = faults.get(name)
        status = (
            "healthy" if fault is None
            else "CRASHED" if isinstance(fault, HostCrash)
            else f"overloaded x{fault.factor:g}"
        )
        print(f"  {name}: {nodes} nodes, {status}")
    print("\nRequest: 400 processors over 5 machines "
          "(interactive, 90 s startup deadline)\n")

    grid, outcome = run(scenario, seed=7)

    # Narrate the co-allocation from the request's monitoring log (§3.4).
    job = outcome.result.job
    for n in job.callbacks.log:
        print(
            f"  t={n.time:7.2f}s  {n.event.value}"
            + (f" subjob={n.subjob}" if n.subjob is not None else "")
            + (f"  [{n.detail}]" if n.detail else "")
        )

    print("\nOutcome:")
    print(f"  success:       {outcome.success}")
    print(f"  substitutions: {outcome.substitutions}")
    print(f"  dropped:       {outcome.dropped}")
    print(f"  processors:    {outcome.started_processes} of 400 "
          "(decreased fidelity, same completion time)")
    print(f"  time to start: {outcome.elapsed:.1f} s")
    for line in outcome.log:
        print(f"  log: {line}")

    timeouts = job.callbacks.events(DurocEvent.SUBJOB_TIMEOUT)
    print(f"\n{len(timeouts)} subjob(s) missed the startup deadline and "
          "were dropped — the computation proceeded anyway.")


if __name__ == "__main__":
    main()
