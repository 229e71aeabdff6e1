"""Tripwire, as counts: liveness polls follow sites, not requests.

The co-allocator polls each watched *gatekeeper* once per heartbeat
interval, whatever number of requests and subjobs it has there.  N
concurrent two-site requests held open by a long-running program send
the same number of ``gram.status`` messages for N = 4 as for N = 16
(the per-subjob poll this replaced sent four times as many).
"""

import math

from repro.core import CoAllocationRequest, RequestState, SubjobSpec
from repro.core.applib import make_program
from repro.gram.jobmanager import STATUS
from repro.gridenv import GridBuilder
from repro.simcore.probe import Probe

SITES = ("RM1", "RM2")
INTERVAL = 1.0
SPAN = 30.0


class StatusPolls(Probe):
    def __init__(self):
        self.sent = 0

    def on_send(self, message):
        self.sent += message.kind == STATUS


def polls_with(requests):
    polls = StatusPolls()
    grid = (
        GridBuilder(seed=19)
        .add_machine("RM1", nodes=64)
        .add_machine("RM2", nodes=64)
        .program("long", make_program(runtime=10 * SPAN))
        .with_probe(polls)
        .build()
    )
    duroc = grid.duroc(heartbeat_interval=INTERVAL)
    jobs = [
        duroc.submit(CoAllocationRequest([
            SubjobSpec(contact=grid.site(site).contact, count=2, executable="long")
            for site in SITES
        ]))
        for _ in range(requests)
    ]
    for job in jobs:
        grid.process(job.commit())
    grid.run(until=SPAN)
    assert all(job.state is RequestState.RELEASED for job in jobs)
    return polls.sent


def test_status_polls_do_not_scale_with_concurrent_requests():
    few, many = polls_with(4), polls_with(16)
    assert 0 < few == many <= len(SITES) * math.ceil(SPAN / INTERVAL)
