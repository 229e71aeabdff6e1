"""Idempotent GRAM submission under a retry policy.

A retry whose predecessor lost only the *reply* must get the original
job back (gatekeeper dedup by submission id), never a duplicate job.
"""

import pytest

from repro.core import CoAllocationRequest, SubjobSpec, SubjobType
from repro.errors import AllocationAborted
from repro.faults import HostCrash
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.resilience import RetryPolicy
from tests.metric_reads import value


def drop_first_submit_reply(network):
    """One-shot rule: eat the first ``gram.submit.reply`` on the wire."""
    state = {"dropped": False}

    def rule(message):
        if message.kind == "gram.submit.reply" and not state["dropped"]:
            state["dropped"] = True
            return True
        return False

    network.add_drop_rule(rule)
    return state


def test_lost_reply_resubmission_reuses_the_job():
    grid = GridBuilder(seed=5).add_machine("RM1", nodes=8).build()
    state = drop_first_submit_reply(grid.network)
    duroc = grid.duroc(
        retry=RetryPolicy(max_attempts=4, base_delay=0.5, jitter=0.0),
        submit_timeout=3.0,
    )
    request = CoAllocationRequest([
        SubjobSpec(
            contact=grid.site("RM1").contact,
            count=2,
            executable=DEFAULT_EXECUTABLE,
            start_type=SubjobType.REQUIRED,
        )
    ])

    def agent(env):
        result = yield from duroc.run(request)
        return result

    result = grid.run(grid.process(agent(grid.env)))
    assert state["dropped"], "the fault never fired"
    assert result.sizes == (2,)

    # Exactly one job was created; the resubmission hit the dedup cache.
    gatekeeper = grid.site("RM1").gatekeeper
    assert len(gatekeeper.job_managers) == 1
    metrics = grid.tracer.metrics
    assert value(metrics, "gram.submits_total", site="RM1", outcome="accepted") == 1
    assert value(metrics, "gram.submits_total", site="RM1", outcome="duplicate") == 1
    assert metrics.counter("resilience.retries_total").total() >= 1


def test_max_attempts_counts_contacts_with_a_dead_site():
    """Every one of ``max_attempts`` submissions reaches the site.

    RM1 is down from t=0, so each attempt waits out ``submit_timeout``
    and then the next backoff delay; the request aborts once the last
    attempt times out, naming the attempt count.
    """
    policy = RetryPolicy(max_attempts=8, base_delay=0.5, jitter=0.0)
    grid = (
        GridBuilder(seed=5)
        .add_machine("RM1", nodes=8)
        .with_faults(HostCrash("RM1"))
        .build()
    )
    contacts = []

    def count_contacts(message):
        if message.dst.host == "RM1":
            contacts.append(grid.env.now)
        return False

    grid.network.add_drop_rule(count_contacts)
    duroc = grid.duroc(retry=policy, submit_timeout=3.0)
    request = CoAllocationRequest([
        SubjobSpec(
            contact=grid.site("RM1").contact,
            count=2,
            executable=DEFAULT_EXECUTABLE,
            start_type=SubjobType.REQUIRED,
        )
    ])

    def agent(env):
        with pytest.raises(AllocationAborted, match="after 8 attempt"):
            yield from duroc.run(request)
        return env.now

    aborted_at = grid.run(grid.process(agent(grid.env)))
    assert len(contacts) == 8
    assert aborted_at == 8 * 3.0 + sum(policy.schedule())
