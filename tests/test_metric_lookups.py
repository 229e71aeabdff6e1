"""Metering resolves its series per component, not per message.

A traced run used to pay a registry lookup and a label sort for every
metric write — four of each per message.  Components now bind their
series once (``registry.bind``), so the number of lookups depends on
what was built, never on how long it ran.  This is a count, not a
timing: the same request is run twice, the second time with sixteen times
the processes in its two wide subjobs — each one checks in, re-sends
while it waits and is released — and the lookups must not move while
the traffic doubles.
"""

from repro.core.applib import make_program
from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder
from repro.simcore import metrics
from tests.metric_reads import value


def _counted_run(monkeypatch, width: int) -> dict[str, int]:
    """Build a traced Figure-1 grid and co-allocate on it to commit.

    The two interactive subjobs have ``width`` processes each; the third
    subjob's take 50 seconds to reach the barrier, and the processes
    already there re-send their check-in meanwhile.
    """
    calls = {"_get": 0, "_label_key": 0}
    real_get, real_label_key = metrics.MetricsRegistry._get, metrics._label_key

    def counting_get(self, cls, name, factory):
        calls["_get"] += 1
        return real_get(self, cls, name, factory)

    def counting_label_key(labels):
        calls["_label_key"] += 1
        return real_label_key(labels)

    with monkeypatch.context() as patch:
        patch.setattr(metrics.MetricsRegistry, "_get", counting_get)
        patch.setattr(metrics, "_label_key", counting_label_key)
        grid = (
            GridBuilder(seed=7)
            .add_machine("RM1", nodes=16)
            .add_machine("RM2", nodes=64)
            .add_machine("RM3", nodes=64)
            .program("slow", make_program(startup=50.0))
            .build()
        )

        def spec(site, count, start_type, executable=DEFAULT_EXECUTABLE):
            return SubjobSpec(
                contact=grid.site(site).contact,
                count=count,
                executable=executable,
                start_type=start_type,
            )

        request = CoAllocationRequest([
            spec("RM1", 1, SubjobType.REQUIRED),
            spec("RM2", width, SubjobType.INTERACTIVE),
            spec("RM3", width, SubjobType.INTERACTIVE, executable="slow"),
        ])
        duroc = grid.duroc()
        committed = []

        def agent(env):
            job = duroc.submit(request)
            result = yield from job.commit()
            committed.append(result)

        grid.run(grid.process(agent(grid.env)))
    assert committed and committed[0].sizes == (1, width, width)
    assert grid.tracer.metrics is not metrics.NULL_METRICS
    calls["sent"] = grid.network.sent_count
    calls["checkins"] = int(
        value(grid.tracer.metrics, "net.messages_sent_total", kind="duroc.checkin")
    )
    return calls


def test_lookups_do_not_scale_with_messages(monkeypatch):
    narrow = _counted_run(monkeypatch, width=4)
    wide = _counted_run(monkeypatch, width=64)
    # Sixteen times the processes multiply the check-ins, and with them the traffic ...
    assert wide["checkins"] >= 1.8 * narrow["checkins"]
    assert wide["sent"] >= 1.5 * narrow["sent"]
    # ... and cost not one more registry lookup or label sort.
    assert wide["_get"] == narrow["_get"]
    assert wide["_label_key"] == narrow["_label_key"]
    # Both are a per-grid constant, far below one per message.
    assert narrow["_get"] < narrow["sent"] / 2
