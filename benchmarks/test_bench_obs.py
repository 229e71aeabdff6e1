"""Benchmark: observability of one co-allocation, end to end.

Runs the scenario table's traced three-subjob DUROC request
(``repro.workloads.scenarios.TRACED_COALLOCATION``), then derives the
paper's two observability artifacts straight from the trace: the Fig. 5
style timeline (as an ASCII Gantt over the causal spans) and a Fig. 3
style per-phase cost summary (p50/p95/max per span name).  Shape
claims: the trace is one connected tree, the critical path runs from
the request root to a barrier release, and the per-phase totals
reconstruct the request makespan.
"""

import pytest

from repro.obs.query import build_forest, critical_path, parentage, summarize
from repro.obs.render import render_gantt, render_summary, render_tree
from repro.workloads.scenarios import TRACED_COALLOCATION, run


def test_bench_obs(benchmark, publish):
    grid, (job, result) = benchmark.pedantic(
        lambda: run(TRACED_COALLOCATION, 7, {"trace"}),
        rounds=1,
        iterations=1,
    )
    spans = grid.tracer.spans

    publish(
        "obs_timeline",
        render_gantt(spans, grid.tracer.marks, title="Trace timeline (Fig. 5)"),
    )
    publish("obs_summary", render_summary(summarize(spans)))

    # One connected, fully-linked tree.
    roots = build_forest(spans)
    assert len(roots) == 1
    publish("obs_tree", render_tree(roots))
    linked, total = parentage(spans)
    assert linked == total

    # The critical path spans the whole request: root start -> release.
    path = critical_path(roots[0])
    assert path[0].name == "duroc.request"
    assert path[-1].name == "duroc.barrier"
    assert path[-1].span.end == pytest.approx(result.released_at)

    # Sequential submission (the paper's Fig. 5 claim), read off the trace.
    submits = sorted(
        (s for s in spans if s.name == "duroc.submit"), key=lambda s: s.start
    )
    assert len(submits) == 3
    assert all(
        later.start >= earlier.end - 1e-9
        for earlier, later in zip(submits, submits[1:])
    )

    # Metrics agree with the trace about protocol volume.
    metrics = grid.tracer.metrics
    assert metrics.counter("gram.submits_total").total() == len(submits)
    assert metrics.histogram("duroc.barrier_wait_seconds").count() == sum(
        table.arrived for table in job.barrier.tables.values()
    )
