"""Integration: an instrumented co-allocation yields one causal tree.

These are the acceptance tests of the observability subsystem: the
quickstart-shaped run must export a single connected trace whose
parentage matches the protocol (submit under request, GRAM work under
submit, app startup under GRAM, barrier under submit), two identical
runs must export byte-identical artifacts, and running with tracing
off must not change the simulation.
"""

import pytest

from repro.obs.export import export_jsonl, metrics_json
from repro.obs.query import build_forest, parentage, trace_ids
from repro.simcore.tracing import NullTracer
from repro.workloads.scenarios import TRACED_COALLOCATION, run
from tests.metric_reads import series, value

SEED = 7


def run_coallocation(trace: bool = True):
    """The traced three-subjob run of the observability tables;
    ``trace=False`` runs it bare, with the null tracer instead."""
    grid, (job, result) = run(TRACED_COALLOCATION, SEED, {"trace"} if trace else ())
    return grid, job, result


@pytest.fixture(scope="module")
def traced_run():
    return run_coallocation()


class TestTraceTree:
    def test_single_connected_tree(self, traced_run):
        grid, job, result = traced_run
        assert trace_ids(grid.tracer.spans) == [job.trace_ctx.trace_id]
        roots = build_forest(grid.tracer.spans)
        assert len(roots) == 1
        assert roots[0].name == "duroc.request"
        # Every span of the run is in the tree.
        assert len(roots[0].walk()) == len(grid.tracer.spans)

    def test_parentage_meets_the_bar(self, traced_run):
        grid, _, _ = traced_run
        linked, total = parentage(grid.tracer.spans)
        assert total > 0
        assert linked / total >= 0.95

    def test_expected_parent_relations(self, traced_run):
        grid, _, _ = traced_run
        (root,) = build_forest(grid.tracer.spans)
        by_parent = {
            child.name
            for node in root.walk()
            for child in node.children
        }
        edges = {
            (node.name, child.name)
            for node in root.walk()
            for child in node.children
        }
        assert ("duroc.request", "duroc.submit") in edges
        assert ("duroc.submit", "gram.submit") in edges
        assert ("gram.submit", "gram.auth") in edges
        assert ("gram.submit", "gram.fork") in edges
        assert ("gram.submit", "app.startup") in edges
        assert ("duroc.submit", "duroc.barrier") in edges
        # Nothing outside the protocol vocabulary appears.
        assert by_parent <= {
            "duroc.submit", "gram.submit", "gram.auth", "gram.misc",
            "gram.initgroups", "gram.queue", "gram.fork", "app.startup",
            "duroc.barrier",
        }

    def test_checkin_marks_tie_into_the_tree(self, traced_run):
        grid, job, _ = traced_run
        checkins = grid.tracer.marks_named("duroc.checkin")
        assert len(checkins) == 6  # 3 subjobs x 2 processes
        startup_ids = {
            s.span_id
            for s in grid.tracer.spans_named("app.startup")
        }
        for mark in checkins:
            assert mark.trace_id == job.trace_ctx.trace_id
            assert mark.parent_id in startup_ids

    def test_metrics_cover_the_protocol(self, traced_run):
        grid, _, _ = traced_run
        metrics = grid.tracer.metrics
        assert metrics.counter("gram.submits_total").total() == 3
        assert value(metrics, "duroc.requests_total", outcome="released") == 1
        assert metrics.histogram("duroc.barrier_wait_seconds").count() == 6
        waiting = series(metrics, "duroc.barrier_waiting")
        assert (waiting["value"], waiting["high_water"]) == (0, 6)
        assert metrics.counter("net.messages_sent_total").total() > 0
        queue_wait = series(metrics, "sched.queue_wait_seconds", site="RM1", policy="fork")
        assert queue_wait["count"] == 1


class TestDeterminism:
    def test_double_run_exports_are_byte_identical(self):
        grid1, _, _ = run_coallocation()
        grid2, _, _ = run_coallocation()
        assert export_jsonl(grid1.tracer) == export_jsonl(grid2.tracer)
        assert metrics_json(grid1.tracer.metrics.snapshot()) == metrics_json(
            grid2.tracer.metrics.snapshot()
        )

    def test_null_tracer_does_not_change_the_simulation(self, traced_run):
        traced_grid, _, traced_result = traced_run
        grid, job, result = run_coallocation(trace=False)
        assert isinstance(grid.tracer, NullTracer)
        assert result.released_at == traced_result.released_at
        assert result.sizes == traced_result.sizes
        assert grid.now == traced_grid.now
        # And nothing was recorded.
        assert list(grid.tracer.spans) == []
        assert grid.tracer.metrics.snapshot() == {"time": 0.0, "metrics": {}}

    def test_barrier_waits_survive_tracing_toggle(self):
        def normalized(job):
            # Slot ids are globally unique across a process; compare
            # waits relative to each run's first slot.
            waits = job.barrier.barrier_waits()
            base = min(sid for sid, _, _ in waits)
            return [(sid - base, rank, wait) for sid, rank, wait in waits]

        on = normalized(run_coallocation(trace=True)[1])
        off = normalized(run_coallocation(trace=False)[1])
        assert on == off
