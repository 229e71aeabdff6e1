"""Streaming telemetry: sampling, bounded sinks, incremental export.

The properties gated here are the pipeline's contract (and CI's
``benchmarks/streaming_gate.py`` re-asserts them at stress scale):

* head-based sampling is a pure function of (seed, trace_id) — same
  seed, same kept set; whole causal trees live or die together;
* the incremental JSONL exporter is byte-identical to the end-of-run
  ``export_jsonl`` over every bench-scenario shape and buffer size;
* the streamed aggregate equals the post-hoc aggregation of the full
  dump, even when the exporter samples;
* a sinked tracer meters itself and stays bounded.
"""

import json

import pytest

from repro.gridenv import GridBuilder
from repro.obs.export import TraceDump, export_jsonl
from repro.obs.streaming import (
    AggregatingSink,
    JsonlStreamSink,
    TelemetryPipeline,
    TraceSampler,
    aggregate_trace,
    load_aggregate,
)
from repro.prof.bench import (
    DEFAULT_SEED,
    _coallocate,
    _figure1_request,
    _kernel_stress_run,
)

# -- bench-scenario shapes, runnable with or without a sink ------------------


def _figure1_run(sink=None):
    builder = (
        GridBuilder(seed=DEFAULT_SEED)
        .add_machine("RM1", nodes=16)
        .add_machine("RM2", nodes=64)
        .add_machine("RM3", nodes=64)
    )
    if sink is not None:
        builder.with_span_sink(sink)
    grid = builder.build()
    _coallocate(grid, _figure1_request(grid))
    return grid.tracer


def _duroc_scaling_run(sink=None):
    from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
    from repro.gridenv import DEFAULT_EXECUTABLE

    builder = GridBuilder(seed=DEFAULT_SEED)
    sites = [f"RM{i}" for i in range(1, 7)]
    for site in sites:
        builder.add_machine(site, nodes=16)
    if sink is not None:
        builder.with_span_sink(sink)
    grid = builder.build()
    request = CoAllocationRequest([
        SubjobSpec(
            contact=grid.site(site).contact,
            count=2,
            executable=DEFAULT_EXECUTABLE,
            start_type=SubjobType.REQUIRED,
        )
        for site in sites
    ])
    _coallocate(grid, request)
    return grid.tracer


def _kernel_stress_traced(sink=None):
    tracer, _ = _kernel_stress_run(DEFAULT_SEED, sink=sink, trace_spans=True)
    return tracer


#: Scenario name -> (runner, spill-forcing buffer size).  The stress
#: shape uses a larger buffer so the merge fans in over a handful of
#: spill runs rather than thousands of open files.
SCENARIOS = {
    "figure1": (_figure1_run, 4),
    "duroc_scaling": (_duroc_scaling_run, 4),
    "kernel_stress": (_kernel_stress_traced, 512),
}


def _dump_of(tracer):
    return TraceDump(spans=list(tracer.spans), marks=list(tracer.marks))


class TestTraceSampler:
    def test_same_seed_same_kept_set(self):
        ids = [f"trace-{i}" for i in range(500)]
        kept_a = TraceSampler(8, seed=3).kept_ids(ids)
        kept_b = TraceSampler(8, seed=3).kept_ids(ids)
        assert kept_a == kept_b
        # Roughly 1-in-8, and never empty at this population.
        assert 20 <= len(kept_a) <= 130

    def test_different_seeds_differ(self):
        ids = [f"trace-{i}" for i in range(500)]
        assert TraceSampler(8, seed=3).kept_ids(ids) != TraceSampler(
            8, seed=4
        ).kept_ids(ids)

    def test_keep_everything_cases(self):
        sampler = TraceSampler(5, seed=1)
        assert sampler.keep(None)  # unattributed records are never dropped
        assert all(
            TraceSampler(1, seed=9).keep(f"trace-{i}") for i in range(50)
        )

    def test_decision_is_cached_and_stable(self):
        sampler = TraceSampler(4, seed=0)
        first = sampler.keep("trace-7")
        assert all(sampler.keep("trace-7") == first for _ in range(3))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            TraceSampler(0)


class TestWholeTreeAtomicity:
    def test_sampled_traces_keep_or_drop_every_record(self):
        # 190 root spans -> 190 traces: plenty on both sides of a 1/4
        # sampling decision.
        reference = _kernel_stress_traced()
        sampler = TraceSampler(4, seed=DEFAULT_SEED)
        pipeline = TelemetryPipeline(sampler=sampler, retain=True)
        sinked = _kernel_stress_traced(sink=pipeline)

        by_trace = {}
        for span in reference.spans:
            by_trace.setdefault(span.trace_id, set()).add(span.key())
        retained = {}
        for span in sinked.spans:
            retained.setdefault(span.trace_id, set()).add(span.key())

        check = TraceSampler(4, seed=DEFAULT_SEED)
        kept = {tid for tid in by_trace if check.keep(tid)}
        assert kept and kept != set(by_trace)  # both fates occur
        for trace_id, keys in by_trace.items():
            if trace_id in kept:
                assert retained.get(trace_id) == keys, trace_id
            else:
                assert trace_id not in retained, trace_id
        # Marks follow their tree's fate too.
        mark_keys = {m.key() for m in sinked.marks}
        for mark in reference.marks:
            assert (mark.key() in mark_keys) == check.keep(mark.trace_id)


class TestIncrementalJsonl:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_byte_identical_to_export_jsonl(self, tmp_path, name):
        runner, buffer_size = SCENARIOS[name]
        reference = export_jsonl(_dump_of(runner()))

        out = tmp_path / f"{name}.jsonl"
        sink = JsonlStreamSink(out, buffer_size=buffer_size)
        tracer = runner(sink=sink)
        tracer.close()
        assert tracer.spans == [] and tracer.marks == []
        assert out.read_text() == reference
        # The spill runs were merged and removed.
        assert list(tmp_path.glob("*.run")) == []

    def test_close_is_idempotent(self, tmp_path):
        out = tmp_path / "t.jsonl"
        sink = JsonlStreamSink(out, buffer_size=2)
        tracer = _figure1_run(sink=sink)
        tracer.close()
        first = out.read_text()
        tracer.close()
        assert out.read_text() == first

    def test_rejects_bad_buffer(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlStreamSink(tmp_path / "t.jsonl", buffer_size=0)


class TestAggregation:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_streamed_equals_posthoc(self, name):
        runner, _ = SCENARIOS[name]
        reference = runner()
        aggregator = AggregatingSink()
        runner(sink=TelemetryPipeline(aggregator=aggregator))
        streamed = aggregator.snapshot()
        posthoc = aggregate_trace(_dump_of(reference)).snapshot()
        assert json.dumps(streamed, sort_keys=True) == json.dumps(
            posthoc, sort_keys=True
        )

    def test_aggregates_complete_under_sampling(self):
        # The Dapper split: the exporter samples, the aggregates do not.
        reference = _kernel_stress_traced()
        aggregator = AggregatingSink()
        _kernel_stress_traced(
            sink=TelemetryPipeline(
                sampler=TraceSampler(16, seed=DEFAULT_SEED),
                aggregator=aggregator,
            )
        )
        snapshot = aggregator.snapshot()
        assert snapshot["spans"] == len(reference.spans)
        assert snapshot["paths"]["storm.client;storm.trip"]["count"] == 4000

    def test_per_label_series(self):
        aggregator = AggregatingSink()
        _kernel_stress_traced(sink=TelemetryPipeline(aggregator=aggregator))
        snapshot = aggregator.snapshot()
        tenants = snapshot["labels"]["tenant"]
        assert len(tenants) == 8
        # 40 clients over 8 tenants: 5 roots + 500 trips each.
        assert all(entry["count"] == 505 for entry in tenants.values())
        jobs = snapshot["labels"]["job"]
        assert len(jobs) == 10
        for entry in list(tenants.values()) + list(jobs.values()):
            assert entry["window"]["end"] > entry["window"]["start"]

    def test_write_and_load_roundtrip(self, tmp_path):
        aggregator = AggregatingSink()
        _figure1_run(sink=TelemetryPipeline(aggregator=aggregator))
        path = aggregator.write(tmp_path / "agg.json")
        assert load_aggregate(path) == aggregator.snapshot()

    def test_load_rejects_other_json(self, tmp_path):
        path = tmp_path / "not_agg.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_aggregate(path)


class TestPipelineMetering:
    def test_bounded_memory_and_counters(self, tmp_path):
        buffer_size = 256
        pipeline = TelemetryPipeline(
            sampler=TraceSampler(16, seed=DEFAULT_SEED),
            aggregator=AggregatingSink(),
            exporter=JsonlStreamSink(
                tmp_path / "s.jsonl", buffer_size=buffer_size
            ),
        )
        tracer = _kernel_stress_traced(sink=pipeline)
        tracer.close()

        total = 13193  # the telemetry_stress span count (no marks)
        assert 0 < tracer.spans_retained_high_water <= 2 * buffer_size
        metrics = tracer.metrics
        recorded = metrics.counter("obs.spans_recorded_total").total()
        dropped = metrics.counter("obs.spans_dropped_total").total()
        assert recorded == total
        assert dropped == total  # retain=False: nothing stays on the tracer
        gauge = metrics.gauge("obs.spans_retained")
        assert gauge.high_water() == tracer.spans_retained_high_water

    def test_probe_sees_high_water(self):
        tracer, counters = _kernel_stress_run(
            DEFAULT_SEED,
            sink=TelemetryPipeline(aggregator=AggregatingSink(), retain=True),
            trace_spans=True,
        )
        assert (
            counters.snapshot()["obs.spans_retained_high_water"]
            == tracer.spans_retained_high_water
            == len(tracer.spans)
        )
        assert "obs.spans_retained_high_water" in counters.snapshot()

    def test_no_sink_no_metering(self):
        tracer = _figure1_run()
        assert tracer.spans_retained_high_water == 0
        assert "obs.spans_recorded_total" not in tracer.metrics.names()


class TestReportCli:
    def _report_json(self, capsys, source):
        from repro.obs.cli import main

        assert main(["--format", "json", "report", str(source)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_stream_and_dump_agree(self, tmp_path, capsys):
        from repro.obs.export import write_jsonl

        reference = _figure1_run()
        dump_path = write_jsonl(_dump_of(reference), tmp_path / "dump.jsonl")

        aggregator = AggregatingSink()
        _figure1_run(sink=TelemetryPipeline(aggregator=aggregator))
        agg_path = aggregator.write(tmp_path / "agg.json")

        from_stream = self._report_json(capsys, agg_path)
        from_dump = self._report_json(capsys, dump_path)
        assert from_stream["paths"] == from_dump["paths"]
        assert from_stream["labels"] == from_dump["labels"]
        # p50/p90/p99 summaries ride on every series record.
        assert all("summary" in rec for rec in from_stream["paths"].values())

    def test_text_report(self, tmp_path, capsys):
        from repro.obs.cli import main

        aggregator = AggregatingSink()
        _kernel_stress_traced(sink=TelemetryPipeline(aggregator=aggregator))
        path = aggregator.write(tmp_path / "agg.json")
        assert main(["report", str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "telemetry report: 13193 spans" in out
        assert "(+4 more paths)" in out
        assert "by tenant:" in out
        assert "tenant-0" in out

    def test_bad_snapshot_is_usage_error(self, tmp_path):
        from repro.obs.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "nope"}')
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(bad)])
        assert excinfo.value.code == 2
