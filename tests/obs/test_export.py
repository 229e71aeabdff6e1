"""Exporter tests: JSONL round-trips, metrics, determinism."""

import json

import pytest

from repro.obs.export import (
    export_jsonl,
    load_jsonl,
    metrics_json,
    write_jsonl,
    write_metrics,
)
from repro.simcore import Environment, Tracer


@pytest.fixture
def tracer():
    return Tracer(Environment())


def build_sample(tracer):
    root = tracer.record("root", 0.0, 10.0, job="j1")
    child = tracer.record("child", 1.0, 4.0, parent=root, site="RM1", ok=True)
    tracer.record("leaf", 2.0, 3.0, parent=child, rank=0)
    tracer.mark("commit", parent=root, job="j1")
    tracer.mark("loose")
    return root


class TestJsonl:
    def test_round_trip_preserves_everything(self, tracer, tmp_path):
        build_sample(tracer)
        path = write_jsonl(tracer, tmp_path / "trace.jsonl")
        dump = load_jsonl(path)
        assert sorted(s.key() for s in dump.spans) == sorted(
            s.key() for s in tracer.spans
        )
        assert sorted(m.key() for m in dump.marks) == sorted(
            m.key() for m in tracer.marks
        )

    def test_meta_line_first(self, tracer):
        build_sample(tracer)
        first = json.loads(export_jsonl(tracer).splitlines()[0])
        assert first == {
            "record": "meta", "version": 1, "spans": 3, "marks": 2,
        }

    def test_identical_traces_export_identically(self):
        def run():
            tracer = Tracer(Environment())
            build_sample(tracer)
            return export_jsonl(tracer)

        assert run() == run()

    def test_spans_sorted_by_start(self, tracer):
        tracer.record("late", 5.0, 6.0)
        tracer.record("early", 0.0, 1.0)
        lines = [
            json.loads(line)
            for line in export_jsonl(tracer).splitlines()[1:]
        ]
        assert [r["name"] for r in lines] == ["early", "late"]

    def test_non_json_attrs_are_stringified(self, tracer, tmp_path):
        tracer.record("odd", 0.0, 1.0, endpoint=object())
        dump = load_jsonl(write_jsonl(tracer, tmp_path / "t.jsonl"))
        assert isinstance(dump.spans[0].attrs["endpoint"], str)

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "mystery"}\n')
        with pytest.raises(ValueError):
            load_jsonl(path)


class TestMetricsExport:
    def test_write_and_reload(self, tracer, tmp_path):
        tracer.metrics.bind("counter", "x", site="RM1").inc()
        snapshot = tracer.metrics.snapshot()
        path = write_metrics(snapshot, tmp_path / "metrics.json")
        assert json.loads(path.read_text()) == snapshot
        assert metrics_json(snapshot) == metrics_json(snapshot)
