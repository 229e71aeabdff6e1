"""End-to-end tests for ``python -m repro.obs``."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.export import write_jsonl, write_metrics
from repro.simcore import Environment, Tracer


@pytest.fixture
def trace_file(tmp_path):
    tracer = Tracer(Environment())
    root = tracer.record("duroc.request", 0.0, 10.0, job="j1")
    submit = tracer.record("duroc.submit", 0.0, 4.0, parent=root, slot=0)
    tracer.record("gram.submit", 0.5, 3.5, parent=submit)
    tracer.mark("duroc.commit", parent=root)
    tracer.metrics.bind("counter", "gram.submits_total", site="RM1", outcome="accepted").inc()
    tracer.metrics.bind("histogram", "duroc.barrier_wait_seconds").observe(1.5)
    trace = write_jsonl(tracer, tmp_path / "trace.jsonl")
    metrics = write_metrics(tracer.metrics.snapshot(), tmp_path / "metrics.json")
    return trace, metrics


class TestSubcommands:
    def test_timeline(self, trace_file, capsys):
        trace, _ = trace_file
        assert main(["timeline", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "duroc.request" in out
        assert "#" in out

    def test_tree(self, trace_file, capsys):
        trace, _ = trace_file
        assert main(["tree", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace trace-1" in out
        assert "`-- gram.submit" in out

    def test_tree_unknown_trace_id_exits_1(self, trace_file, capsys):
        trace, _ = trace_file
        assert main(["tree", str(trace), "trace-99"]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_critical_path(self, trace_file, capsys):
        trace, _ = trace_file
        assert main(["critical-path", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path: 3 span(s)" in out

    def test_summary_with_validation(self, trace_file, capsys):
        trace, _ = trace_file
        assert main(["summary", str(trace), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "parentage: 3/3 spans linked (100.0%)" in out

    def test_metrics(self, trace_file, capsys):
        _, metrics = trace_file
        assert main(["metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "gram.submits_total{outcome=accepted,site=RM1}" in out
        assert "duroc.barrier_wait_seconds" in out


class TestJsonFormat:
    def test_summary_json(self, trace_file, capsys):
        trace, _ = trace_file
        assert main(["--format", "json", "summary", str(trace)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spans"] == 3
        assert doc["parentage"] == 1.0
        assert {row["name"] for row in doc["names"]} == {
            "duroc.request", "duroc.submit", "gram.submit",
        }

    def test_tree_json_nests_children(self, trace_file, capsys):
        trace, _ = trace_file
        assert main(["--format", "json", "tree", str(trace)]) == 0
        (root,) = json.loads(capsys.readouterr().out)
        assert root["name"] == "duroc.request"
        assert root["children"][0]["children"][0]["name"] == "gram.submit"

    def test_timeline_json(self, trace_file, capsys):
        trace, _ = trace_file
        assert main(["--format", "json", "timeline", str(trace)]) == 0
        rows = json.loads(capsys.readouterr().out)
        # Sorted by (start, end): the shorter submit precedes the request.
        assert [r["name"] for r in rows] == [
            "duroc.submit", "duroc.request", "gram.submit",
        ]


class TestUsageErrors:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_missing_file_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["summary", "does-not-exist.jsonl"])
        assert excinfo.value.code == 2

    def test_unparsable_metrics_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", str(bad)])
        assert excinfo.value.code == 2


class TestValidationFailure:
    def test_summary_validate_fails_below_bar(self, tmp_path, capsys):
        from repro.obs.export import TraceDump
        from repro.simcore.tracing import Span

        # One root and many orphans: parentage far below 95 %.
        spans = [Span("root", 0.0, 1.0, {}, "t1", 1, None)] + [
            Span(f"orphan{i}", 0.0, 1.0, {}, "t1", 100 + i, 99)
            for i in range(9)
        ]
        path = write_jsonl(TraceDump(spans=spans), tmp_path / "broken.jsonl")
        assert main(["summary", str(path), "--validate"]) == 1
        assert "below the 95% bar" in capsys.readouterr().err
