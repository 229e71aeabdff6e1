"""Every ``python -m repro.obs`` subcommand fails loudly but cleanly.

Missing, malformed, or truncated input files must produce a one-line
usage error and exit status 2 — never a traceback.  argparse's
``parser.error`` raises ``SystemExit(2)``, so each case asserts on
the ``SystemExit`` code and on stderr carrying a single error line.
"""

import json

import pytest

from repro.obs.cli import main
from repro.obs.export import TraceDump, write_jsonl
from repro.obs.flightrec import FlightRecorder, dump_json
from repro.simcore.tracing import Span

TRACE_COMMANDS = ("timeline", "tree", "critical-path", "summary")


def _exit_code(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


def _flight_dump_dict():
    recorder = FlightRecorder()
    recorder.event("unit", "fault.apply", {"fault": "HostCrash"})
    return recorder.dumps[0]


class TestMissingFiles:
    @pytest.mark.parametrize("command", TRACE_COMMANDS)
    def test_trace_commands(self, command, tmp_path, capsys):
        code = _exit_code([command, str(tmp_path / "absent.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "no such file" in err
        assert "Traceback" not in err

    def test_metrics(self, tmp_path, capsys):
        assert _exit_code(["metrics", str(tmp_path / "absent.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_blackbox(self, tmp_path, capsys):
        assert _exit_code(["blackbox", str(tmp_path / "absent.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_blackbox_diff_other(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(dump_json(_flight_dump_dict()))
        code = _exit_code(
            ["blackbox", str(good), "--diff", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_directory_is_not_a_file(self, tmp_path, capsys):
        assert _exit_code(["timeline", str(tmp_path)]) == 2
        assert "no such file" in capsys.readouterr().err


class TestMalformedFiles:
    @pytest.mark.parametrize("command", TRACE_COMMANDS)
    def test_unparsable_jsonl(self, command, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"record": "span", "name":\n')
        code = _exit_code([command, str(trace)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", TRACE_COMMANDS)
    def test_non_object_line(self, command, tmp_path, capsys):
        trace = tmp_path / "scalar.jsonl"
        trace.write_text("42\n")
        assert _exit_code([command, str(trace)]) == 2
        assert "expected an object" in capsys.readouterr().err

    def test_truncated_span_record(self, tmp_path, capsys):
        trace = tmp_path / "truncated.jsonl"
        trace.write_text('{"record": "span", "name": "orphan"}\n')
        assert _exit_code(["timeline", str(trace)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_unknown_record_kind(self, tmp_path, capsys):
        trace = tmp_path / "unknown.jsonl"
        trace.write_text('{"record": "mystery"}\n')
        assert _exit_code(["summary", str(trace)]) == 2
        assert "unknown record type" in capsys.readouterr().err

    def test_metrics_unparsable(self, tmp_path, capsys):
        snapshot = tmp_path / "bad.json"
        snapshot.write_text("{not json")
        assert _exit_code(["metrics", str(snapshot)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            "[1, 2, 3]",
            '{"metrics": "nope"}',
            '{"metrics": {"x": 5}}',
            '{"metrics": {"x": {"type": "counter", "values": 5}}}',
            '{"metrics": {"h": {"type": "histogram", "values": [{"count": "a"}]}}}',
        ],
    )
    def test_metrics_wrong_shape(self, payload, tmp_path, capsys):
        snapshot = tmp_path / "shape.json"
        snapshot.write_text(payload)
        assert _exit_code(["metrics", str(snapshot)]) == 2
        assert "not a metrics snapshot" in capsys.readouterr().err


class TestMalformedFlightDumps:
    def _write(self, tmp_path, payload):
        path = tmp_path / "dump.json"
        path.write_text(payload)
        return str(path)

    def test_unparsable(self, tmp_path, capsys):
        path = self._write(tmp_path, "{truncated")
        assert _exit_code(["blackbox", path]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err
        assert "Traceback" not in err

    def test_non_object(self, tmp_path, capsys):
        path = self._write(tmp_path, "[]")
        assert _exit_code(["blackbox", path]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_wrong_format_tag(self, tmp_path, capsys):
        dump = _flight_dump_dict()
        dump["format"] = "not/a/flight/dump"
        path = self._write(tmp_path, json.dumps(dump))
        assert _exit_code(["blackbox", path]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_missing_trigger(self, tmp_path, capsys):
        dump = _flight_dump_dict()
        del dump["trigger"]
        path = self._write(tmp_path, json.dumps(dump))
        assert _exit_code(["blackbox", path]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_missing_records(self, tmp_path, capsys):
        dump = _flight_dump_dict()
        del dump["records"]
        path = self._write(tmp_path, json.dumps(dump))
        assert _exit_code(["blackbox", path]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_missing_category_list(self, tmp_path, capsys):
        dump = _flight_dump_dict()
        del dump["records"]["message"]
        path = self._write(tmp_path, json.dumps(dump))
        assert _exit_code(["blackbox", path]) == 2
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, extra",
        [
            (lambda dump: dump.update(trigger={}), []),
            (lambda dump: dump.update(trigger={}), ["--window", "1"]),
            (lambda dump: dump["records"].update(kernel=[1]), []),
            (lambda dump: dump["records"].update(kernel=[{"op": "step"}]), []),
            (lambda dump: dump.update(counts=[]), []),
            (lambda dump: dump["counts"].update(kernel=5), []),
        ],
        ids=[
            "empty-trigger", "empty-trigger-window", "scalar-record", "record-without-seq",
            "counts-list", "scalar-count",
        ],
    )
    def test_malformed_content(self, tmp_path, capsys, damage, extra):
        dump = _flight_dump_dict()
        damage(dump)
        path = self._write(tmp_path, json.dumps(dump))
        assert _exit_code(["blackbox", path, *extra]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "malformed flight dump" in errors[0], err
        assert "Traceback" not in err

    def test_truncated_bytes(self, tmp_path, capsys):
        text = dump_json(_flight_dump_dict())
        path = self._write(tmp_path, text[: len(text) // 2])
        assert _exit_code(["blackbox", path]) == 2
        assert "cannot load" in capsys.readouterr().err


class TestLayoutNumbers:
    """Chart sizes are counts: one below the option's floor is a usage
    error, checked before the trace is read."""

    @pytest.fixture
    def trace(self, tmp_path):
        spans = [
            Span("root", 0.0, 10.0, {}, "t1", 1, None),
            Span("work", 2.0, 8.0, {}, "t1", 2, 1),
        ]
        return str(write_jsonl(TraceDump(spans=spans), tmp_path / "trace.jsonl"))

    @pytest.mark.parametrize(
        "option, value",
        [("--width", "-5"), ("--width", "0"), ("--max-rows", "-1")],
    )
    def test_below_the_floor_is_one_error_line(self, trace, capsys, option, value):
        assert _exit_code(["timeline", trace, option, value]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and option in errors[0]
        assert "Traceback" not in err

    def test_zero_max_rows_never_collapses(self, trace, capsys):
        assert main(["timeline", trace, "--max-rows", "0", "--width", "1"]) == 0
        out = capsys.readouterr().out
        assert "root" in out and "work" in out


class TestWellFormedStillWork:
    """Guard the hardening: valid inputs keep succeeding."""

    def test_blackbox_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "dump.json"
        path.write_text(dump_json(_flight_dump_dict()))
        assert main(["blackbox", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fault.apply:HostCrash" in out

    def test_blackbox_self_diff(self, tmp_path, capsys):
        path = tmp_path / "dump.json"
        path.write_text(dump_json(_flight_dump_dict()))
        assert main(["blackbox", str(path), "--diff", str(path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_metrics_empty_snapshot_exits_one(self, tmp_path):
        snapshot = tmp_path / "empty.json"
        snapshot.write_text('{"metrics": {}}')
        assert main(["metrics", str(snapshot)]) == 1


class TestSubcommandPrefix:
    """An error found after parsing carries the subcommand's own usage
    line and prefix, not the root parser's."""

    @pytest.mark.parametrize(
        "command", TRACE_COMMANDS + ("metrics", "blackbox")
    )
    def test_missing_file(self, command, tmp_path, capsys):
        assert _exit_code([command, str(tmp_path / "absent.jsonl")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: python -m repro.obs {command} "), err
        assert err[-1].startswith(f"python -m repro.obs {command}: error: "), err


class TestBlackboxWindow:
    """``--window`` is a finite, non-negative number of simulated seconds:
    NaN and ±inf would switch the filter off, a negative one empties it."""

    @pytest.fixture
    def dump(self, tmp_path):
        path = tmp_path / "dump.json"
        path.write_text(dump_json(_flight_dump_dict()))
        return str(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-5", "soon"])
    def test_bad_window_is_one_error_line(self, dump, capsys, value):
        assert _exit_code(["blackbox", dump, f"--window={value}"]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--window" in errors[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "2.5"])
    def test_finite_window_still_filters(self, dump, capsys, value):
        assert main(["blackbox", dump, "--window", value]) == 0
        assert "fault.apply:HostCrash" in capsys.readouterr().out
