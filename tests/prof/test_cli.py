"""End-to-end tests for ``python -m repro.prof``."""

import json

import pytest

from repro.obs.export import TraceDump, write_jsonl, write_metrics
from repro.prof.cli import main
from repro.prof.profile import PathStats, Profile
from repro.simcore.tracing import Span


def span(name, start, end, sid, parent=None):
    return Span(name, start, end, {}, "t1", sid, parent)


@pytest.fixture
def trace_path(tmp_path):
    spans = [
        span("root", 0.0, 10.0, 1),
        span("work", 2.0, 8.0, 2, parent=1),
    ]
    return write_jsonl(TraceDump(spans=spans), tmp_path / "trace.jsonl")


def write_profile(path, values, counters=None):
    Profile(
        paths={
            p: PathStats(path=p, count=1, inclusive=v, exclusive=v)
            for p, v in values.items()
        },
        counters=counters,
    ).write(path)
    return path


class TestProfileCommand:
    def test_text_output_and_exports(self, trace_path, tmp_path, capsys):
        out = tmp_path / "p.json"
        collapsed = tmp_path / "p.collapsed"
        code = main([
            "profile", str(trace_path),
            "--out", str(out), "--collapsed", str(collapsed),
        ])
        assert code == 0
        assert "root;work" in capsys.readouterr().out
        assert Profile.load(out).paths["root"].exclusive == 4.0
        assert collapsed.read_text().splitlines()

    def test_json_output_is_canonical_profile(self, trace_path, capsys):
        assert main(["--format", "json", "profile", str(trace_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro.prof/1"

    def test_metrics_folded_into_counters(self, trace_path, tmp_path, capsys):
        snapshot = {
            "time": 10.0,
            "metrics": {
                "rpc.calls_total": {
                    "type": "counter",
                    "values": [{"labels": {}, "value": 4.0}],
                }
            },
        }
        metrics = write_metrics(snapshot, tmp_path / "metrics.json")
        code = main([
            "--format", "json", "profile", str(trace_path),
            "--metrics", str(metrics),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"] == {"rpc.round_trips": 4.0}

    def test_empty_trace_exits_one(self, tmp_path, capsys):
        path = write_jsonl(TraceDump(spans=[]), tmp_path / "empty.jsonl")
        assert main(["profile", str(path)]) == 1

    @pytest.mark.parametrize(
        "payload", ['{"metrics": 3}', "[1]"], ids=["int-metrics", "list-document"]
    )
    def test_malformed_metrics_is_one_error_line(
        self, trace_path, tmp_path, capsys, payload
    ):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(payload)
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", str(trace_path), "--metrics", str(metrics)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "not a metrics snapshot" in err
        assert "Traceback" not in err

    def test_missing_trace_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "no-such.jsonl"])
        assert excinfo.value.code == 2


def assert_one_error_line(capsys, naming):
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and naming in errors[0], err
    assert "Traceback" not in err


class TestProfileTop:
    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_top_below_one_is_usage_error(self, trace_path, capsys, top):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", str(trace_path), "--top", top])
        assert excinfo.value.code == 2
        assert_one_error_line(capsys, "--top")


class TestDiffCommand:
    def test_identical_profiles_exit_zero(self, tmp_path, capsys):
        a = write_profile(tmp_path / "a.json", {"x": 1.0})
        b = write_profile(tmp_path / "b.json", {"x": 1.0})
        assert main(["diff", str(a), str(b)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_regression_exits_one_naming_path(self, tmp_path, capsys):
        # The acceptance path: ≥10 % exclusive-time growth must flip the
        # exit status and name the regressed path in the report.
        a = write_profile(
            tmp_path / "a.json", {"duroc.request;duroc.submit;gram.submit": 1.0}
        )
        b = write_profile(
            tmp_path / "b.json", {"duroc.request;duroc.submit;gram.submit": 1.2}
        )
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "duroc.request;duroc.submit;gram.submit" in out

    def test_threshold_pct_loosens_the_gate(self, tmp_path):
        a = write_profile(tmp_path / "a.json", {"x": 1.0})
        b = write_profile(tmp_path / "b.json", {"x": 1.2})
        assert main(["diff", str(a), str(b), "--threshold-pct", "30"]) == 0

    def test_per_path_override(self, tmp_path):
        a = write_profile(tmp_path / "a.json", {"x": 1.0})
        b = write_profile(tmp_path / "b.json", {"x": 1.2})
        assert main(["diff", str(a), str(b), "--threshold", "x=50"]) == 0

    def test_bad_override_spec_is_usage_error(self, tmp_path):
        a = write_profile(tmp_path / "a.json", {"x": 1.0})
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", str(a), str(a), "--threshold", "nonsense"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--threshold-pct", "nan"),
            ("--threshold-pct", "inf"),
            ("--threshold-pct", "-1"),
            ("--threshold-abs", "nan"),
            ("--threshold-abs", "inf"),
            ("--threshold-abs", "-0.5"),
            ("--threshold", "x=nan"),
            ("--threshold", "x=inf"),
            ("--threshold", "x=-5"),
        ],
    )
    def test_uncomparable_threshold_is_usage_error(self, tmp_path, capsys, option, value):
        # A NaN threshold compares false against every growth, so the
        # gate would pass whatever regressed.
        a = write_profile(tmp_path / "a.json", {"x": 1.0})
        b = write_profile(tmp_path / "b.json", {"x": 2.0})
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", str(a), str(b), option, value])
        assert excinfo.value.code == 2
        assert_one_error_line(capsys, "--threshold")

    def test_json_diff_output(self, tmp_path, capsys):
        a = write_profile(tmp_path / "a.json", {"x": 1.0})
        b = write_profile(tmp_path / "b.json", {"x": 2.0})
        assert main(["--format", "json", "diff", str(a), str(b)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 1

    def test_unparsable_profile_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", str(bad), str(bad)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "text", ["[]", '{"format": "repro.prof/1", "paths": {"a": 3}}'],
        ids=["list-document", "int-path-entry"],
    )
    def test_malformed_profile_is_one_error_line(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", str(bad), str(bad)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: cannot parse {bad}: " in err
        assert "Traceback" not in err


class TestBenchCommand:
    def test_list_scenarios(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3_gram", "figure1", "duroc_scaling", "campaign_baseline"):
            assert name in out

    def test_missing_baseline_exits_one(self, tmp_path, capsys):
        code = main([
            "bench", "--scenario", "fig3_gram",
            "--baseline-dir", str(tmp_path / "nowhere"),
        ])
        assert code == 1
        assert "no baseline" in capsys.readouterr().out

    def test_update_then_gate_passes(self, tmp_path, capsys):
        baseline_dir = str(tmp_path / "baselines")
        assert main([
            "bench", "--update", "--scenario", "fig3_gram",
            "--baseline-dir", baseline_dir,
        ]) == 0
        assert main([
            "bench", "--scenario", "fig3_gram", "--baseline-dir", baseline_dir,
        ]) == 0
        assert "fig3_gram: ok" in capsys.readouterr().out

    def test_gate_fails_on_doctored_baseline(self, tmp_path, capsys):
        # Shrink one path in the baseline: the fresh run now reads as a
        # regression and the gate must name the path.
        baseline_dir = tmp_path / "baselines"
        main([
            "bench", "--update", "--scenario", "fig3_gram",
            "--baseline-dir", str(baseline_dir),
        ])
        capsys.readouterr()
        baseline_path = baseline_dir / "fig3_gram.json"
        payload = json.loads(baseline_path.read_text())
        payload["paths"]["gram.submit;gram.auth"]["exclusive"] *= 0.5
        baseline_path.write_text(json.dumps(payload))
        code = main([
            "bench", "--scenario", "fig3_gram", "--baseline-dir", str(baseline_dir),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "gram.submit;gram.auth" in out

    def test_out_dir(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        main([
            "bench", "--update", "--scenario", "fig3_gram",
            "--baseline-dir", str(baseline_dir),
        ])
        code = main([
            "bench", "--scenario", "fig3_gram",
            "--baseline-dir", str(baseline_dir),
            "--out-dir", str(tmp_path / "profiles"),
        ])
        assert code == 0
        assert (tmp_path / "profiles" / "fig3_gram.json").is_file()
        assert (tmp_path / "profiles" / "fig3_gram.collapsed").is_file()

    def test_corrupt_baseline_is_one_error_line_naming_it(self, tmp_path, capsys):
        baseline = tmp_path / "fig3_gram.json"
        baseline.write_text("[]")
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--scenario", "fig3_gram", "--baseline-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: cannot load baseline {baseline}: " in err
        assert "Traceback" not in err

    def test_nan_threshold_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "bench", "--scenario", "fig3_gram",
                "--baseline-dir", str(tmp_path), "--threshold-pct", "nan",
            ])
        assert excinfo.value.code == 2
        assert_one_error_line(capsys, "--threshold-pct")

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--scenario", "nonesuch"])
        assert excinfo.value.code == 2


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestSubcommandErrors:
    """An error a handler finds after parsing names its subcommand: the
    subcommand's usage line and prefix, not the root parser's."""

    @pytest.fixture
    def profiles(self, tmp_path):
        return (
            str(write_profile(tmp_path / "a.json", {"x": 1.0})),
            str(write_profile(tmp_path / "b.json", {"x": 2.0})),
        )

    def assert_subcommand_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.splitlines()
        command = argv[0]
        assert err[0].startswith(f"usage: python -m repro.prof {command} "), err
        assert err[-1].startswith(f"python -m repro.prof {command}: error: "), err

    @pytest.mark.parametrize("spec", ["x=nan", "nonsense"])
    def test_diff_bad_override(self, capsys, profiles, spec):
        self.assert_subcommand_error(capsys, ["diff", *profiles, "--threshold", spec])

    def test_diff_nan_threshold_pct(self, capsys, profiles):
        self.assert_subcommand_error(
            capsys, ["diff", *profiles, "--threshold-pct", "nan"]
        )

    def test_diff_missing_profile(self, capsys, profiles, tmp_path):
        self.assert_subcommand_error(
            capsys, ["diff", str(tmp_path / "missing.json"), profiles[1]]
        )

    def test_profile_missing_trace(self, capsys, tmp_path):
        self.assert_subcommand_error(capsys, ["profile", str(tmp_path / "missing.jsonl")])

    def test_profile_malformed_metrics(self, capsys, trace_path, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text("[1]")
        self.assert_subcommand_error(
            capsys, ["profile", str(trace_path), "--metrics", str(metrics)]
        )

    def test_bench_unknown_scenario(self, capsys):
        self.assert_subcommand_error(capsys, ["bench", "--scenario", "nonesuch"])
