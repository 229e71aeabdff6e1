"""`python -m repro.verify` surface: flags, exit codes, report files."""

from __future__ import annotations

import json

import pytest

from repro.verify.cli import main


def test_list_rules_names_every_family(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "hb-race",
        "tpc-release-before-commit",
        "tpc-atomic-orphan",
        "tpc-unanswered-checkin",
        "dl-clock-regression",
        "dl-barrier-abandoned",
    ):
        assert rule_id in out


def test_unknown_select_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "tcp-release"])
    assert excinfo.value.code == 2
    assert "tcp-release" in capsys.readouterr().err


def test_clean_baseline_exits_zero_and_writes_report(tmp_path, capsys):
    out_path = tmp_path / "reports" / "verify.json"
    code = main([
        "--campaign", "baseline", "--trials", "1",
        "--seed", "42", "--out", str(out_path),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "baseline/seed42" in text
    assert text.rstrip().endswith("0 finding(s) across 1 monitored run(s)")
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["findings_total"] == 0
    assert report["monitors"] == ["race", "tpc", "deadlock"]


def test_json_format_is_canonical(capsys):
    assert main([
        "--example", "quickstart", "--format", "json", "--trials", "1",
    ]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report["scenario"] == "quickstart"


def test_unknown_campaign_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--campaign", "meteor-strike"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "extra", [["--campaign", "crash"], ["--trials", "3"]], ids=["campaign", "trials"]
)
def test_example_takes_no_campaign_and_one_trial(extra, capsys):
    # The example is one run: a flag that selects more is refused, not dropped.
    with pytest.raises(SystemExit) as excinfo:
        main(["--example", "quickstart", *extra])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and extra[0] in errors[0]
