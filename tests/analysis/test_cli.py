"""End-to-end CLI runs: the repaired tree is clean, violations exit 1."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*argv: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_repaired_source_tree_is_clean():
    proc = run_cli(str(REPO_ROOT / "src" / "repro"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_violation_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    proc = run_cli(str(bad))
    assert proc.returncode == 1
    assert "det-stdlib-random" in proc.stdout


def test_json_format_parses(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nwall = time.time()\n")
    proc = run_cli(str(bad), "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["det-wallclock"]


def test_select_filters_rules(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        textwrap.dedent(
            """
            import random

            SPEC = "&(cuont=4)"
            """
        )
    )
    # Full run sees both families; rsl-only run sees one.
    assert main([str(bad)]) == 1
    assert main([str(bad), "--select", "rsl"]) == 1
    assert main([str(bad), "--select", "sm,cb"]) == 0


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "det-wallclock", "sm-illegal-transition", "cb-blocking",
        "rsl-unknown-attribute", "res-bare-except",
    ):
        assert rule in out


def test_list_rules_json(capsys):
    assert main(["--list-rules", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    by_name = {entry["name"]: entry for entry in payload["checkers"]}
    assert sorted(by_name) == [
        "callback-safety", "determinism", "resilience", "rsl-schema",
        "state-machine",
    ]
    res_ids = {rule["id"] for rule in by_name["resilience"]["rules"]}
    assert "res-literal-seed" in res_ids
    for entry in by_name.values():
        for rule in entry["rules"]:
            assert rule["severity"] in ("error", "warning")
            assert rule["summary"]


def test_select_is_repeatable(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n\nSPEC = \"&(cuont=4)\"\n")
    # Both families survive two --select flags (append, not last-wins).
    proc = run_cli(str(bad), "--select", "det", "--select", "rsl",
                   "--format", "json")
    payload = json.loads(proc.stdout)
    assert {f["rule"] for f in payload["findings"]} == {
        "det-stdlib-random", "rsl-unknown-attribute",
    }


def test_a_path_that_does_not_exist_is_a_usage_error(tmp_path):
    clean = tmp_path / "ok.py"
    clean.write_text("VALUE = 1\n")
    for missing in (tmp_path / "no-such-dir", tmp_path / "missing.py"):
        # Even next to a path that does hold a clean file.
        proc = run_cli(str(clean), str(missing))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {missing}: no such file or directory\n"


def test_a_path_with_no_python_file_is_a_usage_error(tmp_path):
    (tmp_path / "notes.txt").write_text("import random\n")
    for empty in (tmp_path, tmp_path / "notes.txt"):
        proc = run_cli(str(empty))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {empty}: no Python file to analyze\n"
    # The in-process entry point says the same.
    assert main([str(tmp_path)]) == 2


def test_unknown_select_and_retired_flags_are_usage_errors(tmp_path, capsys):
    clean = tmp_path / "ok.py"
    clean.write_text("VALUE = 1\n")
    # A selector is a rule id, family or checker name: a glob is not.
    for argv in (["--select", "det-*"], ["--stats"], ["--changed-only"]):
        with pytest.raises(SystemExit) as exited:
            main([str(clean), *argv])
        assert exited.value.code == 2, argv
    assert "det-*" in capsys.readouterr().err


def test_main_inprocess_clean_on_examples(capsys):
    """Every family also holds on examples/ (CI lints them with src/)."""
    assert main([str(REPO_ROOT / "examples")]) == 0


def test_sarif_format_is_valid_and_carries_rules(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    proc = run_cli(str(bad), "--format", "sarif")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.analysis"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "det-stdlib-random" in rule_ids
    assert "sm-illegal-transition" in rule_ids
    results = run["results"]
    assert [r["ruleId"] for r in results] == ["det-stdlib-random"]
    result = results[0]
    assert result["level"] == "error"
    # ruleIndex must point back at the driver's metadata entry.
    rules = run["tool"]["driver"]["rules"]
    assert rules[result["ruleIndex"]]["id"] == "det-stdlib-random"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("bad.py")
    assert location["region"]["startLine"] == 1


def test_sarif_clean_run_has_empty_results(tmp_path):
    clean = tmp_path / "ok.py"
    clean.write_text("VALUE = 1\n")
    proc = run_cli(str(clean), "--format", "sarif")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["runs"][0]["results"] == []
