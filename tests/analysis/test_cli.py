"""End-to-end CLI runs: the repaired tree is clean, violations exit 1."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
        "rsl-unknown-attribute", "perf-no-slots",
    ):
        assert rule in out


def test_list_rules_json(capsys):
    assert main(["--list-rules", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    by_name = {entry["name"]: entry for entry in payload["checkers"]}
    assert "perf" in by_name
    perf_ids = {rule["id"] for rule in by_name["perf"]["rules"]}
    assert "perf-list-pop0" in perf_ids
    for entry in by_name.values():
        for rule in entry["rules"]:
            assert rule["severity"] in ("error", "warning")
            assert rule["summary"]


def test_select_accepts_globs(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import random\n\n"
        "def hot(queue):  # repro: hotpath\n"
        "    queue.pop(0)\n"
    )
    assert main([str(bad), "--select", "perf-*"]) == 1
    assert main([str(bad), "--select", "det-*"]) == 1
    assert main([str(bad), "--select", "sm-*"]) == 0
    # Globs compose with plain selectors in one token list.
    assert main([str(bad), "--select", "sm,perf-*"]) == 1


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


def test_select_rejects_unmatched_glob():
    proc = run_cli("src", "--select", "bogus-*")
    assert proc.returncode == 2
    assert "bogus-*" in proc.stderr


def test_perf_family_clean_on_kernel_tree():
    # The CI perf-lint step: the fixed kernel has zero unsuppressed
    # perf findings.
    proc = run_cli(
        "--select", "perf-*",
        str(REPO_ROOT / "src" / "repro" / "simcore"),
        str(REPO_ROOT / "src" / "repro" / "net"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_main_inprocess_clean_on_examples(capsys):
    """The rsl family also holds on examples/ (CI runs this)."""
    assert main([str(REPO_ROOT / "examples"), "--select", "rsl"]) == 0


def test_mem_family_clean_on_src_tree():
    # The CI mem-lint step: every true positive in the shipped tree is
    # fixed or carries an audited suppression.
    proc = run_cli("--select", "mem-*", str(REPO_ROOT / "src" / "repro"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


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
    assert "mem-grow-only-attr" in rule_ids
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


def test_stats_appended_to_text_output(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    proc = run_cli(str(bad), "--stats")
    assert proc.returncode == 1
    assert "-- analysis stats --" in proc.stdout
    assert "per-checker:" in proc.stdout
    assert "det-stdlib-random" in proc.stdout.split("-- analysis stats --")[1]


def test_stats_embedded_in_json(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    proc = run_cli(str(bad), "--format", "json", "--stats")
    payload = json.loads(proc.stdout)
    stats = payload["stats"]
    assert stats["rule_counts"] == {"det-stdlib-random": 1}
    assert "determinism" in stats["checker_seconds"]
    assert str(bad) in stats["file_seconds"]


def _git(cwd: Path, *argv: str) -> None:
    subprocess.run(
        ["git", *argv], cwd=cwd, check=True, capture_output=True,
        env={**os.environ,
             "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
             "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
    )


def test_changed_only_filters_to_changed_and_untracked(tmp_path):
    _git(tmp_path, "init", "-q")
    committed = tmp_path / "committed.py"
    committed.write_text("import random\n")  # dirty, but unchanged
    tracked = tmp_path / "tracked.py"
    tracked.write_text("VALUE = 1\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    tracked.write_text("import time\nwall = time.time()\n")  # changed
    fresh = tmp_path / "fresh.py"
    fresh.write_text("import random\n")  # untracked
    proc = run_cli(".", "--changed-only=HEAD", "--format", "json",
                   cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["files_checked"] == 2
    rules = sorted(f["rule"] for f in payload["findings"])
    # committed.py's violation is skipped: it did not change.
    assert rules == ["det-stdlib-random", "det-wallclock"]


def test_changed_only_with_no_changes_is_clean(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "steady.py").write_text("import random\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    proc = run_cli(".", "--changed-only=HEAD", cwd=tmp_path)
    assert proc.returncode == 0
    assert "0 file(s)" in proc.stdout


def test_changed_only_bad_ref_is_a_usage_error(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("VALUE = 1\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    proc = run_cli(".", "--changed-only=no-such-ref", cwd=tmp_path)
    assert proc.returncode == 2
    assert "--changed-only" in proc.stderr
