"""Smoke tests: every example script runs cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "example produced no output"


def test_quickstart_exports_profile(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    script = root / "examples" / "quickstart.py"
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr

    profile_path = root / "results" / "quickstart_profile.json"
    collapsed_path = root / "results" / "quickstart_profile.collapsed"
    assert profile_path.is_file()
    assert collapsed_path.is_file()

    import json

    payload = json.loads(profile_path.read_text())
    assert payload["format"] == "repro.prof/1"
    assert payload["paths"], "profile has no span paths"
    assert any(
        path.endswith("gram.submit") or "gram.submit" in path
        for path in payload["paths"]
    )

    lines = collapsed_path.read_text().splitlines()
    assert lines, "collapsed export is empty"
    for line in lines:
        path, _, value = line.rpartition(" ")
        assert path, line
        assert value.isdigit(), line


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3


def test_cli_runner_subset():
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "fig3"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=pathlib.Path(__file__).resolve().parent.parent,
    )
    assert result.returncode == 0, result.stderr
    assert "initgroups" in result.stdout


def test_cli_runner_rejects_unknown():
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "nonesuch"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: unknown artifacts ['nonesuch']")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_cli_runner_help_lists_every_artifact(flag):
    from repro.experiments.__main__ import _artifacts

    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", flag],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage: python -m repro.experiments")
    names = list(_artifacts())
    assert len(names) == 12
    assert all(name in lines[0] for name in names)
