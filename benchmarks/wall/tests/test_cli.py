"""The command line: failing ops, --quick, and BENCHMARK.json in step."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.wall import cli
from benchmarks.wall.metrics import END_TO_END, PER_LAYER, PER_LAYER_NAMES
from benchmarks.wall.workloads import BY_NAME, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parents[3]
MAIN = ROOT / "benchmarks" / "wall" / "__main__.py"


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_a_failing_op_is_counted_and_fails_the_command(monkeypatch, tmp_path, capsys):
    real = BY_NAME["rpc_storm"]

    def drop_a_reply(world) -> Outcome:
        outcome = real.run(world)
        return dataclasses.replace(outcome, ops=outcome.ops[:-1])

    monkeypatch.setitem(
        BY_NAME, "rpc_storm", dataclasses.replace(real, run=drop_a_reply)
    )
    code = cli.run_pass("rpc_storm", seed=5, seconds=0, trace=0, quick=True, out=tmp_path)
    printed = capsys.readouterr().out
    result = last_json(printed)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1
    assert "rpc_storm failed_frac = " in printed
    detail = json.loads((tmp_path / "rpc_storm.trace0.json").read_text())
    assert detail["failed_frac"] > 0


def test_a_changed_simulation_is_not_correct(monkeypatch, tmp_path, capsys):
    real = BY_NAME["rpc_storm"]
    runs = []

    def drift(world) -> Outcome:
        runs.append(1)
        outcome = real.run(world)
        return dataclasses.replace(outcome, signature=(len(runs),))

    monkeypatch.setitem(BY_NAME, "rpc_storm", dataclasses.replace(real, run=drift))
    code = cli.run_pass("rpc_storm", seed=5, seconds=0, trace=1, quick=True, out=tmp_path)
    result = last_json(capsys.readouterr().out)
    assert code == 1 and result["failed"] == 0 and result["correct"] is False


def test_quick_suite_reports_exactly_the_declared_end_to_end_metrics(tmp_path):
    done = subprocess.run(
        [sys.executable, str(MAIN), "--quick", "--seed", "9", "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads((tmp_path / "result.json").read_text())
    assert document["seed"] == 9 and document["quick"] is True
    assert sorted(document["workloads"]) == sorted(w.name for w in WORKLOADS)
    for name, entry in document["workloads"].items():
        assert set(entry) == {"gated"}
        gated = entry["gated"]
        assert set(gated["end_to_end"]) == {m.name for m in END_TO_END}
        assert gated["failed_frac"] == 0 and gated["sim_digest_stable"] == 1
        assert len(gated["repeats"]) == 1
        assert f"{name}: " in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_quick_layer_pass_reports_exactly_the_declared_layer_metrics(
    workload, tmp_path, capsys
):
    code = cli.run_pass(workload.name, seed=9, seconds=0, trace=1, quick=True, out=tmp_path)
    result = last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == list(PER_LAYER_NAMES)
    units = {m.name: m.unit for m in PER_LAYER}
    assert all(entry["unit"] == units[name] for name, entry in result["metrics"].items())
    detail = json.loads((tmp_path / f"{workload.name}.trace1.json").read_text())
    layer_sum = sum(
        value for name, value in detail["per_layer"].items() if name.endswith(".self_s")
    )
    assert abs(layer_sum - detail["profile_total_s"]) <= 0.01 * detail["profile_total_s"]
    spans = json.loads((tmp_path / "trace" / f"{workload.name}.spans.json").read_text())
    names = {span["name"] for span in spans}
    assert {"workload", "repeat", "calibrate", "generate", "build", "run", "check"} <= names
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["name"] in ("generate", "build", "run", "check", "calibrate"):
            assert by_id[span["parent"]]["name"] == "repeat"
            assert by_id[span["parent"]]["repeat"] == span["repeat"]
    assert (tmp_path / "trace" / f"{workload.name}.collapsed.txt").read_text().strip()


def test_benchmark_json_restates_the_declared_tables():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["paths"] == ["benchmarks/wall"]
    assert declared["command"] == ["python3", "benchmarks/wall/__main__.py"]
    assert declared["run_seconds"] == cli.RUN_SECONDS
    assert declared["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert len(declared["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a tree holding only the benchmark there is nothing to measure."""
    import shutil

    bare = tmp_path / "benchmarks" / "wall"
    shutil.copytree(
        ROOT / "benchmarks" / "wall", bare,
        ignore=shutil.ignore_patterns("out", "__pycache__", "tests"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/wall/__main__.py", "--workload", "rpc_storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
