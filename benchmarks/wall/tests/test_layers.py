"""The layer fold on a synthetic pstats table."""

import os

import repro
from repro.prof.collapse import parse_collapsed

from benchmarks.wall import layers

REPRO = os.path.dirname(repro.__file__)
BENCH = os.path.dirname(layers.__file__)


def row(calls, tottime):
    return (calls, calls, tottime, tottime * 2, {})


TABLE = {
    (os.path.join(REPRO, "simcore", "environment.py"), 206, "step"): row(10, 0.5),
    (os.path.join(REPRO, "simcore", "events.py"), 40, "__init__"): row(7, 0.25),
    (os.path.join(REPRO, "net", "network.py"), 249, "send"): row(4, 0.125),
    (os.path.join(REPRO, "gridenv.py"), 300, "build"): row(1, 0.0625),
    (os.path.join(BENCH, "workloads.py"), 120, "agent"): row(3, 0.03125),
    ("/usr/lib/python3/heapq.py", 1, "heappush"): row(5, 0.015625),
    ("~", 0, "<built-in method builtins.len>"): row(9, 0.0078125),
    ("<string>", 2, "__init__"): row(2, 0.00390625),
}


def test_files_map_to_layers():
    assert layers.layer_of(os.path.join(REPRO, "core", "barrier.py")) == "core"
    assert layers.layer_of(os.path.join(REPRO, "experiments", "apps.py")) == "repro_other"
    assert layers.layer_of(os.path.join(REPRO, "errors.py")) == "repro_other"
    assert layers.layer_of(os.path.join(BENCH, "harness.py")) == "bench"
    assert layers.layer_of("/somewhere/else.py") == "python"
    assert layers.layer_of("~") == "python"


def test_fold_conserves_self_time_and_calls():
    folded = layers.fold(TABLE)
    assert set(folded) == set(layers.LAYERS)
    total = sum(r[2] for r in TABLE.values())
    assert folded["simcore"] == {"self_s": 0.75, "calls": 17, "self_frac": 0.75 / total}
    assert folded["net"]["self_s"] == 0.125
    assert folded["repro_other"]["self_s"] == 0.0625
    assert folded["bench"]["calls"] == 3
    assert folded["python"]["calls"] == 16
    assert folded["gram"] == {"self_s": 0.0, "calls": 0, "self_frac": 0.0}
    assert sum(r["self_s"] for r in folded.values()) == total
    assert sum(r["self_frac"] for r in folded.values()) == 1.0
    assert sum(r["calls"] for r in folded.values()) == sum(r[1] for r in TABLE.values())


def test_collapsed_is_sorted_flamegraph_text():
    text = layers.collapsed(TABLE)
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert "simcore;environment.step 500000" in lines
    assert "python;~.<built-in_method_builtins.len> 7812" in lines
    parsed = parse_collapsed(text)
    total_us = sum(r[2] for r in TABLE.values()) * 1e6
    assert abs(sum(parsed.values()) - total_us) <= len(parsed)


def test_named_counts_read_real_code_objects():
    from repro.simcore.environment import Environment

    code = Environment.step.__code__
    table = {(code.co_filename, code.co_firstlineno, code.co_name): row(42, 1.0)}
    counts = layers.named_counts(table)
    assert counts["simcore.events_processed"] == 42
    assert counts["net.messages_sent"] == 0
    assert set(counts) == set(layers.COUNTED)


def test_a_name_that_is_gone_counts_zero():
    assert layers.calls_of(TABLE, ["repro.simcore.resources:Store.no_such"]) == 0
    assert layers.calls_of(TABLE, ["repro.no_such_module:f"]) == 0
