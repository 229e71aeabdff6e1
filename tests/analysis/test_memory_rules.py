"""The ``mem-*`` family: per-rule fixtures and long-lived scoping."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.framework import Analyzer
from repro.analysis.memory_rules import (
    LONG_LIVED,
    MemoryChecker,
    long_lived_roots,
)

from .conftest import rules_of

FIXTURES = Path(__file__).parent / "fixtures" / "mem"

#: fixture file -> (expected {rule: count}, expected suppressed count).
#: Every rule has at least one positive (the pre-fix proof), at least
#: one negative baked into the same file, and one noqa'd occurrence.
FIXTURE_EXPECT = {
    "grow_only_attr.py": ({"mem-grow-only-attr": 2}, 1),
    "module_cache.py": ({"mem-module-cache": 1}, 1),
    "unpaired_register.py": ({"mem-unpaired-register": 2}, 1),
    "unbounded_memo.py": ({"mem-unbounded-memo": 2}, 1),
    "defaultdict_attr.py": ({"mem-defaultdict-attr": 1}, 1),
    "mutable_default.py": ({"mem-mutable-default": 2}, 1),
    "instance_registry.py": ({"mem-instance-registry": 1}, 1),
    "cold.py": ({}, 0),
}


def run_fixture(name: str):
    return Analyzer([MemoryChecker()]).run([str(FIXTURES / name)])


@pytest.mark.parametrize("name", sorted(FIXTURE_EXPECT))
def test_fixture_findings(name):
    expected, suppressed = FIXTURE_EXPECT[name]
    report = run_fixture(name)
    got: dict[str, int] = {}
    for finding in report.findings:
        got[finding.rule] = got.get(finding.rule, 0) + 1
    assert got == expected, [f"{f.line}: {f.rule}" for f in report.findings]
    assert report.suppressed == suppressed


def test_every_rule_has_a_positive_fixture():
    covered = set()
    for name in FIXTURE_EXPECT:
        covered.update(FIXTURE_EXPECT[name][0])
    assert covered == {rule.id for rule in MemoryChecker.rules}


def test_fixture_noqa_ids_are_all_known():
    # A typo'd suppression in a fixture would silently change counts;
    # the framework's own warning rule keeps them honest.
    for name in sorted(FIXTURE_EXPECT):
        report = run_fixture(name)
        assert "noqa-unknown-rule" not in rules_of(report.findings), name


# -- long-lived registry scoping ---------------------------------------------

GROW_ONLY = """
    class Table:
        def __init__(self):
            self.entries = {}

        def put(self, key, value):
            self.entries[key] = value
"""


def test_registered_module_is_scoped(run_checker):
    findings = run_checker(
        MemoryChecker(), GROW_ONLY, filename="repro/gram/gatekeeper.py"
    )
    assert [f.rule for f in findings] == ["mem-grow-only-attr"]


def test_unregistered_path_is_silent(run_checker):
    findings = run_checker(
        MemoryChecker(), GROW_ONLY, filename="repro/app/worker.py"
    )
    assert findings == []


METRICS_PAIR = """
    class MetricsRegistry:
        def __init__(self):
            self._instruments = {}

        def get(self, name):
            self._instruments[name] = name

    class Sidecar:
        def __init__(self):
            self._extras = {}

        def get(self, name):
            self._extras[name] = name
"""


def test_registered_qualname_scopes_rules(run_checker):
    # metrics.py registers only MetricsRegistry, not the whole module.
    findings = run_checker(
        MemoryChecker(), METRICS_PAIR, filename="repro/simcore/metrics.py"
    )
    assert [f.rule for f in findings] == ["mem-grow-only-attr"]
    assert all("_instruments" in f.message for f in findings)


def test_marker_opts_a_class_in(run_checker):
    source = """
        class Table:  # repro: longlived
            def __init__(self):
                self.entries = {}

            def put(self, key, value):
                self.entries[key] = value
    """
    findings = run_checker(MemoryChecker(), source, filename="cold/module.py")
    assert [f.rule for f in findings] == ["mem-grow-only-attr"]


def test_marker_on_line_above_opts_in(run_checker):
    source = """
        # repro: longlived
        class Table:
            def __init__(self):
                self.entries = {}

            def put(self, key, value):
                self.entries[key] = value
    """
    findings = run_checker(MemoryChecker(), source, filename="cold/module.py")
    assert [f.rule for f in findings] == ["mem-grow-only-attr"]


def test_registry_paths_exist():
    # A registry entry whose file was moved or renamed scopes nothing;
    # pin each suffix to a real file under src/.
    src = Path(__file__).resolve().parents[2] / "src"
    for suffix in LONG_LIVED:
        assert (src / suffix).is_file(), f"LONG_LIVED names missing {suffix}"


def test_long_lived_roots_whole_module(write_file):
    import ast

    from repro.analysis.framework import Module

    path = write_file(
        "repro/net/network.py", "class Network:\n    pass\n"
    )
    source = path.read_text()
    module = Module(
        path=str(path), tree=ast.parse(source), source=source
    )
    roots = long_lived_roots(module)
    assert len(roots) == 1 and isinstance(roots[0], ast.Module)


# -- dataflow details ---------------------------------------------------------


def test_tuple_unpack_reset_counts_as_shrink(run_checker):
    # waiters, self._waiters = self._waiters, [] resets the attribute;
    # the DurocJob._kick idiom must not be flagged.
    source = """
        class Job:  # repro: longlived
            def __init__(self):
                self._waiters = []

            def wait(self, evt):
                self._waiters.append(evt)

            def kick(self):
                waiters, self._waiters = self._waiters, []
                return waiters
    """
    assert run_checker(MemoryChecker(), source) == []


def test_nested_subscript_resolves_to_base_attr(run_checker):
    source = """
        class Paths:  # repro: longlived
            def __init__(self):
                self._paths = {}

            def put(self, tid, sid, value):
                self._paths[tid][sid] = value
    """
    findings = run_checker(MemoryChecker(), source)
    assert [f.rule for f in findings] == ["mem-grow-only-attr"]
    assert "_paths" in findings[0].message


def test_deque_maxlen_is_bounded(run_checker):
    source = """
        from collections import deque

        class Log:  # repro: longlived
            def __init__(self):
                self.lines = deque(maxlen=4096)

            def note(self, line):
                self.lines.append(line)
    """
    assert run_checker(MemoryChecker(), source) == []


def test_deque_maxlen_none_is_not_bounded(run_checker):
    source = """
        from collections import deque

        class Log:  # repro: longlived
            def __init__(self):
                self.lines = deque(maxlen=None)

            def note(self, line):
                self.lines.append(line)
    """
    findings = run_checker(MemoryChecker(), source)
    assert [f.rule for f in findings] == ["mem-grow-only-attr"]


def test_grows_in_init_are_construction(run_checker):
    source = """
        class Config:  # repro: longlived
            def __init__(self, defaults):
                self.values = {}
                self.values.update(defaults)
    """
    assert run_checker(MemoryChecker(), source) == []


def test_src_tree_is_mem_clean():
    # The shipped tree must stay clean under its own lint: every true
    # positive has been fixed or carries an audited suppression.
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    # select averts noqa-unknown-rule chatter about other families'
    # suppressions, which this single-checker analyzer cannot resolve.
    report = Analyzer([MemoryChecker()], select=["mem-*"]).run([str(src)])
    assert report.findings == [], [
        f"{f.location()}: {f.rule}" for f in report.findings
    ]
