"""The ``perf-*`` family: per-rule fixtures and hot-path scoping."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.framework import Analyzer
from repro.analysis.perf_rules import HOT_PATHS, PerfChecker, hot_roots

from .conftest import rules_of

FIXTURES = Path(__file__).parent / "fixtures" / "perf"

#: fixture file -> (expected {rule: count}, expected suppressed count).
#: Every rule has at least one positive (the pre-fix proof), at least
#: one negative baked into the same file, and one noqa'd occurrence.
FIXTURE_EXPECT = {
    "no_slots.py": ({"perf-no-slots": 2}, 1),
    "list_pop0.py": ({"perf-list-pop0": 2}, 1),
    "alloc_in_loop.py": ({"perf-alloc-in-loop": 3}, 1),
    "attr_in_loop.py": ({"perf-attr-in-loop": 1}, 1),
    "str_concat_loop.py": ({"perf-str-concat-loop": 2}, 1),
    "linear_membership.py": ({"perf-linear-membership": 2}, 1),
    "try_in_loop.py": ({"perf-try-in-loop": 1}, 1),
    "datetime_wallclock.py": ({"perf-datetime-wallclock": 2}, 1),
    "cold.py": ({}, 0),
}


def run_fixture(name: str):
    return Analyzer([PerfChecker()]).run([str(FIXTURES / name)])


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
    assert covered == {rule.id for rule in PerfChecker.rules}


def test_fixture_noqa_ids_are_all_known():
    # A typo'd suppression in a fixture would silently change counts;
    # the framework's own warning rule keeps them honest.
    for name in sorted(FIXTURE_EXPECT):
        report = run_fixture(name)
        assert "noqa-unknown-rule" not in rules_of(report.findings), name


# -- hot-path registry scoping ----------------------------------------------

TRY_IN_STEP = """
    class Environment:
        def step(self):
            while True:
                try:
                    self._pop()
                except IndexError:
                    break

        def configure(self):
            while True:
                try:
                    self._pop()
                except IndexError:
                    break
"""


def test_registered_qualname_scopes_rules(run_checker):
    findings = run_checker(
        PerfChecker(), TRY_IN_STEP, filename="repro/simcore/environment.py"
    )
    # Environment.step is registered hot; Environment.configure is not.
    assert [f.rule for f in findings] == ["perf-try-in-loop"]
    assert all("step" not in f.message for f in findings)
    assert findings[0].line == 5  # the try inside step()


def test_unregistered_path_is_silent(run_checker):
    findings = run_checker(
        PerfChecker(), TRY_IN_STEP, filename="repro/gram/manager.py"
    )
    assert findings == []


def test_whole_module_registration(run_checker):
    source = """
        def helper(queue):
            queue.pop(0)
    """
    findings = run_checker(
        PerfChecker(), source, filename="repro/simcore/events.py"
    )
    assert [f.rule for f in findings] == ["perf-list-pop0"]


def test_marker_on_def_line_opts_in(run_checker):
    source = """
        def helper(queue):  # repro: hotpath
            queue.pop(0)
    """
    findings = run_checker(PerfChecker(), source, filename="cold/module.py")
    assert [f.rule for f in findings] == ["perf-list-pop0"]


def test_marker_on_line_above_opts_in(run_checker):
    source = """
        # repro: hotpath
        def helper(queue):
            queue.pop(0)
    """
    findings = run_checker(PerfChecker(), source, filename="cold/module.py")
    assert [f.rule for f in findings] == ["perf-list-pop0"]


def test_marker_scopes_to_the_marked_def(run_checker):
    source = """
        def hot(queue):  # repro: hotpath
            queue.pop(0)

        def cold(queue):
            queue.pop(0)
    """
    findings = run_checker(PerfChecker(), source, filename="cold/module.py")
    assert len(findings) == 1
    assert findings[0].line == 3  # the pop(0) inside hot()


def test_marked_nested_def_inside_cold_function(run_checker):
    source = """
        def outer(queue):
            def inner(queue):  # repro: hotpath
                queue.pop(0)
            queue.pop(0)
    """
    findings = run_checker(PerfChecker(), source, filename="cold/module.py")
    assert len(findings) == 1
    assert findings[0].line == 4  # the pop(0) inside inner()


def test_registry_covers_the_kernel_modules():
    # The registry is the contract the CI perf-lint step relies on:
    # the dispatch loop, the event primitives, and message delivery.
    for suffix in (
        "repro/simcore/environment.py",
        "repro/simcore/events.py",
        "repro/net/message.py",
        "repro/net/network.py",
        "repro/simcore/metrics.py",
    ):
        assert suffix in HOT_PATHS


def test_bound_metric_series_must_be_slotted(run_checker):
    # A traced run writes four bound series per message: the registered
    # classes of metrics.py are held to __slots__ by name, the cold
    # instruments beside them are not.
    source = """
        class Counter:
            def bind(self):
                return BoundCounter()

        class BoundCounter:
            def inc(self):
                pass

        class BoundedThing:
            pass
    """
    findings = run_checker(
        PerfChecker(), source, filename="repro/simcore/metrics.py"
    )
    assert [(f.rule, f.line) for f in findings] == [("perf-no-slots", 6)]


def test_hot_roots_whole_module(run_checker, tmp_path, write_file):
    path = write_file("repro/simcore/events.py", "x = 1\n")
    analyzer = Analyzer([PerfChecker()])
    module = analyzer.parse(path)
    assert hot_roots(module) == [module.tree]
