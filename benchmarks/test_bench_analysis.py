"""Benchmark: the perf-lint pass over its fixtures and the kernel.

Machine-independent checker op counts: the ``perf-*`` pass over its own
fixture corpus and the live kernel tree.  Its yield (findings per rule
pre-fix, zero unsuppressed findings post-fix) goes into the digest; the
size of what it read (files, AST nodes, hot roots) follows every edit
of the kernel, so it is asserted on and never written down.  The
compacting heap's claims (identical event counts, a bounded high-water
mark) are tier-1 tests in ``tests/simcore/test_environment.py``.

The digest is written to ``BENCH_6.json`` at the repo root for future
PRs to diff against.
"""

import ast
import json
import pathlib

from repro.analysis.framework import Analyzer, iter_python_files
from repro.analysis.perf_rules import PerfChecker, hot_roots

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "tests" / "analysis" / "fixtures" / "perf"
KERNEL_PATHS = [
    str(REPO_ROOT / "src" / "repro" / "simcore"),
    str(REPO_ROOT / "src" / "repro" / "net"),
]

SNAPSHOT_FORMAT = "repro.analysis.bench/1"


def _lint_op_counts() -> tuple[dict, dict]:
    """The perf-lint pass's yield, and the size of the tree it read."""
    analyzer = Analyzer([PerfChecker()])
    files = iter_python_files(KERNEL_PATHS)
    ast_nodes = 0
    hot_files = 0
    hot_root_count = 0
    for path in files:
        module = analyzer.parse(path)
        ast_nodes += sum(1 for _ in ast.walk(module.tree))
        roots = hot_roots(module)
        hot_root_count += len(roots)
        if roots:
            hot_files += 1

    kernel = analyzer.run(KERNEL_PATHS)
    # Only this pass's own rules: with PerfChecker alone loaded, the
    # tree's ``mem-*`` suppressions read as noqa-unknown-rule.
    perf_rules = {rule.id for rule in PerfChecker.rules}
    kernel_findings = [f for f in kernel.findings if f.rule in perf_rules]
    fixtures = Analyzer([PerfChecker()]).run([str(FIXTURE_DIR)])
    fixture_findings: dict[str, int] = {}
    for finding in fixtures.findings:
        fixture_findings[finding.rule] = fixture_findings.get(finding.rule, 0) + 1

    lint = {
        "kernel_findings_unsuppressed": len(kernel_findings),
        "kernel_suppressed": kernel.suppressed,
        "fixture_findings": dict(sorted(fixture_findings.items())),
    }
    size = {
        "files_checked": kernel.files_checked,
        "hot_files": hot_files,
        "hot_roots": hot_root_count,
        "ast_nodes": ast_nodes,
    }
    return lint, size


def test_bench_analysis(benchmark, publish):
    lint, size = benchmark.pedantic(_lint_op_counts, rounds=1, iterations=1)

    # The pass pays for itself: every rule fires on the fixture corpus
    # (the pre-fix proof), and the repaired kernel is clean.
    assert set(lint["fixture_findings"]) == {
        rule.id for rule in PerfChecker.rules
    }
    assert lint["kernel_findings_unsuppressed"] == 0
    assert lint["kernel_suppressed"] >= 1  # the audited _resume try
    # It reads the whole kernel, and finds its hot paths in it.
    assert size["files_checked"] == len(iter_python_files(KERNEL_PATHS))
    assert size["ast_nodes"] > 0
    assert size["files_checked"] >= size["hot_files"] >= 7
    assert size["hot_roots"] >= size["hot_files"]

    digest = {
        "format": SNAPSHOT_FORMAT,
        "bench": "repro.analysis",
        "pr": 6,
        "perf_lint": lint,
    }
    path = REPO_ROOT / "BENCH_6.json"
    path.write_text(json.dumps(digest, sort_keys=True, indent=2) + "\n")
    publish("bench_analysis_digest", json.dumps(digest, sort_keys=True, indent=2))
