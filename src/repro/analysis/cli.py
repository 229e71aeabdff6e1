"""Command-line entry point: ``python -m repro.analysis``.

Exit status: 0 when clean, 1 when any finding (error or warning)
survives suppression, 2 on usage errors — among them a path that does
not exist or holds no Python file, so a misspelt path cannot pass as a
clean run of nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.callback_safety import CallbackSafetyChecker
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.framework import Analyzer, Checker, iter_python_files
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.resilience_rules import ResilienceChecker
from repro.analysis.rsl_schema import RslSchemaChecker
from repro.analysis.statemachine import StateMachineChecker


def all_checkers() -> list[Checker]:
    """One fresh instance of every shipped checker."""
    return [
        DeterminismChecker(),
        StateMachineChecker(),
        CallbackSafetyChecker(),
        RslSchemaChecker(),
        ResilienceChecker(),
    ]


def _default_paths() -> list[str]:
    src = Path("src/repro")
    return [str(src)] if src.is_dir() else ["."]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static invariant checks for the co-allocation codebase.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text); sarif emits a SARIF 2.1.0 "
        "document for code-scanning upload",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULES",
        help="comma-separated rule ids, families (det, sm, cb, rsl, res) "
        "or checker names to run; repeatable; everything else is skipped",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id with its summary and exit "
        "(respects --format)",
    )
    return parser


def list_rules() -> str:
    lines = []
    for checker in all_checkers():
        lines.append(f"[{checker.name}]")
        for rule in checker.rules:
            lines.append(f"  {rule.id:<24} {rule.severity.value:<8} {rule.summary}")
    return "\n".join(lines)


def list_rules_json() -> str:
    payload = {
        "version": 1,
        "checkers": [
            {
                "name": checker.name,
                "rules": [
                    {
                        "id": rule.id,
                        "severity": rule.severity.value,
                        "summary": rule.summary,
                    }
                    for rule in checker.rules
                ],
            }
            for checker in all_checkers()
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _known_selectors(checkers: Sequence[Checker]) -> set[str]:
    known: set[str] = set()
    for checker in checkers:
        known.add(checker.name)
        for rule in checker.rules:
            known.add(rule.id)
            known.add(rule.id.split("-", 1)[0])
    return known


def _path_problem(raw: str) -> Optional[str]:
    """Why ``raw`` gives the analyzer nothing to check, if it does not."""
    if not Path(raw).exists():
        return f"{raw}: no such file or directory"
    if not iter_python_files([raw]):
        return f"{raw}: no Python file to analyze"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(list_rules_json() if args.format == "json" else list_rules())
        return 0
    for raw in args.paths:
        problem = _path_problem(raw)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    select = None
    if args.select:
        select = [
            token.strip()
            for chunk in args.select
            for token in chunk.split(",")
            if token.strip()
        ]
    if select is not None:
        known = _known_selectors(all_checkers())
        unknown = sorted(token for token in select if token not in known)
        if unknown:
            parser.error(
                f"--select: unknown rule/family/checker {', '.join(unknown)} "
                f"(see --list-rules)"
            )
    report = Analyzer(all_checkers(), select=select).run(
        args.paths or _default_paths()
    )
    if args.format == "json":
        rendered = render_json(report)
    elif args.format == "sarif":
        rendered = render_sarif(report, all_checkers())
    else:
        rendered = render_text(report)
    print(rendered)
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
