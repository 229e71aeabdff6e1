"""Finding reporters: human-readable text and machine-readable JSON.

Shared by the static analyzer (``repro.analysis``) and the dynamic
monitors (``repro.verify``): both produce
:class:`~repro.analysis.framework.Finding` s, so one reporter layer
serves both.  Dynamic findings carry a happens-before ``witness``,
rendered as indented continuation lines in text output.
"""

from __future__ import annotations

import json
from pathlib import PurePath
from typing import Sequence

from repro.analysis.framework import AnalysisReport, Checker, Finding


def format_finding(finding: Finding) -> str:
    """``file:line:col: rule severity: message`` plus witness lines."""
    head = (
        f"{finding.location()}: {finding.rule} "
        f"{finding.severity.value}: {finding.message}"
    )
    if not finding.witness:
        return head
    steps = [f"    | {step}" for step in finding.witness]
    return "\n".join([head, "    happens-before witness:"] + steps)


def finding_payload(finding: Finding) -> dict:
    """The finding's JSON object form (shared text/JSON reporters)."""
    payload = {
        "file": finding.file,
        "line": finding.line,
        "col": finding.col,
        "rule": finding.rule,
        "severity": finding.severity.value,
        "message": finding.message,
    }
    if finding.end_line:
        payload["end_line"] = finding.end_line
    if finding.witness:
        payload["witness"] = list(finding.witness)
    return payload


def render_text(report: AnalysisReport) -> str:
    """One line per finding (plus witnesses) and a summary."""
    lines = [format_finding(f) for f in report.findings]
    errors = sum(1 for f in report.findings if f.severity.value == "error")
    warnings = len(report.findings) - errors
    summary = (
        f"{len(report.findings)} finding(s) "
        f"({errors} error(s), {warnings} warning(s), "
        f"{report.suppressed} suppressed) in {report.files_checked} file(s)"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Stable JSON document for tooling and CI annotation."""
    payload = {
        "version": 1,
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "findings": [finding_payload(f) for f in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# -- SARIF --------------------------------------------------------------------

_SARIF_SCHEMA = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json"
)


def render_sarif(
    report: AnalysisReport, checkers: Sequence[Checker] = ()
) -> str:
    """SARIF 2.1.0 document, consumable by code-scanning uploaders.

    ``checkers`` supplies the rule metadata table (every shipped rule,
    not just the violated ones, so viewers can show rule summaries and
    severities); findings reference it by ``ruleIndex`` when present.
    File paths are emitted repo-relative with ``/`` separators, which
    is what GitHub code scanning expects from a checkout-rooted run.
    """
    rules_meta: list[dict] = []
    rule_index: dict[str, int] = {}
    for checker in checkers:
        for rule in checker.rules:
            if rule.id in rule_index:
                continue
            rule_index[rule.id] = len(rules_meta)
            rules_meta.append({
                "id": rule.id,
                "shortDescription": {"text": rule.summary},
                "defaultConfiguration": {"level": rule.severity.value},
            })

    results = []
    for finding in report.findings:
        region = {"startLine": finding.line, "startColumn": finding.col}
        if finding.end_line:
            region["endLine"] = finding.end_line
        message = finding.message
        if finding.witness:
            message = "\n".join(
                [message, "happens-before witness:", *finding.witness]
            )
        result = {
            "ruleId": finding.rule,
            "level": finding.severity.value,
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": PurePath(finding.file).as_posix(),
                    },
                    "region": region,
                },
            }],
        }
        if finding.rule in rule_index:
            result["ruleIndex"] = rule_index[finding.rule]
        results.append(result)

    document = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.analysis",
                    "rules": rules_meta,
                },
            },
            "results": results,
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
