"""The AST-walking checker framework.

A :class:`Checker` inspects one parsed module at a time and yields
:class:`Finding` records; the :class:`Analyzer` owns file discovery,
parsing, suppression handling (``# repro: noqa <rule-id>``), rule
selection, and aggregation into an :class:`AnalysisReport`.

Checkers are purely static — they read source text and ASTs, never
import or execute the code under analysis — so they are safe to run on
broken or hostile trees and always terminate.
"""

from __future__ import annotations

import ast
import difflib
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

#: Rule id of the synthetic finding emitted for unparseable files.
PARSE_ERROR = "parse-error"

#: Rule id of the warning emitted for a noqa comment naming no known rule.
NOQA_UNKNOWN_RULE = "noqa-unknown-rule"

#: ``# repro: noqa`` / ``# repro: noqa rule-a, rule-b`` (id list optional).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\b(?:[:\s]+(?P<rules>[\w\s,-]+))?", re.IGNORECASE
)


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One checkable invariant."""

    id: str
    summary: str
    severity: Severity = Severity.ERROR


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Static checkers locate findings in source files; dynamic monitors
    (:mod:`repro.verify`) reuse the same record with ``file`` naming the
    run and ``line`` the violating event's sequence number, and attach
    the happens-before ``witness`` chain that certifies the violation.
    """

    file: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str
    #: Last source line of the violating construct (0 = same as line);
    #: suppressions anywhere in ``line..end_line`` apply, so a noqa on a
    #: continuation line of a multi-line statement works.
    end_line: int = 0
    #: Happens-before witness: one rendered event per causal step.
    witness: tuple[str, ...] = ()

    def location(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


@dataclass
class Module:
    """One parsed source file handed to checkers."""

    path: str
    tree: ast.Module
    source: str
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()


class Checker:
    """Base class: subclasses declare rules and visit modules."""

    #: Family name, usable with ``--select``.
    name: str = "checker"
    rules: tuple[Rule, ...] = ()

    def rule(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(f"{self.name}: unknown rule {rule_id!r}")

    def finding(
        self, module: Module, node: ast.AST, rule_id: str, message: str
    ) -> Finding:
        rule = self.rule(rule_id)
        return Finding(
            file=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.id,
            severity=rule.severity,
            message=message,
            end_line=getattr(node, "end_lineno", None) or 0,
        )

    def check(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finalize(self, modules: Sequence[Module]) -> Iterator[Finding]:
        """Yield whole-run findings after every module was visited."""
        return iter(())


def suppressed_rules(line: str) -> Optional[set[str]]:
    """Rule ids suppressed by a source line's noqa comment.

    Returns None when the line carries no suppression, the empty set for
    a blanket ``# repro: noqa``, and the id set otherwise.
    """
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    rules = match.group("rules")
    if not rules:
        return set()
    return {part.strip().lower() for part in re.split(r"[,\s]+", rules) if part.strip()}


def is_suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    """True if the finding carries a matching suppression.

    The suppression may sit on any line the violating construct spans
    (``finding.line`` through ``finding.end_line``), so multi-line
    statements can be noqa'd on whichever continuation line the
    offending part lives on.
    """
    last = max(finding.line, finding.end_line)
    for lineno in range(finding.line, min(last, len(lines)) + 1):
        if lineno < 1:
            continue
        rules = suppressed_rules(lines[lineno - 1])
        if rules is None:
            continue
        if not rules or finding.rule.lower() in rules:
            return True
    return False


def iter_python_files(paths: Iterable[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if any(part.startswith(".") or part == "__pycache__"
                       for part in sub.parts):
                    continue
                out.add(sub)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced."""

    findings: list[Finding]
    suppressed: int
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings


def normalize_select(select: Optional[Iterable[str]]) -> Optional[set[str]]:
    """Lowercase/strip a ``--select`` list; None selects everything."""
    if not select:
        return None
    out = {s.strip().lower() for s in select if s.strip()}
    return out or None


def rule_selected(
    rule_id: str, checker_name: str, select: Optional[set[str]]
) -> bool:
    """Shared ``--select`` semantics: a selector matches a finding by
    exact rule id, rule family (the prefix before the first ``-``), or
    the owning checker/monitor name.  Used by both the static analyzer
    and the dynamic monitors of :mod:`repro.verify`.
    """
    if select is None:
        return True
    rule = rule_id.lower()
    return not select.isdisjoint(
        (rule, rule.split("-", 1)[0], checker_name.lower())
    )


class Analyzer:
    """Drive a set of checkers over a set of files."""

    def __init__(
        self,
        checkers: Sequence[Checker],
        select: Optional[Iterable[str]] = None,
    ) -> None:
        self.checkers = list(checkers)
        self.select = normalize_select(select)

    def parse(self, path: Path) -> "Module | Finding":
        """Parse one file into a Module, or a parse-error Finding."""
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            return Finding(
                file=str(path),
                line=line,
                col=1,
                rule=PARSE_ERROR,
                severity=Severity.ERROR,
                message=f"could not parse: {exc}",
            )
        return Module(path=str(path), tree=tree, source=source)

    def run(self, paths: Iterable[str]) -> AnalysisReport:
        files = iter_python_files(paths)
        modules: list[Module] = []
        findings: list[Finding] = []
        suppressed = 0

        for path in files:
            parsed = self.parse(path)
            if isinstance(parsed, Finding):
                findings.append(parsed)
                continue
            modules.append(parsed)

        by_path = {module.path: module for module in modules}
        raw: list[tuple[Finding, str]] = []
        for module in modules:
            for checker in self.checkers:
                for finding in checker.check(module):
                    raw.append((finding, checker.name))
            for finding in self._unknown_noqa(module):
                raw.append((finding, "framework"))
        for checker in self.checkers:
            for finding in checker.finalize(modules):
                raw.append((finding, checker.name))

        for finding, checker_name in raw:
            if not rule_selected(finding.rule, checker_name, self.select):
                continue
            module = by_path.get(finding.file)
            if module is not None and is_suppressed(finding, module.lines):
                suppressed += 1
                continue
            findings.append(finding)

        return AnalysisReport(
            findings=sorted(set(findings)),
            suppressed=suppressed,
            files_checked=len(files),
        )

    def _unknown_noqa(self, module: Module) -> Iterator[Finding]:
        """Warn about noqa comments naming rules no loaded checker has.

        A typo'd rule id in a suppression comment silently suppresses
        nothing; surfacing it as a warning keeps suppressions honest.
        """
        known = {
            rule.id.lower()
            for checker in self.checkers
            for rule in checker.rules
        }
        known.update({PARSE_ERROR, NOQA_UNKNOWN_RULE})
        for lineno, line in enumerate(module.lines, start=1):
            rules = suppressed_rules(line)
            if not rules:  # no comment, or a blanket noqa
                continue
            for rule_id in sorted(rules - known):
                message = f"noqa names unknown rule {rule_id!r}"
                close = difflib.get_close_matches(rule_id, known, n=1)
                if close:
                    message += f" (did you mean {close[0]!r}?)"
                yield Finding(
                    file=module.path,
                    line=lineno,
                    col=1,
                    rule=NOQA_UNKNOWN_RULE,
                    severity=Severity.WARNING,
                    message=message,
                )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
