"""Command-line entry point: ``python -m repro.verify``.

Runs the fault campaigns (and/or the quickstart example) under the
runtime-verification monitors and reports findings through the shared
analysis reporters.

Exit status: 0 when every monitored run is clean, 1 when any finding
survives selection/suppression, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.argtypes import count
from repro.errors import ReproError
from repro.verify.monitors import all_monitors
from repro.verify.runner import (
    EXAMPLES,
    render_verification_json,
    render_verification_text,
    verify_campaigns,
    verify_example,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Runtime protocol verification: replay fault campaigns under "
            "vector-clock monitors (races, 2PC safety, deadlocks)."
        ),
    )
    parser.add_argument(
        "--campaign", action="append", default=None, metavar="NAME",
        help="campaign to verify (repeatable); 'all' runs the full "
        "catalogue (default when no --example is given)",
    )
    parser.add_argument(
        "--example", choices=EXAMPLES, default=None,
        help="verify the quickstart/Figure-1 example instead (one run: "
        "takes no --campaign, and --trials only as 1)",
    )
    parser.add_argument("--seed", type=count(0), default=42, help="root seed")
    parser.add_argument(
        "--trials", type=count(1), default=None, help="trials per campaign (default: 3)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids, families (hb, tpc, dl) or "
        "monitor names to evaluate; everything else is skipped",
    )
    parser.add_argument(
        "--suppress", default=None, metavar="RULES",
        help="comma-separated rule ids to drop from the report "
        "(the dynamic analogue of '# repro: noqa')",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the canonical JSON report to PATH",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every monitor rule id with its summary and exit",
    )
    return parser


def list_rules() -> str:
    lines = []
    for monitor in all_monitors():
        lines.append(f"[{monitor.name}]")
        for rule in monitor.rules:
            lines.append(
                f"  {rule.id:<28} {rule.severity.value:<8} {rule.summary}"
            )
    return "\n".join(lines)


def _known_selectors() -> set[str]:
    known: set[str] = set()
    for monitor in all_monitors():
        known.add(monitor.name)
        for rule in monitor.rules:
            known.add(rule.id)
            known.add(rule.id.split("-", 1)[0])
    return known


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0

    select = args.select.split(",") if args.select else None
    if select is not None:
        unknown = sorted(
            token.strip()
            for token in select
            if token.strip() not in _known_selectors()
        )
        if unknown:
            parser.error(
                f"--select: unknown rule/family/monitor "
                f"{', '.join(unknown)} (see --list-rules)"
            )
    suppress = args.suppress.split(",") if args.suppress else None
    if args.example is not None and args.campaign:
        parser.error("--example and --campaign are exclusive")
    if args.example is not None and args.trials not in (None, 1):
        parser.error("--example is one run: --trials must be 1")

    try:
        if args.example is not None:
            report = verify_example(
                args.example, seed=args.seed,
                select=select, suppress=suppress,
            )
        else:
            campaigns = args.campaign or ["all"]
            names = None if "all" in campaigns else campaigns
            report = verify_campaigns(
                seed=args.seed, trials=3 if args.trials is None else args.trials,
                names=names,
                select=select, suppress=suppress,
            )
    except ReproError as exc:
        parser.error(str(exc))

    rendered = (
        render_verification_json(report)
        if args.format == "json"
        else render_verification_text(report)
    )
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_verification_json(report), encoding="utf-8")
    return 0 if report["findings_total"] == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
