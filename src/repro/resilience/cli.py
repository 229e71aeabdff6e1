"""Command-line entry point: ``python -m repro.resilience``.

Run the deterministic fault campaigns and inspect the catalogue::

    python -m repro.resilience list
    python -m repro.resilience run --seed 42
    python -m repro.resilience run --seed 42 --trials 5 \\
        --campaign message_loss --campaign partition \\
        --out results/campaign_report.json
    python -m repro.resilience run --campaign crash \\
        --flightrec --dump-dir results/dumps

``run`` emits the campaign report in its canonical byte form (sorted
keys, two-space indent, trailing newline): the same seed always
produces byte-identical output, which the CI chaos job asserts by
running it twice and comparing the files.

Exit status mirrors ``python -m repro.obs``: 0 when every selected
campaign succeeded in every trial, 1 when any trial failed (the report
is still written), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.argtypes import count
from repro.errors import ReproError
from repro.resilience.campaign import CAMPAIGNS, render_report, run_campaigns


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Seeded fault-injection campaigns over the co-allocator.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub.add_parser("list", help="show the campaign catalogue")

    run = sub.add_parser(
        "run", help="run campaigns; print the deterministic JSON report"
    )
    run.add_argument(
        "--seed", type=count(0), default=42,
        help="root seed; trial i of every campaign uses seed+i (default: 42)",
    )
    run.add_argument(
        "--trials", type=count(1), default=3,
        help="seeded trials per campaign (default: 3)",
    )
    run.add_argument(
        "--campaign", action="append", default=None, metavar="NAME",
        help="restrict to this campaign (repeatable; default: all)",
    )
    run.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report to PATH",
    )
    run.add_argument(
        "--profile-dir", default=None, metavar="DIR",
        help="also write a per-campaign cost profile (trial 0) to "
        "DIR/<campaign>.json plus a collapsed-stack DIR/<campaign>.collapsed "
        "(see python -m repro.prof)",
    )
    run.add_argument(
        "--flightrec", action="store_true",
        help="fly a flight recorder per trial: records gain a "
        "flight_dump field (see python -m repro.obs blackbox)",
    )
    run.add_argument(
        "--dump-dir", default=None, metavar="DIR",
        help="with --flightrec, write each trial's first dump to "
        "DIR/<campaign>_<seed>.json in canonical form",
    )
    # Errors after parsing go through the subcommand's own parser, so
    # they carry its usage line and prefix.
    for command in sub.choices.values():
        command.set_defaults(subparser=command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required (see --help)")

    if args.command == "list":
        width = max(len(name) for name in CAMPAIGNS)
        for name in sorted(CAMPAIGNS):
            print(f"{name:<{width}}  {CAMPAIGNS[name].description}")
        return 0

    parser = args.subparser
    if args.dump_dir is not None and not args.flightrec:
        parser.error("--dump-dir requires --flightrec")
    try:
        report = run_campaigns(
            seed=args.seed,
            trials=args.trials,
            names=args.campaign,
            flightrec=args.flightrec,
            dump_dir=args.dump_dir,
        )
    except ReproError as exc:
        parser.error(str(exc))
    text = render_report(report)
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    if args.profile_dir is not None:
        _write_profiles(args.profile_dir, args.campaign, args.seed)
    sys.stdout.write(text)
    return 0 if _all_succeeded(report) else 1


def _write_profiles(
    profile_dir: str, names: Optional[Sequence[str]], seed: int
) -> None:
    from repro.prof.collapse import write_collapsed
    from repro.resilience.campaign import profile_trial

    for name in sorted(names) if names else sorted(CAMPAIGNS):
        profile = profile_trial(CAMPAIGNS[name], seed)
        written = profile.write(Path(profile_dir) / f"{name}.json")
        write_collapsed(profile, Path(profile_dir) / f"{name}.collapsed")
        print(f"profile written to {written}", file=sys.stderr)


def _all_succeeded(report: dict[str, Any]) -> bool:
    return all(
        record["success"]
        for campaign in report["campaigns"]
        for record in campaign["records"]
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
