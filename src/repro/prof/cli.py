"""Command-line entry point: ``python -m repro.prof``.

Build, compare, and gate cost profiles::

    python -m repro.prof profile results/quickstart_trace.jsonl \\
        --metrics results/quickstart_metrics.json \\
        --out results/quickstart_profile.json \\
        --collapsed results/quickstart_profile.collapsed
    python -m repro.prof diff baseline.json candidate.json --threshold-pct 10
    python -m repro.prof bench                 # gate against baselines
    python -m repro.prof bench --update        # refresh baselines

Exit status mirrors ``python -m repro.obs``: 0 on success, 1 when a
diff or the bench gate finds a regression (or a baseline is missing),
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.errors import ReproError
from repro.prof.collapse import write_collapsed
from repro.prof.diff import (
    DEFAULT_ABS,
    DEFAULT_PCT,
    diff_profiles,
    render_diff,
)
from repro.prof.profile import Profile, counters_from_metrics, profile_spans


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.prof",
        description="Trace-derived cost profiles, diffs, and the perf gate.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    profile = sub.add_parser(
        "profile", help="aggregate a JSONL trace export into a profile"
    )
    profile.add_argument("trace", help="JSONL trace export (repro.obs format)")
    profile.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="metrics JSON export; folds op counters into the profile",
    )
    profile.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the canonical profile JSON to PATH",
    )
    profile.add_argument(
        "--collapsed", default=None, metavar="PATH",
        help="write a collapsed-stack (flamegraph) export to PATH",
    )
    profile.add_argument(
        "--top", type=int, default=15,
        help="paths shown in text output (default: 15)",
    )

    diff = sub.add_parser(
        "diff", help="attribute the delta between two profiles"
    )
    diff.add_argument("base", help="baseline profile JSON")
    diff.add_argument("new", help="candidate profile JSON")
    diff.add_argument(
        "--threshold-pct", type=float, default=DEFAULT_PCT,
        help=f"regression threshold in percent (default: {DEFAULT_PCT:g})",
    )
    diff.add_argument(
        "--threshold-abs", type=float, default=DEFAULT_ABS,
        help="absolute floor in seconds below which growth never "
        f"regresses (default: {DEFAULT_ABS:g})",
    )
    diff.add_argument(
        "--threshold", action="append", default=None, metavar="PATH=PCT",
        help="per-path percentage override (repeatable)",
    )
    diff.add_argument(
        "--all", action="store_true",
        help="show every entry, not just the changed ones",
    )

    bench = sub.add_parser(
        "bench", help="run the seeded benchmark suite against the baselines"
    )
    bench.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    bench.add_argument(
        "--update", action="store_true",
        help="regenerate the baselines instead of gating against them",
    )
    bench.add_argument(
        "--seed", type=int, default=None,
        help="root seed (default: 42)",
    )
    bench.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="restrict to this scenario (repeatable; default: all)",
    )
    bench.add_argument(
        "--baseline-dir", default=None, metavar="DIR",
        help="baseline directory (default: benchmarks/baselines)",
    )
    bench.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="also write each scenario's profile (and collapsed stacks) "
        "under DIR",
    )
    bench.add_argument(
        "--threshold-pct", type=float, default=DEFAULT_PCT,
        help=f"regression threshold in percent (default: {DEFAULT_PCT:g})",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required (see --help)")
    if args.command == "profile":
        return _cmd_profile(parser, args)
    if args.command == "diff":
        return _cmd_diff(parser, args)
    return _cmd_bench(parser, args)


# -- profile -----------------------------------------------------------------


def _cmd_profile(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.obs.export import load_jsonl

    trace_path = Path(args.trace)
    if not trace_path.is_file():
        parser.error(f"no such file: {trace_path}")
    try:
        dump = load_jsonl(trace_path)
    except (ValueError, KeyError) as exc:
        parser.error(f"cannot parse {trace_path}: {exc}")

    counters: dict[str, float] = {}
    if args.metrics is not None:
        metrics_path = Path(args.metrics)
        if not metrics_path.is_file():
            parser.error(f"no such file: {metrics_path}")
        try:
            snapshot = json.loads(metrics_path.read_text())
        except json.JSONDecodeError as exc:
            parser.error(f"cannot parse {metrics_path}: {exc}")
        counters = counters_from_metrics(snapshot)

    profile = profile_spans(
        dump.spans,
        counters=counters,
        meta={"source": str(trace_path)},
    )
    if args.out is not None:
        profile.write(args.out)
    if args.collapsed is not None:
        write_collapsed(profile, args.collapsed)

    if args.format == "json":
        sys.stdout.write(profile.dumps())
    else:
        print(render_profile(profile, top=args.top))
    return 0 if profile.paths else 1


def render_profile(profile: Profile, top: int = 15) -> str:
    """Fixed-width top-paths table plus the op-counter section."""
    if not profile.paths:
        return "(no spans)"
    rows = profile.top_exclusive(top)
    path_width = max(4, max(len(s.path) for s in rows))
    header = (
        f"{'path':<{path_width}} {'count':>6} {'inclusive':>12} {'exclusive':>12}"
    )
    lines = [
        f"profile: {profile.span_count} span(s), {len(profile.paths)} path(s), "
        f"makespan {profile.total_time:.6g}s",
        header,
        "-" * len(header),
    ]
    for stats in rows:
        lines.append(
            f"{stats.path:<{path_width}} {stats.count:>6} "
            f"{stats.inclusive:>12.6g} {stats.exclusive:>12.6g}"
        )
    if profile.counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(profile.counters):
            lines.append(f"  {name} = {profile.counters[name]:g}")
    return "\n".join(lines)


# -- diff --------------------------------------------------------------------


def _parse_overrides(
    parser: argparse.ArgumentParser, specs: Optional[Sequence[str]]
) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for spec in specs or ():
        path, sep, pct = spec.rpartition("=")
        if not sep or not path:
            parser.error(f"--threshold expects PATH=PCT, got {spec!r}")
        try:
            overrides[path] = float(pct)
        except ValueError:
            parser.error(f"--threshold {spec!r}: {pct!r} is not a number")
    return overrides


def _load_profile(parser: argparse.ArgumentParser, path: str) -> Profile:
    if not Path(path).is_file():
        parser.error(f"no such file: {path}")
    try:
        return Profile.load(path)
    except (ValueError, KeyError) as exc:
        parser.error(f"cannot parse {path}: {exc}")
    raise AssertionError("unreachable")  # parser.error raises


def _cmd_diff(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    base = _load_profile(parser, args.base)
    new = _load_profile(parser, args.new)
    diff = diff_profiles(
        base,
        new,
        threshold_pct=args.threshold_pct,
        threshold_abs=args.threshold_abs,
        per_path=_parse_overrides(parser, args.threshold),
    )
    if args.format == "json":
        sys.stdout.write(diff.dumps())
    else:
        print(render_diff(diff, all_entries=args.all))
    return 1 if diff.regressions else 0


# -- bench -------------------------------------------------------------------


def _cmd_bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.prof import bench as bench_mod

    if args.list:
        width = max(len(name) for name in bench_mod.SCENARIOS)
        for name in sorted(bench_mod.SCENARIOS):
            print(f"{name:<{width}}  {bench_mod.SCENARIOS[name].description}")
        return 0

    seed = bench_mod.DEFAULT_SEED if args.seed is None else args.seed
    baseline_dir = Path(
        args.baseline_dir if args.baseline_dir is not None
        else bench_mod.BASELINE_DIR
    )

    try:
        if args.update:
            written = bench_mod.update_baselines(
                seed=seed, names=args.scenario, baseline_dir=baseline_dir
            )
            for path in written:
                print(f"baseline written to {path}")
            return 0
        results = bench_mod.run_bench(
            seed=seed,
            names=args.scenario,
            baseline_dir=baseline_dir,
            threshold_pct=args.threshold_pct,
        )
    except ReproError as exc:
        parser.error(str(exc))

    status = 0
    report: dict[str, Any] = {}
    for result in results:
        name = result.scenario.name
        if args.out_dir is not None:
            result.profile.write(Path(args.out_dir) / f"{name}.json")
            write_collapsed(result.profile, Path(args.out_dir) / f"{name}.collapsed")
        if result.missing_baseline:
            status = 1
            verdict = "no baseline (run bench --update)"
        elif result.regressed:
            status = 1
            count = len(result.diff.regressions) if result.diff else 0
            verdict = f"REGRESSED ({count} path(s))"
        else:
            verdict = "ok"
        report[name] = verdict
        if args.format == "text":
            print(f"{name}: {verdict}")
            if result.regressed and result.diff is not None:
                for entry in result.diff.regressions:
                    print(f"  {_regression_line(entry)}")
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    return status


def _regression_line(entry: Any) -> str:
    pct = f"{entry.pct:+.1f}%" if entry.pct is not None else "new"
    return (
        f"{entry.path} [{entry.kind}] {entry.base:.6g} -> {entry.new:.6g} ({pct})"
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
