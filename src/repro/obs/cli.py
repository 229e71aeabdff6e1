"""Command-line entry point: ``python -m repro.obs``.

Inspect trace and metrics exports produced by an instrumented run::

    python -m repro.obs timeline results/quickstart_trace.jsonl
    python -m repro.obs tree results/quickstart_trace.jsonl trace-1
    python -m repro.obs critical-path results/quickstart_trace.jsonl
    python -m repro.obs summary results/quickstart_trace.jsonl
    python -m repro.obs metrics results/quickstart_metrics.json
    python -m repro.obs report results/telemetry_aggregate.json
    python -m repro.obs blackbox results/flight_crash.json
    python -m repro.obs blackbox a.json --diff b.json

Exit status mirrors ``python -m repro.analysis``: 0 on success, 1 when
the query found nothing to show (empty trace, unknown trace id), the
trace fails parentage validation, or two diffed dumps differ, 2 on
usage errors — including missing, malformed, or truncated input files,
which always produce a one-line error rather than a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.obs.blackbox import (
    diff_dumps,
    load_dump,
    merge_timeline,
    render_diff,
    render_timeline,
)
from repro.obs.export import TraceDump, load_jsonl, span_record
from repro.obs.query import (
    critical_path,
    parentage,
    stats_record,
    summarize,
    trace_ids,
    tree,
)
from repro.obs.render import (
    DEFAULT_MAX_ROWS,
    render_critical_path,
    render_gantt,
    render_metrics,
    render_report,
    render_summary,
    render_tree,
)
from repro.obs.streaming import AGGREGATE_FORMAT, aggregate_trace
from repro.simcore.metrics import histogram_summary

#: Minimum fraction of spans whose parent chain must reach a root for a
#: trace to pass ``--validate`` (the repo's acceptance bar).
PARENTAGE_BAR = 0.95


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect trace (JSONL) and metrics (JSON) exports.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    timeline = sub.add_parser(
        "timeline", help="ASCII Gantt chart of all spans (the Fig. 5 shape)"
    )
    timeline.add_argument("trace", help="JSONL trace export")
    timeline.add_argument(
        "--trace-id", default=None, help="restrict to one trace tree"
    )
    timeline.add_argument(
        "--width", type=int, default=64, help="chart width in columns"
    )
    timeline.add_argument(
        "--max-rows", type=int, default=DEFAULT_MAX_ROWS,
        help="span rows before same-name lanes are collapsed "
        f"(default: {DEFAULT_MAX_ROWS}; 0 = never collapse)",
    )

    tree_cmd = sub.add_parser("tree", help="causal tree of one trace")
    tree_cmd.add_argument("trace", help="JSONL trace export")
    tree_cmd.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id to show (default: the first trace in the file)",
    )

    crit = sub.add_parser(
        "critical-path", help="longest-ending causal chain of one trace"
    )
    crit.add_argument("trace", help="JSONL trace export")
    crit.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id to analyze (default: the first trace in the file)",
    )

    summary = sub.add_parser(
        "summary", help="per-span-name duration statistics (p50/p95/max)"
    )
    summary.add_argument("trace", help="JSONL trace export")
    summary.add_argument(
        "--validate", action="store_true",
        help=f"also require ≥{PARENTAGE_BAR:.0%} of spans to have a "
        "complete parent chain (exit 1 otherwise)",
    )

    metrics = sub.add_parser("metrics", help="flatten a metrics snapshot")
    metrics.add_argument("snapshot", help="metrics JSON export")

    report = sub.add_parser(
        "report",
        help="path/tenant aggregate report (streamed snapshot or full dump)",
    )
    report.add_argument(
        "source",
        help=f"a {AGGREGATE_FORMAT} snapshot, or a JSONL trace "
        "to aggregate post-hoc",
    )
    report.add_argument(
        "--top", type=int, default=20, help="paths shown (default: 20)"
    )

    blackbox = sub.add_parser(
        "blackbox",
        help="post-mortem timeline of a flight-recorder dump",
    )
    blackbox.add_argument(
        "dump", help="flight dump (JSON) captured by repro.obs.flightrec"
    )
    blackbox.add_argument(
        "--diff", default=None, metavar="OTHER",
        help="compare against a second dump instead of rendering "
        "(exit 1 when they differ)",
    )
    blackbox.add_argument(
        "--window", type=float, default=None,
        help="only records within this many simulated seconds "
        "before the trigger",
    )
    blackbox.add_argument(
        "--node", default=None,
        help="only records naming this node (protocol events at it, "
        "messages to or from it)",
    )

    return parser


def _load(parser: argparse.ArgumentParser, path: str) -> TraceDump:
    if not Path(path).is_file():
        parser.error(f"no such file: {path}")
    try:
        return load_jsonl(path)
    except (ValueError, KeyError) as exc:
        parser.error(f"cannot parse {path}: {exc}")


def _load_flight(
    parser: argparse.ArgumentParser, path: str
) -> dict[str, Any]:
    if not Path(path).is_file():
        parser.error(f"no such file: {path}")
    try:
        return load_dump(path)
    except ValueError as exc:
        parser.error(f"cannot load {path}: {exc}")


def _pick_trace(
    dump: Any, trace_id: Optional[str]
) -> tuple[Optional[str], list]:
    ids = trace_ids(dump.spans)
    if trace_id is None:
        trace_id = ids[0] if ids else None
    if trace_id is None or trace_id not in ids:
        return trace_id, []
    return trace_id, tree(dump.spans, trace_id)


def _emit(text: str) -> None:
    print(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required (see --help)")

    if args.command == "blackbox":
        flight = _load_flight(parser, args.dump)
        if args.diff is not None:
            other = _load_flight(parser, args.diff)
            diff = diff_dumps(flight, other)
            if args.format == "json":
                _emit(json.dumps(diff, sort_keys=True, indent=2))
            else:
                _emit(render_diff(diff))
            return 0 if diff["identical"] else 1
        entries = merge_timeline(flight, window=args.window, node=args.node)
        if args.format == "json":
            _emit(
                json.dumps(
                    {"trigger": flight["trigger"], "records": entries},
                    sort_keys=True,
                )
            )
        else:
            _emit(render_timeline(flight, entries))
        return 0 if entries else 1

    if args.command == "metrics":
        path = Path(args.snapshot)
        if not path.is_file():
            parser.error(f"no such file: {path}")
        try:
            snapshot = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            parser.error(f"cannot parse {path}: {exc}")
        metrics_map = (
            snapshot.get("metrics", {}) if isinstance(snapshot, dict) else None
        )
        if not isinstance(metrics_map, dict) or not all(
            isinstance(entry, dict) for entry in metrics_map.values()
        ):
            parser.error(f"{path}: not a metrics snapshot")
        if args.format == "json":
            _emit(json.dumps(_with_summaries(snapshot), sort_keys=True, indent=2))
        else:
            _emit(render_metrics(snapshot))
        return 0 if snapshot.get("metrics") else 1

    if args.command == "report":
        aggregate = _load_aggregate_source(parser, args.source)
        if args.format == "json":
            _emit(
                json.dumps(
                    _aggregate_with_summaries(aggregate), sort_keys=True, indent=2
                )
            )
        else:
            _emit(render_report(aggregate, top=args.top))
        return 0 if aggregate.get("spans") else 1

    dump = _load(parser, args.trace)

    if args.command == "timeline":
        spans = dump.spans
        marks = dump.marks
        if args.trace_id is not None:
            spans = [s for s in spans if s.trace_id == args.trace_id]
            marks = [m for m in marks if m.trace_id == args.trace_id]
        if args.format == "json":
            _emit(
                json.dumps(
                    [span_record(s) for s in sorted(
                        spans, key=lambda s: (s.start, s.end, s.name)
                    )],
                    sort_keys=True,
                )
            )
        else:
            max_rows = args.max_rows if args.max_rows > 0 else None
            _emit(render_gantt(spans, marks, width=args.width, max_rows=max_rows))
        return 0 if spans else 1

    if args.command in ("tree", "critical-path"):
        trace_id, roots = _pick_trace(dump, args.trace_id)
        if not roots:
            print(
                f"no spans for trace {trace_id!r}"
                if trace_id is not None
                else "no traces in file",
                file=sys.stderr,
            )
            return 1
        if args.command == "tree":
            if args.format == "json":
                _emit(json.dumps([_tree_record(r) for r in roots], sort_keys=True))
            else:
                _emit(f"trace {trace_id}")
                _emit(render_tree(roots))
            return 0
        root = roots[0]
        if args.format == "json":
            _emit(
                json.dumps(
                    [span_record(n.span) for n in critical_path(root)],
                    sort_keys=True,
                )
            )
        else:
            _emit(f"trace {trace_id}")
            _emit(render_critical_path(root))
        return 0

    # summary
    stats = summarize(dump.spans)
    linked, total = parentage(dump.spans)
    coverage = linked / total if total else 0.0
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "spans": total,
                    "linked": linked,
                    "parentage": coverage,
                    "names": [stats_record(s) for s in stats],
                },
                sort_keys=True,
            )
        )
    else:
        _emit(render_summary(stats))
        _emit(f"parentage: {linked}/{total} spans linked ({coverage:.1%})")
    if not stats:
        return 1
    if args.validate and coverage < PARENTAGE_BAR:
        print(
            f"parentage {coverage:.1%} below the {PARENTAGE_BAR:.0%} bar",
            file=sys.stderr,
        )
        return 1
    return 0


def _load_aggregate_source(
    parser: argparse.ArgumentParser, source: str
) -> dict[str, Any]:
    """An aggregate snapshot — loaded directly, or folded from a dump.

    The ``report`` command accepts both inputs precisely so the two
    can be diffed: the streamed snapshot of a run and the post-hoc
    aggregation of its full dump must produce the same report.
    """
    path = Path(source)
    if not path.is_file():
        parser.error(f"no such file: {source}")
    with path.open() as fh:
        head = fh.read(1024).lstrip()
    if head.startswith("{") and '"record"' not in head.split("\n", 1)[0]:
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            parser.error(f"cannot parse {source}: {exc}")
        if not isinstance(data, dict) or data.get("format") != AGGREGATE_FORMAT:
            parser.error(f"{source}: not a {AGGREGATE_FORMAT} snapshot")
        return data
    dump = _load(parser, source)
    return aggregate_trace(dump).snapshot()


def _aggregate_with_summaries(aggregate: dict[str, Any]) -> dict[str, Any]:
    """Copy of an aggregate with p50/p90/p99 on every series record."""
    out = dict(aggregate)
    out["paths"] = {
        path: {**record, "summary": histogram_summary(record)}
        for path, record in aggregate.get("paths", {}).items()
    }
    out["labels"] = {
        key: {
            name: {**record, "summary": histogram_summary(record)}
            for name, record in series.items()
        }
        for key, series in aggregate.get("labels", {}).items()
    }
    return out


def _with_summaries(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Copy of the snapshot with p50/p90/p99 on every histogram value."""
    out = dict(snapshot)
    out["metrics"] = {}
    for name, entry in snapshot.get("metrics", {}).items():
        if entry.get("type") != "histogram":
            out["metrics"][name] = entry
            continue
        entry = dict(entry)
        entry["values"] = [
            {**value, "summary": histogram_summary(value)}
            for value in entry.get("values", [])
        ]
        out["metrics"][name] = entry
    return out


def _tree_record(node: Any) -> dict[str, Any]:
    record = span_record(node.span)
    record["children"] = [_tree_record(child) for child in node.children]
    return record


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
