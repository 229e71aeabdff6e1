"""Text renderers for traces and metrics.

ASCII output only — these back the ``python -m repro.obs`` CLI and the
Fig. 5 style timeline reproduction, and they must render identically
everywhere (CI logs included).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.obs.query import NameStats, SpanNode, critical_path
from repro.simcore.metrics import histogram_summary
from repro.simcore.tracing import Mark, Span

#: Character used for span bars in the Gantt chart.
BAR = "#"

#: Row budget above which :func:`render_gantt` collapses same-name
#: spans into aggregate lanes instead of drawing one lane per span.
DEFAULT_MAX_ROWS = 200


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_gantt(
    spans: Sequence[Span],
    marks: Sequence[Mark] = (),
    width: int = 64,
    title: Optional[str] = None,
    max_rows: Optional[int] = DEFAULT_MAX_ROWS,
) -> str:
    """One lane per span, time left to right — the Fig. 5 shape.

    Lanes are ordered by start time; each shows the span name, its
    ``[start, end]`` window, and a proportional bar.  Marks are listed
    below the chart with their times.

    Above ``max_rows`` spans the chart downsamples instead of scrolling
    forever: same-name spans collapse into one aggregate lane covering
    their envelope, lanes beyond the budget are cut, and a ``(+N
    more)`` footer accounts for everything not drawn.  Pass
    ``max_rows=None`` to force the full per-span rendering.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    if not spans:
        lines.append("(no spans)")
        return "\n".join(lines)

    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    extent = max(t1 - t0, 1e-12)
    label_width = min(32, max(len(s.name) for s in spans) + 2)

    def bar_for(start: float, end: float) -> str:
        begin = round((start - t0) / extent * (width - 1))
        finish = max(round((end - t0) / extent * (width - 1)), begin)
        return (" " * begin + BAR * (finish - begin + 1)).ljust(width)

    lines.append(
        f"{'span':<{label_width}} {'':{width}} "
        f"[{_fmt(t0)} .. {_fmt(t1)}]s"
    )
    if max_rows is not None and len(spans) > max_rows:
        return "\n".join(
            lines
            + _collapsed_lanes(spans, marks, label_width, width, max_rows, bar_for)
        )
    ordered = sorted(spans, key=lambda s: (s.start, s.end, s.name, s.span_id or 0))
    for span in ordered:
        lines.append(
            f"{span.name:<{label_width}} {bar_for(span.start, span.end)} "
            f"{_fmt(span.start)} -> {_fmt(span.end)} "
            f"({_fmt(span.duration)}s)"
        )
    for mark in sorted(marks, key=lambda m: (m.time, m.name)):
        offset = round((mark.time - t0) / extent * (width - 1))
        pointer = " " * offset + "^"
        lines.append(f"{mark.name:<{label_width}} {pointer.ljust(width)} @{_fmt(mark.time)}")
    return "\n".join(lines)


def _collapsed_lanes(
    spans: Sequence[Span],
    marks: Sequence[Mark],
    label_width: int,
    width: int,
    max_rows: int,
    bar_for: Any,
) -> list[str]:
    """Aggregate same-name lanes for an over-budget Gantt chart."""
    groups: dict[str, list[Span]] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span)
    lanes = sorted(
        groups.items(),
        key=lambda kv: (min(s.start for s in kv[1]), kv[0]),
    )
    shown = lanes[:max_rows]
    lines: list[str] = []
    for name, members in shown:
        first = min(s.start for s in members)
        last = max(s.end for s in members)
        total = sum(s.duration for s in members)
        lines.append(
            f"{name:<{label_width}} {bar_for(first, last)} "
            f"{_fmt(first)} -> {_fmt(last)} "
            f"({len(members)} spans, {_fmt(total)}s total)"
        )
    hidden_lanes = len(lanes) - len(shown)
    hidden_spans = sum(len(members) for _, members in lanes[max_rows:])
    footer = f"({len(spans)} spans collapsed into {len(shown)} lanes"
    if hidden_lanes:
        footer += f", +{hidden_spans} more in {hidden_lanes} lanes not shown"
    lines.append(footer + ")")
    if marks:
        mark_groups: dict[str, list[Mark]] = {}
        for mark in marks:
            mark_groups.setdefault(mark.name, []).append(mark)
        for name in sorted(mark_groups):
            members = mark_groups[name]
            times = sorted(m.time for m in members)
            suffix = f" (+{len(times) - 1} more)" if len(times) > 1 else ""
            lines.append(
                f"{name:<{label_width}} {'^'.ljust(width)} "
                f"@{_fmt(times[0])}{suffix}"
            )
    return lines


def render_tree(roots: Sequence[SpanNode]) -> str:
    """Indented causal tree with per-span windows and durations."""
    if not roots:
        return "(no spans)"
    lines: list[str] = []

    def visit(node: SpanNode, prefix: str, is_last: bool, is_root: bool) -> None:
        span = node.span
        connector = "" if is_root else ("`-- " if is_last else "|-- ")
        attrs = ""
        if span.attrs:
            attrs = "  " + " ".join(
                f"{k}={span.attrs[k]}" for k in sorted(span.attrs)
            )
        lines.append(
            f"{prefix}{connector}{span.name} "
            f"[{_fmt(span.start)} -> {_fmt(span.end)}] "
            f"({_fmt(span.duration)}s){attrs}"
        )
        child_prefix = prefix if is_root else prefix + ("    " if is_last else "|   ")
        for idx, child in enumerate(node.children):
            visit(child, child_prefix, idx == len(node.children) - 1, False)

    for root in roots:
        visit(root, "", True, True)
    return "\n".join(lines)


def render_critical_path(root: SpanNode) -> str:
    """The longest-ending chain under ``root``, one hop per line."""
    path = critical_path(root)
    lines = [
        f"critical path: {len(path)} span(s), "
        f"{_fmt(path[-1].span.end - path[0].span.start)}s "
        f"from {path[0].name!r} start to {path[-1].name!r} end"
    ]
    for depth, node in enumerate(path):
        span = node.span
        lines.append(
            f"  {'  ' * depth}{span.name} "
            f"[{_fmt(span.start)} -> {_fmt(span.end)}] ({_fmt(span.duration)}s)"
        )
    return "\n".join(lines)


def render_summary(stats: Sequence[NameStats]) -> str:
    """Fixed-width per-name duration table (p50/p95/max in seconds)."""
    if not stats:
        return "(no spans)"
    name_width = max(4, max(len(s.name) for s in stats))
    header = (
        f"{'span':<{name_width}} {'count':>6} {'total':>12} "
        f"{'p50':>12} {'p95':>12} {'max':>12}"
    )
    lines = [header, "-" * len(header)]
    for s in stats:
        lines.append(
            f"{s.name:<{name_width}} {s.count:>6} {_fmt(s.total):>12} "
            f"{_fmt(s.p50):>12} {_fmt(s.p95):>12} {_fmt(s.max):>12}"
        )
    return "\n".join(lines)


def render_metrics(snapshot: dict[str, Any]) -> str:
    """Flatten a metrics snapshot into one labelled value per line."""
    metrics = snapshot.get("metrics", {})
    if not metrics:
        return "(no metrics)"
    lines = [f"metrics at t={_fmt(snapshot.get('time', 0.0))}"]
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry.get("type", "?")
        for value in entry.get("values", []):
            labels = value.get("labels", {})
            label_text = (
                "{" + ",".join(f"{k}={labels[k]}" for k in sorted(labels)) + "}"
                if labels
                else ""
            )
            if kind == "histogram":
                summary = histogram_summary(value)
                quantiles = " ".join(
                    f"{key}={_fmt(summary[key])}" for key in sorted(
                        summary, key=lambda k: float(k[1:])
                    )
                )
                body = (
                    f"count={value.get('count')} sum={_fmt(value.get('sum', 0.0))} "
                    f"min={_fmt(value.get('min', 0.0))} max={_fmt(value.get('max', 0.0))} "
                    f"{quantiles}"
                )
            elif kind == "gauge":
                body = (
                    f"value={_fmt(value.get('value', 0.0))} "
                    f"high_water={_fmt(value.get('high_water', 0.0))}"
                )
            elif kind == "rate":
                body = (
                    f"rate={_fmt(value.get('rate', 0.0))}/s "
                    f"total={_fmt(value.get('total', 0.0))}"
                )
            else:
                body = f"value={_fmt(value.get('value', 0.0))}"
            lines.append(f"  {name}{label_text} [{kind}] {body}")
    return "\n".join(lines)
