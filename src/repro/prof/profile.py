"""Trace-derived profiles: cost attribution per span path.

A :class:`Profile` aggregates a run's causal span forest by *path* —
the root-to-span chain of names joined with ``;`` (the collapsed-stack
convention), e.g. ``duroc.request;duroc.submit;gram.submit;gram.auth``.
Each path carries a call count, **inclusive** simulated time (summed
span durations) and **exclusive** self time (inclusive minus the time
covered by child spans; children that overlap — simulated concurrency —
are merged as an interval union first, so exclusive time is never
negative and the attribution stays exact).

Profiles serialize to canonical JSON — sorted keys, fixed float
rounding, trailing newline — so two runs of the same seed produce
byte-identical files, which the CI perf gate compares with ``cmp``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence, Union

from repro.obs.query import SpanNode, build_forest
from repro.simcore.tracing import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.gridenv import Grid

#: Profile format identifier, bumped on incompatible schema changes.
FORMAT = "repro.prof/1"

#: Path separator between span names (the collapsed-stack convention).
SEP = ";"

#: Decimal places kept for times in the canonical serialization; 1 ns
#: resolution, far below any modeled cost, so rounding never merges two
#: genuinely different attributions.
ROUND = 9

#: Metrics-registry counters folded into a profile's op-count section,
#: mapped to their profile counter names.  Totals are summed across
#: label sets, so the counts stay machine- and label-layout-independent.
METRIC_COUNTERS: tuple[tuple[str, str], ...] = (
    ("rpc.calls_total", "rpc.round_trips"),
    ("rpc.timeouts_total", "rpc.timeouts"),
    ("net.messages_sent_total", "net.messages_sent"),
    ("net.messages_delivered_total", "net.messages_delivered"),
    ("net.messages_dropped_total", "net.messages_dropped"),
    ("resilience.retries_total", "resilience.retries"),
    ("resilience.exhausted_total", "resilience.exhausted"),
)


@dataclass(frozen=True)
class PathStats:
    """Aggregated cost of one span path."""

    path: str
    count: int
    inclusive: float
    exclusive: float

    @property
    def leaf(self) -> str:
        """The span name at the end of the path."""
        return self.path.rsplit(SEP, 1)[-1]

    def record(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "inclusive": self.inclusive,
            "exclusive": self.exclusive,
        }


class Profile:
    """A run's cost attribution: path stats plus op counters.

    ``meta`` is free-form provenance (scenario name, seed, source
    file); it participates in serialization but never in diffing.
    """

    def __init__(
        self,
        paths: Mapping[str, PathStats],
        counters: Optional[Mapping[str, float]] = None,
        meta: Optional[Mapping[str, Any]] = None,
        span_count: int = 0,
        total_time: float = 0.0,
    ) -> None:
        self.paths: dict[str, PathStats] = dict(paths)
        self.counters: dict[str, float] = dict(counters or {})
        self.meta: dict[str, Any] = dict(meta or {})
        self.span_count = span_count
        self.total_time = total_time

    # -- queries -----------------------------------------------------------

    def exclusive(self, path: str) -> float:
        """Exclusive time of one exact path (0.0 if absent)."""
        stats = self.paths.get(path)
        return stats.exclusive if stats is not None else 0.0

    def exclusive_by_name(self, name: str) -> float:
        """Summed exclusive time over every path ending in ``name``.

        This is the Fig. 3 query: ``exclusive_by_name("gram.auth")`` is
        the total authentication self-time wherever it occurred.
        """
        return sum(s.exclusive for s in self.paths.values() if s.leaf == name)

    def count_by_name(self, name: str) -> int:
        return sum(s.count for s in self.paths.values() if s.leaf == name)

    def top_exclusive(self, n: int = 10) -> list[PathStats]:
        """The ``n`` paths with the most self time, descending."""
        ranked = sorted(
            self.paths.values(), key=lambda s: (-s.exclusive, s.path)
        )
        return ranked[:n]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "format": FORMAT,
            "meta": dict(self.meta),
            "span_count": self.span_count,
            "total_time": self.total_time,
            "paths": {path: self.paths[path].record() for path in sorted(self.paths)},
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
        }

    def dumps(self) -> str:
        """Canonical byte form: sorted keys, 2-space indent, newline."""
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps())
        return path

    @classmethod
    def from_json(cls, data: Any) -> "Profile":
        """Rebuild a profile; a document of the wrong shape is a ``ValueError``."""
        data = _object(data, "a profile")
        fmt = data.get("format")
        if fmt != FORMAT:
            raise ValueError(f"not a {FORMAT} profile (format={fmt!r})")
        paths: dict[str, PathStats] = {}
        for path, entry in _object(data.get("paths", {}), "paths").items():
            entry = _object(entry, f"path {path!r}")
            paths[path] = PathStats(
                path=path,
                count=int(entry["count"]),
                inclusive=float(entry["inclusive"]),
                exclusive=float(entry["exclusive"]),
            )
        counters = _object(data.get("counters", {}), "counters")
        return cls(
            paths=paths,
            counters={k: float(v) for k, v in counters.items()},
            meta=dict(_object(data.get("meta", {}), "meta")),
            span_count=int(data.get("span_count", 0)),
            total_time=float(data.get("total_time", 0.0)),
        )

    @classmethod
    def loads(cls, text: str) -> "Profile":
        return cls.from_json(json.loads(text))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Profile":
        return cls.loads(Path(path).read_text())

    def __repr__(self) -> str:
        return (
            f"<Profile paths={len(self.paths)} spans={self.span_count} "
            f"total={self.total_time:g}s>"
        )


def _object(value: Any, what: str) -> Mapping[str, Any]:
    """``value`` if it is a JSON object, else a ``ValueError`` naming ``what``."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


# -- building ----------------------------------------------------------------


def _covered(span: Span, children: Sequence[SpanNode]) -> float:
    """Length of the union of child windows, clipped to ``span``'s own.

    Children of a simulated span may overlap each other (concurrent
    subjobs) or spill past the parent (a retry closing late); clipping
    and merging keeps exclusive time exact and non-negative.
    """
    intervals = sorted(
        (max(child.span.start, span.start), min(child.span.end, span.end))
        for child in children
        if child.span.end > span.start and child.span.start < span.end
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class _Accumulator:
    __slots__ = ("count", "inclusive", "exclusive")

    def __init__(self) -> None:
        self.count = 0
        self.inclusive = 0.0
        self.exclusive = 0.0


def profile_spans(
    spans: Sequence[Span],
    counters: Optional[Mapping[str, float]] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> Profile:
    """Aggregate ``spans`` into a :class:`Profile`.

    Spans are first assembled into the causal forest (orphans — spans
    whose parent was not recorded — root their own paths, so a profile
    can always be built from any trace slice).
    """
    acc: dict[str, _Accumulator] = {}

    def visit(node: SpanNode, prefix: str) -> None:
        path = f"{prefix}{SEP}{node.span.name}" if prefix else node.span.name
        slot = acc.get(path)
        if slot is None:
            slot = acc[path] = _Accumulator()
        duration = node.span.duration
        slot.count += 1
        slot.inclusive += duration
        slot.exclusive += max(duration - _covered(node.span, node.children), 0.0)
        for child in node.children:
            visit(child, path)

    for root in build_forest(spans):
        visit(root, "")

    paths = {
        path: PathStats(
            path=path,
            count=slot.count,
            inclusive=round(slot.inclusive, ROUND),
            exclusive=round(slot.exclusive, ROUND),
        )
        for path, slot in acc.items()
    }
    total_time = (
        round(max(s.end for s in spans) - min(s.start for s in spans), ROUND)
        if spans
        else 0.0
    )
    return Profile(
        paths=paths,
        counters=counters,
        meta=meta,
        span_count=len(spans),
        total_time=total_time,
    )


def counters_from_metrics(snapshot: Mapping[str, Any]) -> dict[str, float]:
    """Extract the profile's op counts from a metrics snapshot.

    Only the allowlisted deterministic counters in
    :data:`METRIC_COUNTERS` are folded in; absent metrics are simply
    omitted so profiles from partially instrumented runs stay small.
    """
    metrics = snapshot.get("metrics", {})
    out: dict[str, float] = {}
    for metric_name, counter_name in METRIC_COUNTERS:
        entry = metrics.get(metric_name)
        if entry is None:
            continue
        total = sum(value.get("value", 0.0) for value in entry.get("values", []))
        out[counter_name] = total
    return out


def profile_grid(
    grid: "Grid",
    meta: Optional[Mapping[str, Any]] = None,
) -> Profile:
    """Profile a finished :class:`~repro.gridenv.Grid` run.

    Combines the tracer's spans, the metrics registry's op counters,
    and — when the grid was built ``with_profiling()`` — the kernel op
    counts recorded by its :class:`~repro.prof.counters.OpCounters`.
    """
    counters = counters_from_metrics(grid.tracer.metrics.snapshot())
    if grid.counters is not None:
        counters.update(grid.counters.snapshot())
    return profile_spans(grid.tracer.spans, counters=counters, meta=meta)
