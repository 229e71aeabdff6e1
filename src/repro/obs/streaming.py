"""Streaming telemetry: bounded-memory sinks over the tracer seam.

At paper scale a run's whole trace fits in memory and the end-of-run
exporters in :mod:`repro.obs.export` are the right tool.  At the
10⁵–10⁶-event scale ROADMAP item 1 targets, retaining every
:class:`~repro.simcore.tracing.Span` makes the observability layer the
dominant memory cost.  This module keeps the repo's signature property
— byte-identical output across runs — while folding, sampling, or
spilling spans *as they complete*, through the
:class:`~repro.simcore.tracing.SpanSink` seam:

* :class:`TraceSampler` — Dapper-style head-based sampling: keep/drop
  is decided once per ``trace_id`` by a seeded pure hash (never
  ``hash()``, which varies per process), so whole causal trees are
  kept or dropped atomically and the kept set is identical across
  runs, machines, and interpreter invocations.
* :class:`AggregatingSink` — folds every completed span into
  path-keyed statistics (count, duration histograms) and per-label —
  e.g. per-tenant — latency/goodput series, reusing
  :class:`~repro.simcore.metrics.Histogram` instruments and retaining no
  span objects.  :func:`aggregate_trace` builds the identical
  aggregate post-hoc from a full dump, which is how the ``report``
  CLI's streamed and retained answers are cross-checked.
* :class:`JsonlStreamSink` — an incremental exporter: completed
  records pass through a bounded in-memory buffer, overflowing to
  sorted spill runs on disk; ``close()`` merges the runs into a file
  **byte-identical** to :func:`repro.obs.export.export_jsonl` over the
  same spans.
* :class:`TelemetryPipeline` — composes the three: aggregation sees
  every span (aggregates stay complete), the exporter and in-tracer
  retention see only sampled traces.

All sinks are observation-only: they schedule no events and draw no
random numbers, so a sinked run's simulation is byte-identical to a
bare one (gated in CI by ``benchmarks/streaming_gate.py``).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    # Imported lazily at construction time: repro.core's package init
    # reaches repro.net, which imports this module's package — a
    # module-level import here would close that cycle.
    from repro.core.bounded import BoundedDict

from repro.obs.export import (
    FORMAT_VERSION,
    TraceSource,
    dumps_record,
    mark_record,
    span_record,
)
from repro.obs.query import SpanNode, build_forest
from repro.simcore.metrics import DEFAULT_BUCKETS, Histogram
from repro.simcore.tracing import Mark, Span, SpanSink

#: Aggregate snapshot format identifier (the ``report`` CLI's input).
AGGREGATE_FORMAT = "repro.obs.aggregate/1"

#: Decimal places kept for duration sums in aggregate snapshots — the
#: same 1 ns resolution :mod:`repro.prof` uses, so fold order (streamed
#: completion order vs. post-hoc forest order) cannot leak into bytes.
ROUND = 9

#: Span attribute keys aggregated as label dimensions by default.
DEFAULT_LABEL_KEYS: tuple[str, ...] = ("tenant", "job")

#: Default bound on records buffered by the incremental exporter.
DEFAULT_BUFFER_SIZE = 1024

#: Bound on cached per-trace state (sampling decisions, id→path
#: indexes).  LRU over trace ids: both caches are recomputable-or-
#: degradable for evicted traces, and the bound comfortably exceeds
#: the number of traces concurrently open in any workload.
TRACE_CACHE_MAX = 4096


class TraceSampler:
    """Deterministic head-based trace sampling: 1-in-``keep_one_in``.

    The decision is a pure function of ``(seed, trace_id)`` — the
    first 8 bytes of a SHA-256 digest reduced modulo ``keep_one_in`` —
    so it is identical across runs and machines, and every span or
    mark of a trace shares its root's fate (whole-tree atomicity).
    Records with no ``trace_id`` are always kept: they cannot be
    attributed to a tree, and dropping them would lose orphan context.
    """

    def __init__(self, keep_one_in: int, seed: int = 0) -> None:
        from repro.core.bounded import BoundedDict

        if keep_one_in < 1:
            raise ValueError(f"keep_one_in must be >= 1, got {keep_one_in!r}")
        self.keep_one_in = int(keep_one_in)
        self.seed = int(seed)
        #: Decision memo.  Bounded LRU: the decision is a pure function
        #: of (seed, trace_id), so an evicted entry is recomputed to
        #: the identical value — the cache only saves the digest.
        self._decisions: "BoundedDict[str, bool]" = BoundedDict(
            TRACE_CACHE_MAX
        )

    def keep(self, trace_id: Optional[str]) -> bool:
        """Whether the trace is in the kept set (cached per trace id)."""
        if trace_id is None or self.keep_one_in == 1:
            return True
        decision = self._decisions.get(trace_id)
        if decision is None:
            digest = hashlib.sha256(
                f"{self.seed}|{trace_id}".encode("utf-8")
            ).digest()
            decision = (
                int.from_bytes(digest[:8], "big") % self.keep_one_in == 0
            )
            self._decisions[trace_id] = decision
        return decision

    def kept_ids(self, trace_ids: Sequence[Optional[str]]) -> set[str]:
        """The subset of ``trace_ids`` this sampler keeps."""
        return {tid for tid in trace_ids if tid is not None and self.keep(tid)}


class AggregatingSink(SpanSink):
    """Folds completed spans into path- and label-keyed statistics.

    No span objects are retained: each completion lands in a
    fixed-bucket :class:`~repro.simcore.metrics.Histogram` series keyed by
    the span's *path* (the ``;``-joined root-to-span name chain, the
    same convention as :mod:`repro.prof`) and, for every configured
    label key present in its attrs, a per-label-value series plus an
    activity window for goodput.  Paths are resolved at span *open*
    time — the tracer announces ids through
    :meth:`~repro.simcore.tracing.SpanSink.on_span_start`, so a
    child's chain is known even while its ancestors are still open —
    and the per-trace id→path index holds one interned string per
    span, not the span itself.
    """

    def __init__(
        self,
        label_keys: Sequence[str] = DEFAULT_LABEL_KEYS,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        from repro.core.bounded import BoundedDict

        self.label_keys = tuple(label_keys)
        #: Per-trace id→path index, LRU-bounded over trace ids.  The
        #: bound far exceeds concurrently-open traces; spans of a trace
        #: old enough to be evicted fold under their bare name.
        self._paths: "BoundedDict[str, dict[int, str]]" = BoundedDict(
            TRACE_CACHE_MAX
        )
        self._durations = Histogram(
            "obs.path_duration", "span durations by path", buckets
        )
        self._labels: dict[str, Histogram] = {
            key: Histogram(
                f"obs.{key}_duration", f"span durations by {key}", buckets
            )
            for key in self.label_keys
        }
        self._label_windows: dict[str, dict[str, list[float]]] = {
            key: {} for key in self.label_keys
        }
        self._mark_names: dict[str, int] = {}
        self._span_count = 0
        self._mark_count = 0
        self._window: Optional[list[float]] = None

    # -- sink hooks --------------------------------------------------------

    def on_span_start(
        self,
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
    ) -> None:
        per_trace = self._paths.get(trace_id)
        if per_trace is None:
            per_trace = self._paths[trace_id] = {}
        parent_path = (
            per_trace.get(parent_id) if parent_id is not None else None
        )
        path = f"{parent_path};{name}" if parent_path else name
        per_trace[span_id] = sys.intern(path)

    def on_span(self, span: Span) -> bool:
        self.fold(self.path_of(span), span)
        return False

    def on_mark(self, mark: Mark) -> bool:
        self._mark_count += 1
        # Code-bounded: keyed by mark *name* (one per instrumentation
        # site), not per occurrence.
        self._mark_names[mark.name] = (  # repro: noqa mem-grow-only-attr
            self._mark_names.get(mark.name, 0) + 1
        )
        return False

    # -- folding -----------------------------------------------------------

    def path_of(self, span: Span) -> str:
        """The announced path of ``span`` (its own name if unannounced)."""
        if span.trace_id is not None and span.span_id is not None:
            per_trace = self._paths.get(span.trace_id)
            if per_trace is not None:
                path = per_trace.get(span.span_id)
                if path is not None:
                    return path
        return span.name

    def fold(self, path: str, span: Span) -> None:
        """Fold one completed span (at ``path``) into the aggregates."""
        self._span_count += 1
        duration = span.duration
        self._durations.observe(duration, path=path)
        if self._window is None:
            self._window = [span.start, span.end]
        else:
            if span.start < self._window[0]:
                self._window[0] = span.start
            if span.end > self._window[1]:
                self._window[1] = span.end
        for key in self.label_keys:
            value = span.attrs.get(key)
            if value is None:
                continue
            text = str(value)
            self._labels[key].observe(duration, **{key: text})
            windows = self._label_windows[key]
            window = windows.get(text)
            if window is None:
                windows[text] = [span.start, span.end]
            else:
                if span.start < window[0]:
                    window[0] = span.start
                if span.end > window[1]:
                    window[1] = span.end

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The aggregates as a canonical, JSON-ready dict.

        Counts, min/max, and bucket counts are fold-order-insensitive
        by construction; sums are rounded to :data:`ROUND` decimals so
        streamed-completion order and post-hoc forest order produce
        the same bytes.
        """
        paths: dict[str, Any] = {}
        for value in self._durations.snapshot()["values"]:
            paths[value["labels"]["path"]] = _series_record(value)
        labels: dict[str, Any] = {}
        for key in self.label_keys:
            series: dict[str, Any] = {}
            for value in self._labels[key].snapshot()["values"]:
                name = value["labels"][key]
                record = _series_record(value)
                window = self._label_windows[key][name]
                record["window"] = {"start": window[0], "end": window[1]}
                series[name] = record
            if series:
                labels[key] = series
        return {
            "format": AGGREGATE_FORMAT,
            "spans": self._span_count,
            "marks": self._mark_count,
            "window": (
                {"start": self._window[0], "end": self._window[1]}
                if self._window is not None
                else None
            ),
            "paths": paths,
            "labels": labels,
            "mark_names": dict(sorted(self._mark_names.items())),
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the aggregate snapshot as sorted-key JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"
        )
        return path


def _series_record(value: dict[str, Any]) -> dict[str, Any]:
    """One histogram snapshot series, trimmed to the aggregate schema."""
    return {
        "count": value["count"],
        "sum": round(value["sum"], ROUND),
        "min": value["min"],
        "max": value["max"],
        "buckets": value["buckets"],
    }


def aggregate_trace(
    trace: TraceSource,
    label_keys: Sequence[str] = DEFAULT_LABEL_KEYS,
    buckets: tuple[float, ...] = DEFAULT_BUCKETS,
) -> AggregatingSink:
    """Build the post-hoc aggregate of a fully retained trace.

    Paths are assigned by causal-forest assembly (exactly as
    :mod:`repro.prof` does) and folded through the same sink, so for
    any run whose spans all completed with recorded parents the result
    is byte-identical to the streamed aggregate.
    """
    sink = AggregatingSink(label_keys=label_keys, buckets=buckets)

    def visit(node: SpanNode, prefix: str) -> None:
        path = f"{prefix};{node.span.name}" if prefix else node.span.name
        sink.fold(path, node.span)
        for child in node.children:
            visit(child, path)

    for root in build_forest(trace.spans):
        visit(root, "")
    for mark in trace.marks:
        sink.on_mark(mark)
    return sink


def load_aggregate(path: Union[str, Path]) -> dict[str, Any]:
    """Load an aggregate snapshot, validating its format marker."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != AGGREGATE_FORMAT:
        raise ValueError(f"{path}: not a {AGGREGATE_FORMAT} snapshot")
    return data


class JsonlStreamSink(SpanSink):
    """Incremental JSONL export through a bounded buffer.

    Completed records accumulate as ``(sort_key, line)`` pairs; when a
    buffer reaches ``buffer_size`` it is sorted and spilled to a run
    file next to the destination.  :meth:`close` merges the sorted
    runs (``heapq.merge`` — streaming, never all in memory) and writes
    the final file: meta line, spans by ``(start, line)``, marks by
    ``(time, line)`` — the exact order and bytes of
    :func:`repro.obs.export.export_jsonl`, proven by the byte-identity
    tests over every bench scenario.
    """

    def __init__(
        self,
        path: Union[str, Path],
        buffer_size: int = DEFAULT_BUFFER_SIZE,
    ) -> None:
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size!r}")
        self.path = Path(path)
        self.buffer_size = int(buffer_size)
        self._spans: list[tuple[float, str]] = []
        self._marks: list[tuple[float, str]] = []
        self._span_runs: list[Path] = []
        self._mark_runs: list[Path] = []
        self._span_count = 0
        self._mark_count = 0
        self._closed = False

    # -- sink hooks --------------------------------------------------------

    def on_span(self, span: Span) -> bool:
        self._span_count += 1
        self._spans.append((span.start, dumps_record(span_record(span))))
        if len(self._spans) >= self.buffer_size:
            self._spill(self._spans, self._span_runs, "spans")
        return False

    def on_mark(self, mark: Mark) -> bool:
        self._mark_count += 1
        self._marks.append((mark.time, dumps_record(mark_record(mark))))
        if len(self._marks) >= self.buffer_size:
            self._spill(self._marks, self._mark_runs, "marks")
        return False

    def retained(self) -> int:
        return len(self._spans) + len(self._marks)

    # -- spill and merge ---------------------------------------------------

    def _spill(
        self,
        buffer: list[tuple[float, str]],
        runs: list[Path],
        kind: str,
    ) -> None:
        buffer.sort()
        run = self.path.with_name(f"{self.path.name}.{kind}{len(runs)}.run")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with run.open("w") as fh:
            for key, line in buffer:
                # repr() round-trips floats exactly, so the merge key
                # survives the disk trip bit-for-bit.
                fh.write(f"{key!r}\t{line}\n")
        runs.append(run)
        buffer.clear()

    @staticmethod
    def _iter_run(run: Path) -> Iterator[tuple[float, str]]:
        with run.open() as fh:
            for raw in fh:
                key, _, line = raw.rstrip("\n").partition("\t")
                yield (float(key), line)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._spans.sort()
        self._marks.sort()
        meta = dumps_record(
            {
                "record": "meta",
                "version": FORMAT_VERSION,
                "spans": self._span_count,
                "marks": self._mark_count,
            }
        )
        span_streams = [self._iter_run(r) for r in self._span_runs]
        span_streams.append(iter(self._spans))
        mark_streams = [self._iter_run(r) for r in self._mark_runs]
        mark_streams.append(iter(self._marks))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w") as fh:
            fh.write(meta + "\n")
            for _, line in heapq.merge(*span_streams):
                fh.write(line + "\n")
            for _, line in heapq.merge(*mark_streams):
                fh.write(line + "\n")
        for run in self._span_runs + self._mark_runs:
            run.unlink(missing_ok=True)
        self._span_runs.clear()
        self._mark_runs.clear()
        self._spans.clear()
        self._marks.clear()


class TelemetryPipeline(SpanSink):
    """The composed streaming pipeline: sample, aggregate, export.

    Aggregation sees **every** completion — the Dapper split: aggregates
    stay complete while traces are sampled — and the exporter plus the
    tracer's in-memory retention see only traces the sampler keeps.
    With ``retain=False`` (the default) nothing is kept on the tracer
    at all, so telemetry memory is bounded by the exporter's buffer
    plus the aggregate tables.
    """

    def __init__(
        self,
        sampler: Optional[TraceSampler] = None,
        aggregator: Optional[AggregatingSink] = None,
        exporter: Optional[JsonlStreamSink] = None,
        retain: bool = False,
    ) -> None:
        self.sampler = sampler
        self.aggregator = aggregator
        self.exporter = exporter
        self.retain = bool(retain)

    def on_span_start(
        self,
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
    ) -> None:
        if self.aggregator is not None:
            self.aggregator.on_span_start(trace_id, span_id, parent_id, name)

    def on_span(self, span: Span) -> bool:
        if self.aggregator is not None:
            self.aggregator.on_span(span)
        kept = self.sampler is None or self.sampler.keep(span.trace_id)
        if kept and self.exporter is not None:
            self.exporter.on_span(span)
        return kept and self.retain

    def on_mark(self, mark: Mark) -> bool:
        if self.aggregator is not None:
            self.aggregator.on_mark(mark)
        kept = self.sampler is None or self.sampler.keep(mark.trace_id)
        if kept and self.exporter is not None:
            self.exporter.on_mark(mark)
        return kept and self.retain

    def retained(self) -> int:
        return self.exporter.retained() if self.exporter is not None else 0

    def close(self) -> None:
        if self.exporter is not None:
            self.exporter.close()
