"""Structured trace recording with causal linkage.

Components record *spans* (named intervals with attributes) and *marks*
(instantaneous annotated points).  Every span carries a ``trace_id`` /
``span_id`` / ``parent_id`` triple so a DUROC request and everything it
causes — gatekeeper handling, jobmanager phases, application start-up,
barrier check-ins — form one causally-linked tree.  The Fig. 5 timeline
reproduction and the Fig. 3 cost breakdown are both queries over a
trace, and the determinism tests compare traces across runs.

Causality is propagated *explicitly*: simulated processes interleave on
one real thread, so there is no ambient "current span" — a parent
context is passed as a value (and rides on network messages as
``Message.trace_ctx``).  Ids are allocated from per-tracer counters,
never module-level ones, so a run executed in isolation produces the
same ids as the same run executed after another.

Every span open, span close and mark is announced on the environment's
probe (:mod:`repro.simcore.probe`), like kernel and network events.
A tracer retains every completed span and mark in memory: the paper's
runs are a handful of requests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

from repro.simcore.metrics import NULL_METRICS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment

#: Process-parameter key under which a spawned job's trace context is
#: made visible to application code (see ``repro.core.applib``).
OBS_CONTEXT_PARAM = "obs.ctx"


@dataclass(frozen=True, slots=True)
class TraceContext:
    """A position in a trace: which tree, and which node to hang off."""

    trace_id: str
    span_id: int


@dataclass(frozen=True, slots=True)
class Span:
    """A named interval of simulated time with free-form attributes."""

    name: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None
    span_id: Optional[int] = None
    parent_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def context(self) -> Optional[TraceContext]:
        """Context for parenting children under this span."""
        if self.trace_id is None or self.span_id is None:
            return None
        return TraceContext(self.trace_id, self.span_id)

    def key(self) -> tuple:
        """Hashable identity used by determinism comparisons."""
        return (
            self.name,
            self.start,
            self.end,
            tuple(sorted(self.attrs.items())),
            self.trace_id,
            self.span_id,
            self.parent_id,
        )


@dataclass(frozen=True, slots=True)
class Mark:
    """An instantaneous annotated event, optionally tied into a trace."""

    name: str
    time: float
    attrs: dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None
    parent_id: Optional[int] = None

    def key(self) -> tuple:
        return (
            self.name,
            self.time,
            tuple(sorted(self.attrs.items())),
            self.trace_id,
            self.parent_id,
        )


Parent = Union[TraceContext, Span, "_OpenSpan", None]


class _OpenSpan:
    """In-flight span; records itself on ``close()``/``finish()``/exit."""

    __slots__ = (
        "tracer", "name", "attrs", "start",
        "trace_id", "span_id", "parent_id", "_closed",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict[str, Any],
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = tracer.env.now
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self._closed = False

    @property
    def context(self) -> TraceContext:
        """Context for parenting children under this (still open) span."""
        return TraceContext(self.trace_id, self.span_id)

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._closed:
            return
        self._closed = True
        self.tracer._emit_span(
            Span(
                self.name,
                self.start,
                self.tracer.env.now,
                # A closed span's attrs are never written again: the
                # finished Span takes the dict over.
                self.attrs,
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
            )
        )

    def close(self) -> None:
        self.__exit__(None, None, None)

    def finish(self, **extra_attrs: Any) -> None:
        """Close the span, merging in outcome attributes first."""
        if not self._closed:
            self.attrs.update(extra_attrs)
        self.close()


class Tracer:
    """Collects spans and marks against an environment's clock.

    Also owns the run's :class:`~repro.simcore.metrics.MetricsRegistry`
    (:attr:`metrics`), which shares its clock.  Every completed record
    is appended to :attr:`spans` / :attr:`marks`.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.spans: list[Span] = []
        self.marks: list[Mark] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self.metrics = MetricsRegistry(env)
        self._spans_by_name: Optional[dict[str, list[Span]]] = None
        self._spans_indexed = 0
        self._marks_by_name: Optional[dict[str, list[Mark]]] = None
        self._marks_indexed = 0

    def _resolve_parent(self, parent: Parent) -> tuple[str, Optional[int]]:
        """Trace id + parent span id for a new span: fresh trace if no parent."""
        if parent is None:
            return f"trace-{next(self._trace_ids)}", None
        if isinstance(parent, (TraceContext, _OpenSpan)):
            return parent.trace_id, parent.span_id
        if isinstance(parent, Span):
            if parent.trace_id is None or parent.span_id is None:
                return f"trace-{next(self._trace_ids)}", None
            return parent.trace_id, parent.span_id
        raise TypeError(f"cannot parent a span on {parent!r}")

    def span(self, name: str, parent: Parent = None, **attrs: Any) -> _OpenSpan:
        """Open a span; close it via ``with``, ``close()`` or ``finish()``.

        With no ``parent`` the span roots a fresh trace.  Note: spans
        opened across a process ``yield`` must be closed explicitly
        (the ``with`` form only works for purely synchronous sections);
        :meth:`record` is often simpler for yield-spanning intervals.
        """
        trace_id, parent_id = self._resolve_parent(parent)
        span_id = next(self._span_ids)
        self._announce_open(trace_id, span_id, parent_id, name)
        return _OpenSpan(self, name, attrs, trace_id, span_id, parent_id)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Parent = None,
        **attrs: Any,
    ) -> Span:
        """Record a completed span directly."""
        trace_id, parent_id = self._resolve_parent(parent)
        span_id = next(self._span_ids)
        self._announce_open(trace_id, span_id, parent_id, name)
        span = Span(
            name, start, end, attrs,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
        )
        self._emit_span(span)
        return span

    def mark(self, name: str, parent: Parent = None, **attrs: Any) -> Mark:
        """Record an instantaneous mark at the current time."""
        trace_id: Optional[str] = None
        parent_id: Optional[int] = None
        if parent is not None:
            trace_id, parent_id = self._resolve_parent(parent)
        mark = Mark(name, self.env.now, attrs, trace_id=trace_id, parent_id=parent_id)
        probe = self.env.probe
        if probe is not None:
            probe.on_mark(mark)
        self.marks.append(mark)
        return mark

    # -- emission ----------------------------------------------------------

    def _announce_open(
        self, trace_id: str, span_id: int, parent_id: Optional[int], name: str
    ) -> None:
        probe = self.env.probe
        if probe is not None:
            probe.on_span_open(trace_id, span_id, parent_id, name)

    def _emit_span(self, span: Span) -> None:
        """Announce a completed span, then retain it."""
        probe = self.env.probe
        if probe is not None:
            probe.on_span_close(span)
        self.spans.append(span)

    # -- queries -----------------------------------------------------------

    def _span_index(self) -> dict[str, list[Span]]:
        """Name → spans, built lazily and extended on append-only growth."""
        spans = self.spans
        count = len(spans)
        index = self._spans_by_name
        if index is None or count < self._spans_indexed:
            index = self._spans_by_name = {}
            self._spans_indexed = 0
        if count > self._spans_indexed:
            for span in spans[self._spans_indexed:]:
                bucket = index.get(span.name)
                if bucket is None:
                    bucket = index[span.name] = []
                bucket.append(span)
            self._spans_indexed = count
        return index

    def _mark_index(self) -> dict[str, list[Mark]]:
        marks = self.marks
        count = len(marks)
        index = self._marks_by_name
        if index is None or count < self._marks_indexed:
            index = self._marks_by_name = {}
            self._marks_indexed = 0
        if count > self._marks_indexed:
            for mark in marks[self._marks_indexed:]:
                bucket = index.get(mark.name)
                if bucket is None:
                    bucket = index[mark.name] = []
                bucket.append(mark)
            self._marks_indexed = count
        return index

    def spans_named(self, name: str, **attr_filter: Any) -> list[Span]:
        """All spans with the given name whose attrs include the filter.

        Indexed: repeated queries cost O(matches), not O(total spans).
        """
        matches = self._span_index().get(name, [])
        if not attr_filter:
            return list(matches)
        return [s for s in matches if _match(s.attrs, attr_filter)]

    def marks_named(self, name: str, **attr_filter: Any) -> list[Mark]:
        matches = self._mark_index().get(name, [])
        if not attr_filter:
            return list(matches)
        return [m for m in matches if _match(m.attrs, attr_filter)]

    def total(self, name: str, **attr_filter: Any) -> float:
        """Summed duration of all matching spans."""
        return sum(s.duration for s in self.spans_named(name, **attr_filter))

    def timeline(self) -> Iterator[tuple[float, str, str]]:
        """All span edges and marks in time order, for rendering."""
        entries: list[tuple[float, str, str]] = []
        for s in self.spans:
            entries.append((s.start, "begin", s.name))
            entries.append((s.end, "end", s.name))
        for m in self.marks:
            entries.append((m.time, "mark", m.name))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        return iter(entries)

    def fingerprint(self) -> tuple:
        """Order-insensitive hashable digest used by determinism tests."""
        return (
            tuple(sorted(s.key() for s in self.spans)),
            tuple(sorted(m.key() for m in self.marks)),
        )


def _match(attrs: dict[str, Any], attr_filter: dict[str, Any]) -> bool:
    return all(attrs.get(k) == v for k, v in attr_filter.items())


class _NullSpan:
    """Shared inert open-span; context is None so children root nowhere."""

    __slots__ = ()

    context: Optional[TraceContext] = None
    name = ""
    start = 0.0
    attrs: dict[str, Any] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def close(self) -> None:
        pass

    def finish(self, **extra_attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Tracer that drops everything — for hot paths when not measuring.

    API-complete against :class:`Tracer`: context propagation is a
    no-op (spans have no context, so children root nowhere and are
    dropped anyway) and :attr:`metrics` is the shared no-op registry.
    Instrumented code must behave identically under a ``NullTracer``.
    """

    def __init__(self) -> None:
        self.env = _FrozenClock()  # type: ignore[assignment]
        self.spans = _DropList()
        self.marks = _DropList()
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self.metrics = NULL_METRICS
        self._spans_by_name = None
        self._spans_indexed = 0
        self._marks_by_name = None
        self._marks_indexed = 0

    def span(self, name: str, parent: Parent = None, **attrs: Any) -> _OpenSpan:
        return _NULL_SPAN  # type: ignore[return-value]

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Parent = None,
        **attrs: Any,
    ) -> Span:
        return Span(name, start, end, attrs)

    def mark(self, name: str, parent: Parent = None, **attrs: Any) -> Mark:
        return Mark(name, self.env.now, attrs)


class _DropList(list):
    def append(self, item: Any) -> None:  # noqa: D401
        pass


class _FrozenClock:
    now = 0.0


#: The default ``Environment.tracer``: shared, drops everything.
NULL_TRACER = NullTracer()
