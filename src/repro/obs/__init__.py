"""Grid-wide observability: causal tracing, metrics, trace queries.

Three pillars (see docs/OBSERVABILITY.md):

- **Causal tracing** — ``repro.simcore.tracing`` spans carry
  ``trace_id``/``span_id``/``parent_id`` and contexts ride on network
  messages, so one DUROC request is one trace tree.
- **Metrics** — :mod:`repro.simcore.metrics` instruments (re-exported
  here) keyed to the simulated clock, wired into transport, GRAM,
  DUROC, and schedulers.
- **Queries** — exporters (:mod:`repro.obs.export`), tree/critical-path
  analysis (:mod:`repro.obs.query`), renderers (:mod:`repro.obs.render`)
  and the ``python -m repro.obs`` CLI.
- **Streaming** — :mod:`repro.obs.streaming` sinks behind the tracer's
  :class:`~repro.simcore.tracing.SpanSink` seam: deterministic trace
  sampling, bounded-memory aggregation, incremental JSONL export.
- **Post-mortem** — :mod:`repro.obs.flightrec` is a probe flown as an
  always-on black box: bounded ring buffers,
  declarative failure triggers, canonical JSON dumps; rendered by
  :mod:`repro.obs.blackbox` (``python -m repro.obs blackbox``).
"""

from repro.obs.blackbox import diff_dumps, load_dump, merge_timeline
from repro.obs.flightrec import (
    DEFAULT_TRIGGERS,
    FLIGHT_FORMAT,
    FlightRecorder,
    FlightRing,
    OnAbort,
    OnBreakerOpen,
    OnFault,
    OnPredicate,
    OnProcessFailure,
    OnRetryExhausted,
    Trigger,
    dump_digest,
    dump_json,
    write_dump,
)
from repro.obs.streaming import (
    AGGREGATE_FORMAT,
    AggregatingSink,
    JsonlStreamSink,
    TelemetryPipeline,
    TraceSampler,
    aggregate_trace,
    load_aggregate,
)
from repro.simcore.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    WindowedRate,
)

__all__ = [
    "AGGREGATE_FORMAT",
    "AggregatingSink",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_TRIGGERS",
    "FLIGHT_FORMAT",
    "FlightRecorder",
    "FlightRing",
    "Gauge",
    "Histogram",
    "JsonlStreamSink",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "OnAbort",
    "OnBreakerOpen",
    "OnFault",
    "OnPredicate",
    "OnProcessFailure",
    "OnRetryExhausted",
    "TelemetryPipeline",
    "TraceSampler",
    "Trigger",
    "WindowedRate",
    "aggregate_trace",
    "diff_dumps",
    "dump_digest",
    "dump_json",
    "load_aggregate",
    "load_dump",
    "merge_timeline",
    "write_dump",
]
