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
- **Post-mortem** — :mod:`repro.obs.flightrec` is a probe flown as an
  always-on black box: one bounded deque per record category, one
  rule table of failure signals, canonical JSON dumps; rendered by
  :mod:`repro.obs.blackbox` (``python -m repro.obs blackbox``).
"""

from repro.obs.blackbox import diff_dumps, load_dump, merge_timeline
from repro.obs.flightrec import (
    FLIGHT_FORMAT,
    FlightRecorder,
    dump_digest,
    dump_json,
    write_dump,
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
    "Counter",
    "DEFAULT_BUCKETS",
    "FLIGHT_FORMAT",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "WindowedRate",
    "diff_dumps",
    "dump_digest",
    "dump_json",
    "load_dump",
    "merge_timeline",
    "write_dump",
]
