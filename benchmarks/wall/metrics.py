"""Every metric the observatory reports, declared once.

``BENCHMARK.json`` at the repo root restates :data:`END_TO_END` (the
three gated ones) and :data:`PER_LAYER`; a test keeps the two in step.
Which end-to-end metric each layer metric should move, and on which
workload, is the README's per-layer table.
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.wall.layers import LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end: the share by which it may worsen before a change is a
    #: regression.  ``None`` on per-layer metrics (never gated).
    bound: float | None = None


#: Gated by the driver through ``BENCHMARK.json``.
END_TO_END = (
    Metric("ops_per_ref_s", "1/s", "higher", 0.20),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Also end to end, but exact: any rise (fall) fails.  The driver reads
#: them as ``failed``/``attempted`` and ``correct``; a metric that is 0
#: on a healthy commit cannot carry a relative bound.
EXACT_END_TO_END = (
    Metric("failed_frac", "fraction", "lower", 0.0),
    Metric("sim_digest_stable", "0/1", "higher", 0.0),
)

PER_LAYER = tuple(
    metric
    for layer in LAYERS
    for metric in (
        Metric(f"{layer}.self_s", "s", "lower"),
        Metric(f"{layer}.self_frac", "fraction", "lower"),
        Metric(f"{layer}.calls", "count", "lower"),
    )
) + (
    Metric("simcore.events_scheduled", "count", "lower"),
    Metric("simcore.events_processed", "count", "lower"),
    Metric("simcore.events_per_op", "1/op", "lower"),
    Metric("simcore.cancelled_frac", "fraction", "lower"),
    Metric("simcore.ref_us_per_event", "us", "lower"),
    Metric("simcore.store_grant_attempts_per_get", "ratio", "lower"),
    Metric("net.messages_sent", "count", "lower"),
    Metric("net.messages_per_op", "1/op", "lower"),
    Metric("net.rpc_calls", "count", "lower"),
    Metric("net.rpc_per_op", "1/op", "lower"),
    Metric("gsi.handshakes", "count", "lower"),
    Metric("rsl.parses", "count", "lower"),
    Metric("gram.submits", "count", "lower"),
    Metric("gram.jobs_per_op", "1/op", "lower"),
    Metric("schedulers.submits", "count", "lower"),
    Metric("machine.spawns", "count", "lower"),
    Metric("core.submits", "count", "lower"),
    Metric("core.edits", "count", "lower"),
    Metric("core.barrier_checkins", "count", "lower"),
    Metric("core.sim_commit_p50_s", "sim_s", "lower"),
    Metric("core.sim_commit_max_s", "sim_s", "lower"),
    Metric("broker.attempts", "count", "lower"),
    Metric("broker.substitutions", "count", "lower"),
    Metric("broker.success_frac", "fraction", "higher"),
    Metric("obs.overhead_ratio", "ratio", "lower"),
    Metric("obs.spans_recorded", "count", "lower"),
    Metric("obs.spans_retained_high_water", "count", "lower"),
    Metric("verify.events_recorded", "count", "lower"),
    Metric("verify.findings", "count", "lower"),
    Metric("verify.evaluate_s", "s", "lower"),
    Metric("bench.raw_ops_per_s", "1/s", "higher"),
    Metric("bench.calib_s", "s", "lower"),
    Metric("bench.calib_spread", "fraction", "lower"),
    Metric("bench.repeat_spread", "fraction", "lower"),
    Metric("bench.trace_overhead_ratio", "ratio", "lower"),
)

PER_LAYER_NAMES = tuple(metric.name for metric in PER_LAYER)
