"""Unit tests for the deterministic metrics registry."""

import pytest

from repro.simcore import Environment
from repro.simcore.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    SUMMARY_QUANTILES,
    MetricsRegistry,
    NullMetricsRegistry,
    histogram_summary,
)
from tests.metric_reads import series, value


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def registry(env):
    return MetricsRegistry(env)


class TestCounter:
    def test_labelled_series_are_independent(self, registry):
        registry.bind("counter", "jobs_total", site="RM1").inc()
        registry.bind("counter", "jobs_total", site="RM2").inc(2)
        assert value(registry, "jobs_total", site="RM1") == 1
        assert value(registry, "jobs_total", site="RM2") == 2
        assert value(registry, "jobs_total", site="RM3") == 0
        assert registry.counter("jobs_total").total() == 3

    def test_label_order_is_irrelevant(self, registry):
        registry.bind("counter", "x", a=1, b=2).inc()
        registry.bind("counter", "x", b=2, a=1).inc()
        assert value(registry, "x", b=2, a=1) == 2
        assert len(registry.snapshot()["metrics"]["x"]["values"]) == 1

    def test_counters_cannot_decrease(self, registry):
        handle = registry.bind("counter", "x")
        handle.inc()
        with pytest.raises(ValueError):
            handle.inc(-1)
        assert value(registry, "x") == 1


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.bind("gauge", "depth")
        g.inc()
        g.inc()
        g.dec()
        assert value(registry, "depth") == 1
        g.set(7)
        assert value(registry, "depth") == 7

    def test_high_water_survives_drain(self, registry):
        g = registry.bind("gauge", "occupancy")
        for _ in range(5):
            g.inc()
        for _ in range(5):
            g.dec()
        assert series(registry, "occupancy") == {
            "labels": {}, "value": 0, "high_water": 5
        }


class TestHistogram:
    def test_bucketing_and_quantiles(self, registry):
        h = registry.bind("histogram", "lat")
        for v in (0.05, 0.05, 0.5, 0.5, 0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        observed = series(registry, "lat")
        assert observed["count"] == registry.histogram("lat").count() == 8
        assert observed["sum"] == pytest.approx(556.6)
        assert (observed["min"], observed["max"]) == (0.05, 500.0)
        summary = histogram_summary(observed, quantiles=(0.25, 0.5, 1.0))
        # Ranks: p25 falls in the 0.05 bucket, p50 in the 0.5 bucket.
        assert summary["p25"] == 0.05
        assert summary["p50"] == 0.5
        # Beyond the last finite bucket the recorded max is returned.
        assert summary["p100"] == 500.0

    def test_empty_quantile_is_zero(self, registry):
        # An instrument nothing observed exports no series to summarize.
        assert registry.histogram("lat").count() == 0
        assert registry.snapshot()["metrics"]["lat"]["values"] == []

    def test_snapshot_has_cumulative_buckets(self, registry):
        h = registry.bind("histogram", "lat")
        h.observe(0.5)
        h.observe(1.5)
        h.observe(99.0)
        buckets = series(registry, "lat")["buckets"]
        assert [b["le"] for b in buckets] == [*DEFAULT_BUCKETS, "+Inf"]
        cumulative = {b["le"]: b["count"] for b in buckets}
        assert (cumulative[0.25], cumulative[0.5], cumulative[1.0]) == (0, 1, 1)
        assert (cumulative[2.5], cumulative[60.0], cumulative[120.0]) == (2, 2, 3)
        assert cumulative["+Inf"] == 3


class TestHistogramSummary:
    def _value(self, registry, observations):
        h = registry.bind("histogram", "lat")
        for v in observations:
            h.observe(v)
        return series(registry, "lat")

    def test_default_quantiles(self, registry):
        summary = histogram_summary(
            self._value(registry, (0.05, 0.5, 0.5, 5.0))
        )
        assert sorted(summary) == ["p50", "p90", "p99"]
        assert summary["p50"] == 0.5
        assert summary["p90"] == 5.0
        assert summary["p99"] == 5.0

    def test_tail_beyond_last_bucket_uses_max(self, registry):
        summary = histogram_summary(self._value(registry, (0.5, 500.0)))
        assert summary["p99"] == 500.0

    def test_empty_histogram_summary_is_zero(self):
        # An unobserved series never appears in a snapshot, but exports
        # from older runs may carry zero-count values.
        value = {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "buckets": []}
        summary = histogram_summary(value)
        assert summary == {"p50": 0.0, "p90": 0.0, "p99": 0.0}

    def test_custom_quantiles(self, registry):
        value = self._value(registry, (0.05, 0.05, 0.5, 5.0))
        summary = histogram_summary(value, quantiles=(0.25,))
        assert summary == {"p25": 0.05}

    def test_default_quantile_constant(self):
        assert SUMMARY_QUANTILES == (0.5, 0.9, 0.99)


class TestWindowedRate:
    def test_rate_over_simulated_window(self, env, registry):
        r = registry.bind("rate", "sends")

        def proc(env):
            for _ in range(20):
                r.tick()
                yield env.timeout(1.0)

        env.run(env.process(proc(env)))
        # At t=20 the window [10, 20] holds the ticks at t=11..19 plus
        # pruning of the boundary tick at t=10.
        sends = series(registry, "sends")
        assert sends["window"] == 10.0
        assert sends["in_window"] == 9
        assert sends["rate"] == pytest.approx(0.9)
        assert sends["total"] == 20

    def test_zero_without_events(self, registry):
        registry.rate("quiet")
        assert registry.snapshot()["metrics"]["quiet"]["values"] == []


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_type_mismatch_is_an_error(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_deterministic(self, env):
        def build(registry):
            registry.bind("counter", "b", site="RM2").inc()
            registry.bind("counter", "a").inc()
            registry.bind("histogram", "h").observe(0.01)
            registry.bind("gauge", "g").set(3)
            return registry.snapshot()

        assert build(MetricsRegistry(env)) == build(MetricsRegistry(env))

    def test_snapshot_times_track_the_clock(self, env, registry):
        def proc(env):
            yield env.timeout(7.5)

        env.run(env.process(proc(env)))
        assert registry.snapshot()["time"] == 7.5

    def test_names_sorted(self, registry):
        registry.gauge("z")
        registry.counter("a")
        assert list(registry.snapshot()["metrics"]) == ["a", "z"]


class TestNullRegistry:
    def test_every_instrument_is_inert(self):
        null = NullMetricsRegistry()
        null.bind("counter", "x", site="RM1").inc()
        null.bind("gauge", "x").set(5)
        null.bind("histogram", "x").observe(1.0)
        null.bind("rate", "x").tick()
        assert null.counter("x").total() == 0.0
        assert null.histogram("x").count() == 0
        assert null.snapshot() == {"time": 0.0, "metrics": {}}

    def test_shared_singleton(self):
        assert NULL_METRICS.counter("anything") is NULL_METRICS.gauge("other")

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))
        assert all(isinstance(bound, float) for bound in DEFAULT_BUCKETS)


class TestBoundSeries:
    def test_unwritten_handle_leaves_the_registry_untouched(self, registry):
        registry.counter("declared")
        snapshot = registry.snapshot()
        handles = [
            registry.bind("counter", "c", site="RM1"),
            registry.bind("gauge", "g", site="RM1"),
            registry.bind("histogram", "h", site="RM1"),
            registry.bind("rate", "r", site="RM1"),
            # On an instrument that exists: no series before a write.
            registry.bind("counter", "declared", site="RM1"),
        ]
        assert list(snapshot["metrics"]) == ["declared"]
        assert registry.snapshot() == snapshot
        # Instrument and series arrive together, with the first write.
        handles[0].inc()
        assert list(registry.snapshot()["metrics"]) == ["c", "declared"]
        assert registry.snapshot()["metrics"]["c"]["values"] == [
            {"labels": {"site": "RM1"}, "value": 1.0}
        ]

    def test_bind_passes_the_accessor_arguments(self, registry):
        registry.bind("histogram", "h", site="RM1").observe(1.5)
        assert registry.snapshot()["metrics"]["h"]["type"] == "histogram"
        assert registry.histogram("h").count() == 1
        with pytest.raises(KeyError):
            registry.bind("summary", "s")

    def test_type_mismatch_surfaces_at_the_first_write(self, registry):
        registry.counter("x")
        handle = registry.bind("gauge", "x")
        with pytest.raises(TypeError):
            handle.set(1)

    def test_two_handles_share_one_series(self, registry):
        first = registry.bind("histogram", "h", site="RM1")
        second = registry.bind("histogram", "h", site="RM1")
        first.observe(0.1)
        second.observe(0.2)
        assert series(registry, "h", site="RM1")["count"] == 2
        first, second = registry.bind("rate", "r"), registry.bind("rate", "r")
        first.tick()
        second.tick()
        assert series(registry, "r")["total"] == 2

    def test_bound_counter_cannot_decrease(self, registry):
        handle = registry.bind("counter", "x")
        with pytest.raises(ValueError, match="'x' cannot decrease"):
            handle.inc(-1)
        assert registry.counter("x").total() == 0

    def test_null_instrument_binds_to_itself(self):
        null = NULL_METRICS.counter("x")
        handle = NULL_METRICS.bind("counter", "x", k="v")
        assert handle is null
        assert NULL_METRICS.bind("histogram", "y") is null
        handle.inc()
        handle.observe(1.0)
        handle.tick()
        assert NULL_METRICS.snapshot() == {"time": 0.0, "metrics": {}}
