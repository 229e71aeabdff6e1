"""Unit tests for the deterministic metrics registry."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Environment
from repro.simcore.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    SUMMARY_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    WindowedRate,
    histogram_summary,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def registry(env):
    return MetricsRegistry(env)


class TestCounter:
    def test_labelled_series_are_independent(self, registry):
        c = registry.counter("jobs_total")
        c.inc(site="RM1")
        c.inc(2, site="RM2")
        assert c.value(site="RM1") == 1
        assert c.value(site="RM2") == 2
        assert c.value(site="RM3") == 0
        assert c.total() == 3

    def test_label_order_is_irrelevant(self, registry):
        c = registry.counter("x")
        c.inc(a=1, b=2)
        assert c.value(b=2, a=1) == 1

    def test_counters_cannot_decrease(self, registry):
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        g.inc()
        g.inc()
        g.dec()
        assert g.value() == 1

    def test_high_water_survives_drain(self, registry):
        g = registry.gauge("occupancy")
        for _ in range(5):
            g.inc()
        for _ in range(5):
            g.dec()
        assert g.value() == 0
        assert g.high_water() == 5


class TestHistogram:
    def test_bucketing_and_quantiles(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.05, 0.5, 0.5, 0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count() == 8
        assert h.sum() == pytest.approx(556.6)
        # Ranks: p25 falls in the 0.1 bucket, p50 in the 1.0 bucket.
        assert h.quantile(0.25) == 0.1
        assert h.quantile(0.50) == 1.0
        # Beyond the last finite bucket the recorded max is returned.
        assert h.quantile(1.0) == 500.0

    def test_empty_quantile_is_zero(self, registry):
        assert registry.histogram("lat").quantile(0.5) == 0.0

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 0.5))

    def test_snapshot_has_cumulative_buckets(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(99.0)
        (series,) = h.snapshot()["values"]
        assert [b["count"] for b in series["buckets"]] == [1, 2, 3]
        assert series["buckets"][-1]["le"] == "+Inf"


class TestHistogramSummary:
    def _value(self, registry, observations, buckets=(0.1, 1.0, 10.0)):
        h = registry.histogram("lat", buckets=buckets)
        for v in observations:
            h.observe(v)
        (value,) = h.snapshot()["values"]
        return value

    def test_default_quantiles(self, registry):
        summary = histogram_summary(
            self._value(registry, (0.05, 0.5, 0.5, 5.0))
        )
        assert sorted(summary) == ["p50", "p90", "p99"]
        assert summary["p50"] == 1.0
        assert summary["p90"] == 10.0
        assert summary["p99"] == 10.0

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
        assert summary == {"p25": 0.1}

    def test_default_quantile_constant(self):
        assert SUMMARY_QUANTILES == (0.5, 0.9, 0.99)


class TestWindowedRate:
    def test_rate_over_simulated_window(self, env, registry):
        r = registry.rate("sends", window=10.0)

        def proc(env):
            for _ in range(20):
                r.tick()
                yield env.timeout(1.0)

        env.run(env.process(proc(env)))
        # At t=20 the window [10, 20] holds the ticks at t=11..19 plus
        # pruning of the boundary tick at t=10.
        assert r.rate() == pytest.approx(0.9)

    def test_zero_without_events(self, registry):
        assert registry.rate("quiet").rate() == 0.0

    def test_window_must_be_positive(self, env):
        with pytest.raises(ValueError):
            WindowedRate("bad", env, window=0.0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_type_mismatch_is_an_error(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_deterministic(self, env):
        def build(registry):
            registry.counter("b").inc(site="RM2")
            registry.counter("a").inc()
            registry.histogram("h").observe(0.01)
            registry.gauge("g").set(3)
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
        assert registry.names() == ["a", "z"]


class TestNullRegistry:
    def test_every_instrument_is_inert(self):
        null = NullMetricsRegistry()
        null.counter("x").inc(site="RM1")
        null.gauge("x").set(5)
        null.histogram("x").observe(1.0)
        null.rate("x").tick()
        assert null.counter("x").value() == 0.0
        assert null.histogram("x").quantile(0.5) == 0.0
        assert null.snapshot() == {"time": 0.0, "metrics": {}}
        assert null.names() == []

    def test_shared_singleton(self):
        assert NULL_METRICS.counter("anything") is NULL_METRICS.gauge("other")

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        # Counter/Gauge classes usable standalone too.
        c = Counter("standalone")
        c.inc()
        assert c.total() == 1
        g = Gauge("standalone")
        g.set(2)
        assert g.high_water() == 2


class _Clock:
    def __init__(self):
        self.now = 0.0


#: A small label alphabet: unlabelled, one label, two labels in either
#: spelling order (the same series), a non-string value.
LABEL_SETS = (
    {},
    {"site": "RM1"},
    {"site": "RM2"},
    {"site": "RM1", "kind": "x"},
    {"kind": "x", "site": "RM1"},
    {"rank": 3},
)

#: (accessor, write method, takes an amount) for every labelled writer.
WRITES = (
    ("counter", "inc", True),
    ("gauge", "set", True),
    ("gauge", "inc", True),
    ("gauge", "dec", True),
    ("histogram", "observe", True),
    ("rate", "tick", False),
)

_steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(WRITES),
            st.sampled_from(("a", "b")),
            st.integers(0, len(LABEL_SETS) - 1),
            st.sampled_from((0.0, 0.0004, 0.5, 1.0, 3.0, 1000.0)),
        ),
        st.floats(0.0, 7.0).map(lambda dt: ("advance", dt)),
    ),
    max_size=40,
)


class TestBoundSeries:
    @settings(max_examples=150, deadline=None)
    @given(steps=_steps, bind_first=st.booleans())
    def test_handles_and_kwargs_writers_export_the_same(self, steps, bind_first):
        """Bound handles against one registry, kwargs against another."""
        clock = _Clock()
        bound, labelled = MetricsRegistry(clock), MetricsRegistry(clock)
        handles = {}

        def handle(accessor, name, index):
            key = (accessor, name, index)
            if key not in handles:
                handles[key] = bound.bind(
                    accessor, f"{accessor}.{name}", **LABEL_SETS[index]
                )
            return handles[key]

        if bind_first:
            # Constructor style: every series bound before any write.
            for accessor in ("counter", "gauge", "histogram", "rate"):
                for name in ("a", "b"):
                    for index in range(len(LABEL_SETS)):
                        handle(accessor, name, index)
        for step in steps:
            if step[0] == "advance":
                clock.now += step[1]
            else:
                (accessor, method, takes_amount), name, index, amount = step
                args = (amount,) if takes_amount else ()
                getattr(handle(accessor, name, index), method)(*args)
                instrument = getattr(labelled, accessor)(f"{accessor}.{name}")
                getattr(instrument, method)(*args, **LABEL_SETS[index])
            assert bound.names() == labelled.names()
            assert json.dumps(bound.snapshot(), sort_keys=True) == json.dumps(
                labelled.snapshot(), sort_keys=True
            )

    def test_unwritten_handle_leaves_the_registry_untouched(self, registry):
        registry.counter("declared")
        names, snapshot = registry.names(), registry.snapshot()
        handles = [
            registry.bind("counter", "c", site="RM1"),
            registry.bind("gauge", "g", site="RM1"),
            registry.bind("histogram", "h", site="RM1"),
            registry.bind("rate", "r", site="RM1"),
            # With the instrument in hand: no series before a write.
            registry.counter("declared").bind(site="RM1"),
        ]
        assert registry.names() == names == ["declared"]
        assert registry.snapshot() == snapshot
        # Instrument and series arrive together, with the first write.
        handles[0].inc()
        assert registry.names() == ["c", "declared"]
        assert registry.snapshot()["metrics"]["c"]["values"] == [
            {"labels": {"site": "RM1"}, "value": 1.0}
        ]

    def test_bind_passes_the_accessor_arguments(self, registry):
        registry.bind("counter", "c", "what it counts").inc()
        assert registry.counter("c").help == "what it counts"
        registry.bind("histogram", "h", "", (1.0, 2.0)).observe(1.5)
        assert registry.histogram("h").buckets == (1.0, 2.0)
        with pytest.raises(KeyError):
            registry.bind("summary", "s")

    def test_type_mismatch_surfaces_at_the_first_write(self, registry):
        registry.counter("x")
        handle = registry.bind("gauge", "x")
        with pytest.raises(TypeError):
            handle.set(1)

    def test_two_handles_share_one_series(self, registry):
        first = registry.bind("histogram", "h", site="RM1")
        second = registry.histogram("h").bind(site="RM1")
        first.observe(0.1)
        second.observe(0.2)
        assert registry.histogram("h").count(site="RM1") == 2
        first, second = registry.bind("rate", "r"), registry.bind("rate", "r")
        first.tick()
        second.tick()
        assert registry.rate("r").snapshot()["values"][0]["total"] == 2

    def test_bound_counter_cannot_decrease(self, registry):
        handle = registry.counter("x").bind()
        with pytest.raises(ValueError, match="'x' cannot decrease"):
            handle.inc(-1)
        assert registry.counter("x").total() == 0

    def test_null_instrument_binds_to_itself(self):
        null = NULL_METRICS.counter("x")
        handle = null.bind(k="v")
        assert handle is null
        assert NULL_METRICS.bind("counter", "x", k="v") is null
        handle.inc()
        handle.observe(1.0)
        handle.tick()
        assert NULL_METRICS.snapshot() == {"time": 0.0, "metrics": {}}
