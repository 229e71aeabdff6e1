"""Deterministic simulated-time metrics.

A :class:`MetricsRegistry` hands out named instruments — counters,
gauges, histograms with fixed bucket boundaries, and windowed rates —
keyed by (name, sorted label items).  All timestamps come from the
simulated clock, never from the wall clock, so two identical runs
produce byte-identical snapshots.

Code that meters at message rate does not pay the name lookup and the
label sort per write: ``registry.bind(kind, name, **labels)`` (or
``instrument.bind(**labels)`` with the instrument in hand) computes the
label key once and returns a handle whose writes take no labels.  The
labelled writers (``inc(amount, **labels)``, …) are ``bind`` plus that
one write.  A handle asks for its instrument and creates its series on
its first write, not when it is bound, so binding in a constructor adds
nothing to the export of a run that never reaches the site.

This is the emit side: it imports only the standard library and sits
beside :mod:`~repro.simcore.tracing` and :mod:`~repro.simcore.probe`,
so every layer can meter itself without importing the tooling in
``repro.obs``.  Instrumented code reaches the run's registry as
``env.tracer.metrics``.  Runs that are not being measured get
:data:`NULL_METRICS`, whose instruments are shared no-op singletons.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Optional, Protocol

#: Sorted (label, value) pairs — the identity of one labeled series.
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds): spans from a fast
#: loopback RPC (~10 us) to a multi-minute queue wait.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


_NEG_INF = float("-inf")


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_dict(key: LabelKey) -> Dict[str, str]:
    return dict(key)


class _Clock(Protocol):
    now: float


class _ZeroClock:
    now = 0.0


class Counter:
    """Monotonically increasing count, one value per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def bind(self, **labels: Any) -> "BoundCounter":
        return BoundCounter(lambda: self, _label_key(labels))

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self.bind(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(self._values.values())

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "values": [
                {"labels": _label_dict(key), "value": self._values[key]}
                for key in sorted(self._values)
            ],
        }


class _Bound:
    """One labelled series: the key computed at bind, the rest on first write.

    ``resolve`` returns the instrument; it is not called before the
    first write, so a handle that is never written leaves the registry
    and the instrument exactly as it found them.  ``_target`` is what
    the writer then works on (set by that first write).
    """

    __slots__ = ("_resolve", "_key", "_target")

    def __init__(self, resolve: Callable[[], Any], key: LabelKey) -> None:
        self._resolve = resolve
        self._key = key
        self._target: Any = None


class BoundCounter(_Bound):
    """One series of a :class:`Counter`."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self._resolve().name!r} cannot decrease")
        values = self._target
        if values is None:
            values = self._target = self._resolve()._values
        key = self._key
        values[key] = values.get(key, 0.0) + amount


class Gauge:
    """Instantaneous level (queue depth, barrier occupancy, ...).

    Tracks the high-water mark per label set so snapshots capture peak
    occupancy even when the final level has drained back to zero.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}
        self._high: Dict[LabelKey, float] = {}

    def bind(self, **labels: Any) -> "BoundGauge":
        return BoundGauge(lambda: self, _label_key(labels))

    def set(self, value: float, **labels: Any) -> None:
        self.bind(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self.bind(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.bind(**labels).dec(amount)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def high_water(self, **labels: Any) -> float:
        return self._high.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "values": [
                {
                    "labels": _label_dict(key),
                    "value": self._values[key],
                    "high_water": self._high[key],
                }
                for key in sorted(self._values)
            ],
        }


class BoundGauge(_Bound):
    """One series of a :class:`Gauge`."""

    __slots__ = ()

    def _level(self) -> float:
        gauge = self._target
        if gauge is None:
            gauge = self._target = self._resolve()
        return gauge._values.get(self._key, 0.0)

    def set(self, value: float) -> None:
        gauge = self._target
        if gauge is None:
            gauge = self._target = self._resolve()
        key = self._key
        gauge._values[key] = value
        if value > gauge._high.get(key, _NEG_INF):
            gauge._high[key] = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._level() + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._level() - amount)


class _HistogramSeries:
    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram:
    """Distribution with fixed bucket upper bounds, one per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram {name!r} buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def bind(self, **labels: Any) -> "BoundHistogram":
        return BoundHistogram(lambda: self, _label_key(labels))

    def observe(self, value: float, **labels: Any) -> None:
        self.bind(**labels).observe(value)

    def count(self, **labels: Any) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: Any) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0

    def quantile(self, q: float, **labels: Any) -> float:
        """Upper bound of the bucket holding the q-quantile observation.

        Returns the recorded max for observations beyond the last
        finite bucket, and 0.0 for an empty series.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return 0.0
        rank = max(1, math.ceil(series.count * q))
        cumulative = 0
        for i, upper in enumerate(self.buckets):
            cumulative += series.counts[i]
            if cumulative >= rank:
                return upper
        return series.max

    def snapshot(self) -> dict[str, Any]:
        values = []
        for key in sorted(self._series):
            series = self._series[key]
            cumulative = 0
            bucket_counts = []
            for i, upper in enumerate(self.buckets):
                cumulative += series.counts[i]
                bucket_counts.append({"le": upper, "count": cumulative})
            bucket_counts.append({"le": "+Inf", "count": series.count})
            values.append(
                {
                    "labels": _label_dict(key),
                    "count": series.count,
                    "sum": series.sum,
                    "min": series.min if series.count else 0.0,
                    "max": series.max if series.count else 0.0,
                    "buckets": bucket_counts,
                }
            )
        return {"type": self.kind, "help": self.help, "values": values}


class BoundHistogram(_Bound):
    """One series of a :class:`Histogram`."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        series = self._target
        if series is None:
            histogram = self._resolve()
            series = histogram._series.get(self._key)
            if series is None:
                series = histogram._series[self._key] = _HistogramSeries(
                    histogram.buckets
                )
            self._target = series
        series.counts[bisect_left(series.buckets, value)] += 1
        series.count += 1
        series.sum += value
        if value < series.min:
            series.min = value
        if value > series.max:
            series.max = value


class WindowedRate:
    """Events per second over a sliding window of simulated time."""

    kind = "rate"

    def __init__(
        self,
        name: str,
        clock: _Clock,
        window: float = 10.0,
        help: str = "",
    ) -> None:
        if window <= 0:
            raise ValueError(f"rate {name!r} window must be positive")
        self.name = name
        self.help = help
        self.window = float(window)
        self._clock = clock
        self._events: Dict[LabelKey, Deque[float]] = {}
        self._totals: Dict[LabelKey, int] = {}

    def bind(self, **labels: Any) -> "BoundRate":
        return BoundRate(lambda: self, _label_key(labels))

    def tick(self, **labels: Any) -> None:
        self.bind(**labels).tick()

    def _prune(self, events: Deque[float], now: float) -> None:
        horizon = now - self.window
        while events and events[0] <= horizon:
            events.popleft()

    def rate(self, **labels: Any) -> float:
        key = _label_key(labels)
        events = self._events.get(key)
        if not events:
            return 0.0
        self._prune(events, self._clock.now)
        return len(events) / self.window

    def snapshot(self) -> dict[str, Any]:
        values = []
        for key in sorted(self._events):
            events = self._events[key]
            self._prune(events, self._clock.now)
            values.append(
                {
                    "labels": _label_dict(key),
                    "window": self.window,
                    "in_window": len(events),
                    "rate": len(events) / self.window,
                    "total": self._totals.get(key, 0),
                }
            )
        return {"type": self.kind, "help": self.help, "values": values}


class BoundRate(_Bound):
    """One series of a :class:`WindowedRate`."""

    __slots__ = ()

    def tick(self) -> None:
        rate = self._target
        if rate is None:
            rate = self._target = self._resolve()
        key = self._key
        events = rate._events.get(key)
        if events is None:
            events = rate._events[key] = deque()
        now = rate._clock.now
        events.append(now)
        rate._totals[key] = rate._totals.get(key, 0) + 1
        if events[0] <= now - rate.window:
            rate._prune(events, now)


#: Bound-series class of each registry accessor, for :meth:`MetricsRegistry.bind`.
_BOUND: Dict[str, type] = {
    "counter": BoundCounter,
    "gauge": BoundGauge,
    "histogram": BoundHistogram,
    "rate": BoundRate,
}


#: Quantiles reported in histogram summaries (text and JSON exports).
SUMMARY_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)


def histogram_summary(
    value: Dict[str, Any],
    quantiles: tuple[float, ...] = SUMMARY_QUANTILES,
) -> Dict[str, float]:
    """p50/p90/p99 (upper bucket bounds) from one snapshot value entry.

    Mirrors :meth:`Histogram.quantile` — nearest rank over the
    cumulative bucket counts, the recorded max beyond the last finite
    bucket — but works on the serialized snapshot, so exported metrics
    files can be summarized without the live registry.
    """
    count = int(value.get("count", 0))
    buckets = value.get("buckets", [])
    out: Dict[str, float] = {}
    for q in quantiles:
        key = f"p{q * 100:g}"
        if count == 0:
            out[key] = 0.0
            continue
        rank = max(1, math.ceil(count * q))
        result = float(value.get("max", 0.0))
        for bucket in buckets:
            upper = bucket.get("le")
            if upper == "+Inf":
                continue
            if int(bucket.get("count", 0)) >= rank:
                result = float(upper)
                break
        out[key] = result
    return out


Instrument = Any  # Counter | Gauge | Histogram | WindowedRate


class MetricsRegistry:
    """Named instruments against a simulated clock.

    Accessors are get-or-create: ``registry.counter("x").inc()`` works
    whether or not ``"x"`` was declared before.  Asking for an existing
    name with a different instrument type is an error — a name means
    one thing for the life of a run.
    """

    def __init__(self, clock: Optional[_Clock] = None) -> None:
        self._clock: _Clock = clock if clock is not None else _ZeroClock()
        self._instruments: Dict[str, Instrument] = {}

    @property
    def clock(self) -> _Clock:
        return self._clock

    def _get(
        self, cls: type, name: str, factory: Callable[[], Instrument]
    ) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            # Code-bounded: one entry per metric *name*, and names are
            # string literals at instrumentation sites, not request
            # data.
            instrument = self._instruments[name] = factory()
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, lambda: Histogram(name, help, buckets))

    def rate(self, name: str, window: float = 10.0, help: str = "") -> WindowedRate:
        return self._get(
            WindowedRate, name, lambda: WindowedRate(name, self._clock, window, help)
        )

    def bind(self, kind: str, name: str, /, *args: Any, **labels: Any) -> Any:
        """One series of the ``kind`` instrument ``name``, for repeated writes.

        ``registry.bind("counter", "x", site="RM1").inc()`` counts what
        ``registry.counter("x").inc(site="RM1")`` counts, but the
        accessor (``kind``: ``counter``/``gauge``/``histogram``/``rate``,
        ``args``: its ``help`` etc.) is first called by the handle's
        first write.  A component binds its series in its constructor
        and writes them per message; one it never writes is never asked
        for, so the run's export does not depend on what was merely
        built.
        """
        return _BOUND[kind](
            partial(getattr(self, kind), name, *args), _label_key(labels)
        )

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state of every instrument, stably ordered."""
        return {
            "time": self._clock.now,
            "metrics": {
                name: self._instruments[name].snapshot()
                for name in sorted(self._instruments)
            },
        }


class _NullInstrument:
    """Shared no-op stand-in for every instrument type."""

    kind = "null"
    name = "null"
    help = ""

    def bind(self, **labels: Any) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def tick(self, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def high_water(self, **labels: Any) -> float:
        return 0.0

    def count(self, **labels: Any) -> int:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0

    def quantile(self, q: float, **labels: Any) -> float:
        return 0.0

    def rate(self, **labels: Any) -> float:
        return 0.0

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "help": "", "values": []}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Registry whose instruments do nothing — for untraced hot paths."""

    def __init__(self) -> None:
        super().__init__(clock=None)

    def counter(self, name: str, help: str = "") -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def rate(self, name: str, window: float = 10.0, help: str = "") -> WindowedRate:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def bind(self, kind: str, name: str, /, *args: Any, **labels: Any) -> Any:
        return _NULL_INSTRUMENT

    def names(self) -> list[str]:
        return []

    def snapshot(self) -> dict[str, Any]:
        return {"time": 0.0, "metrics": {}}


#: Shared no-op registry; safe to call from any hot path.
NULL_METRICS = NullMetricsRegistry()
