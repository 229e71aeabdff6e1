"""Deterministic simulated-time metrics.

A :class:`MetricsRegistry` holds named instruments — counters, gauges,
histograms over :data:`DEFAULT_BUCKETS`, and rates over the last
:data:`RATE_WINDOW` seconds — each with one series per label set.  All
timestamps come from the simulated clock, never from the wall clock, so
two identical runs produce byte-identical snapshots.

A metric is written one way: ``registry.bind(kind, name, **labels)``
computes the label key once and returns a handle for that one series,
whose writers (``inc``; ``set``/``inc``/``dec``; ``observe``; ``tick``)
take no labels.  A handle asks for its instrument and creates its
series on its first write, not when it is bound, so binding in a
constructor adds nothing to the export of a run that never reaches the
site.  It is read one way: :meth:`MetricsRegistry.snapshot`, the
JSON-ready state every export writes; ``registry.counter(name).total()``
and ``registry.histogram(name).count()`` give one number each, summed
over the label sets, to a caller that reports it after the run.

This is the emit side: it imports only the standard library and sits
beside :mod:`~repro.simcore.tracing` and :mod:`~repro.simcore.probe`,
so every layer can meter itself without importing the tooling in
``repro.obs``.  Instrumented code reaches the run's registry as
``env.tracer.metrics``.  Runs that are not being measured get
:data:`NULL_METRICS`, whose handles are one shared no-op.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Optional, Protocol

#: Sorted (label, value) pairs — the identity of one labeled series.
LabelKey = tuple[tuple[str, str], ...]

#: Histogram bucket upper bounds (seconds): spans from a fast loopback
#: RPC (~10 us) to a multi-minute queue wait.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Sliding window of every rate (simulated seconds).
RATE_WINDOW = 10.0


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

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: Dict[LabelKey, float] = {}

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(self._values.values())

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": "",
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

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: Dict[LabelKey, float] = {}
        self._high: Dict[LabelKey, float] = {}

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": "",
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
    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(DEFAULT_BUCKETS) + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram:
    """Distribution over :data:`DEFAULT_BUCKETS`, one per label set."""

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def count(self) -> int:
        """Observations across all label sets."""
        return sum(series.count for series in self._series.values())

    def snapshot(self) -> dict[str, Any]:
        values = []
        for key in sorted(self._series):
            series = self._series[key]
            cumulative = 0
            bucket_counts = []
            for i, upper in enumerate(DEFAULT_BUCKETS):
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
        return {"type": self.kind, "help": "", "values": values}


class BoundHistogram(_Bound):
    """One series of a :class:`Histogram`."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        series = self._target
        if series is None:
            histogram = self._resolve()
            series = histogram._series.get(self._key)
            if series is None:
                series = histogram._series[self._key] = _HistogramSeries()
            self._target = series
        series.counts[bisect_left(DEFAULT_BUCKETS, value)] += 1
        series.count += 1
        series.sum += value
        if value < series.min:
            series.min = value
        if value > series.max:
            series.max = value


def _prune(events: Deque[float], now: float) -> None:
    horizon = now - RATE_WINDOW
    while events and events[0] <= horizon:
        events.popleft()


class WindowedRate:
    """Events per second over the last :data:`RATE_WINDOW` simulated seconds."""

    kind = "rate"

    def __init__(self, name: str, clock: _Clock) -> None:
        self.name = name
        self._clock = clock
        self._events: Dict[LabelKey, Deque[float]] = {}
        self._totals: Dict[LabelKey, int] = {}

    def snapshot(self) -> dict[str, Any]:
        values = []
        for key in sorted(self._events):
            events = self._events[key]
            _prune(events, self._clock.now)
            values.append(
                {
                    "labels": _label_dict(key),
                    "window": RATE_WINDOW,
                    "in_window": len(events),
                    "rate": len(events) / RATE_WINDOW,
                    "total": self._totals.get(key, 0),
                }
            )
        return {"type": self.kind, "help": "", "values": values}


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
        if events[0] <= now - RATE_WINDOW:
            _prune(events, now)


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

    Nearest rank over the cumulative bucket counts, the recorded max
    beyond the last finite bucket.  It reads the serialized snapshot,
    so an exported metrics file is summarized without a registry.
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

    Accessors are get-or-create.  Asking for an existing name with a
    different instrument type is an error — a name means one thing for
    the life of a run.
    """

    def __init__(self, clock: Optional[_Clock] = None) -> None:
        self._clock: _Clock = clock if clock is not None else _ZeroClock()
        self._instruments: Dict[str, Instrument] = {}

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

    def counter(self, name: str) -> Counter:
        return self._get(Counter, name, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(Gauge, name, lambda: Gauge(name))

    def histogram(self, name: str) -> Histogram:
        return self._get(Histogram, name, lambda: Histogram(name))

    def rate(self, name: str) -> WindowedRate:
        return self._get(WindowedRate, name, lambda: WindowedRate(name, self._clock))

    def bind(self, kind: str, name: str, /, **labels: Any) -> Any:
        """One series of the ``kind`` instrument ``name``, for repeated writes.

        ``kind`` is ``counter``/``gauge``/``histogram``/``rate``; the
        accessor of that name is first called by the handle's first
        write.  A component binds its series in its constructor and
        writes them per message; one it never writes is never asked
        for, so the run's export does not depend on what was merely
        built.
        """
        return _BOUND[kind](partial(getattr(self, kind), name), _label_key(labels))

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
    """Shared no-op stand-in for every instrument and every handle."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def tick(self) -> None:
        pass

    def total(self) -> float:
        return 0.0

    def count(self) -> int:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Registry whose instruments do nothing — for untraced hot paths.

    It never stores an instrument, so its snapshot is always empty.
    """

    def _get(
        self, cls: type, name: str, factory: Callable[[], Instrument]
    ) -> Instrument:
        return _NULL_INSTRUMENT

    def bind(self, kind: str, name: str, /, **labels: Any) -> Any:
        return _NULL_INSTRUMENT


#: Shared no-op registry; safe to call from any hot path.
NULL_METRICS = NullMetricsRegistry()
