"""Deterministic bounded collections for long-lived services.

The ``mem-*`` lints (:mod:`repro.analysis.memory_rules`) flag
per-request state that only ever grows over a service's lifetime —
dedup caches, intern tables, trace/context maps.  This module is the
sanctioned remedy: drop-in mappings and sets whose size is bounded *by
construction*, with eviction that is a pure function of the operation
sequence (never of hash order, process layout, or wall clock), so a
bounded run's behaviour is byte-identical across machines and
interpreter invocations.

* :class:`BoundedDict` — LRU mapping with an optional simulated-clock
  TTL.  Recency is tracked through dict insertion order (guaranteed,
  deterministic); the eviction victim is always the least-recently-used
  live entry.  Expiry compares stamps from the injected ``clock``
  callable — pass ``lambda: env.now`` so entries age in *simulated*
  time and a replayed run expires exactly the same keys.
* :class:`BoundedSet` — the same policy over membership only.
* :class:`RetainedCensus` — a heap census over registered collections,
  keeping the retained-object peak so the ``memory_stress`` bench and
  the CI gate can pin the high-water mark.

Both collections keep high-water and hit/miss/eviction statistics so a
bound that is routinely exceeded (evicting hot entries) is visible in
profiles rather than silently degrading.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    MutableMapping,
    MutableSet,
    Optional,
    Sized,
    TypeVar,
)

K = TypeVar("K")
V = TypeVar("V")

#: Eviction callback signature: ``on_evict(key, value, cause)`` with
#: ``cause`` one of ``"lru"`` / ``"ttl"``.
EvictHook = Callable[[Any, Any, str], None]


class BoundedDict(MutableMapping[K, V]):
    """A mapping bounded to ``maxsize`` live entries, LRU-evicted.

    Reads and writes refresh recency; inserting past the bound evicts
    the least-recently-used entry.  With ``ttl`` set (requires
    ``clock``), entries older than ``ttl`` per the injected clock are
    lazily expired on access.  Determinism contract: iteration order is
    recency order (stalest first), the eviction victim depends only on
    the sequence of operations and clock readings, and no method
    consults the process's hash seed or wall clock.
    """

    __slots__ = (
        "maxsize", "ttl", "_clock", "_on_evict", "_data", "_stamps",
        "hits", "misses", "inserts", "evictions_lru", "evictions_ttl",
        "high_water",
    )

    def __init__(
        self,
        maxsize: int,
        *,
        ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        on_evict: Optional[EvictHook] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize!r}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl!r}")
        if ttl is not None and clock is None:
            raise ValueError(
                "ttl requires an injected clock (pass clock=lambda: env.now "
                "so expiry runs on simulated time, never the wall clock)"
            )
        self.maxsize = int(maxsize)
        self.ttl = ttl
        self._clock = clock
        self._on_evict = on_evict
        self._data: Dict[K, V] = {}
        #: key -> last-refresh clock reading (TTL mode only).
        self._stamps: Dict[K, float] = {}
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions_lru = 0
        self.evictions_ttl = 0
        self.high_water = 0

    # -- expiry ------------------------------------------------------------

    def _expire(self) -> None:
        """Drop every entry older than ``ttl`` (no-op without one)."""
        if self.ttl is None or not self._data:
            return
        now = self._clock()  # type: ignore[misc]
        horizon = now - self.ttl
        # Stamps share _data's recency order, so expired entries form a
        # prefix... except that a refresh updates the stamp without
        # proof the older entries expired too; scan explicitly.
        dead = [key for key, stamp in self._stamps.items() if stamp <= horizon]
        for key in dead:
            value = self._data.pop(key)
            self._stamps.pop(key, None)
            self.evictions_ttl += 1
            if self._on_evict is not None:
                self._on_evict(key, value, "ttl")

    def _touch(self, key: K) -> None:
        """Refresh recency (and the TTL stamp) of a live key."""
        self._data[key] = self._data.pop(key)
        if self.ttl is not None:
            self._stamps[key] = self._stamps.pop(key)
            self._stamps[key] = self._clock()  # type: ignore[misc]

    # -- mapping protocol --------------------------------------------------

    def __getitem__(self, key: K) -> V:
        self._expire()
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            raise
        self.hits += 1
        self._touch(key)
        return value

    def __setitem__(self, key: K, value: V) -> None:
        self._expire()
        if key in self._data:
            del self._data[key]
        else:
            self.inserts += 1
        self._data[key] = value
        if self.ttl is not None:
            self._stamps.pop(key, None)
            self._stamps[key] = self._clock()  # type: ignore[misc]
        if len(self._data) > self.maxsize:
            victim = next(iter(self._data))
            evicted = self._data.pop(victim)
            self._stamps.pop(victim, None)
            self.evictions_lru += 1
            if self._on_evict is not None:
                self._on_evict(victim, evicted, "lru")
        if len(self._data) > self.high_water:
            self.high_water = len(self._data)

    def __delitem__(self, key: K) -> None:
        del self._data[key]
        self._stamps.pop(key, None)

    def __iter__(self) -> Iterator[K]:
        self._expire()
        return iter(list(self._data))

    def __len__(self) -> int:
        self._expire()
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        """Membership probe: lazily expires but never counts or touches."""
        self._expire()
        return key in self._data

    def peek(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Read without refreshing recency or counting a hit/miss."""
        self._expire()
        return self._data.get(key, default)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot, suitable for profiles and assertions."""
        return {
            "size": len(self._data),
            "high_water": self.high_water,
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "evictions_lru": self.evictions_lru,
            "evictions_ttl": self.evictions_ttl,
        }

    def __repr__(self) -> str:
        return (
            f"<BoundedDict size={len(self._data)}/{self.maxsize} "
            f"hw={self.high_water} evicted={self.evictions_lru}"
            f"+{self.evictions_ttl}ttl>"
        )


class BoundedSet(MutableSet[K]):
    """A set bounded to ``maxsize`` members, LRU-evicted like the dict.

    ``add`` of an existing member refreshes its recency; membership
    tests (``in``) are pure probes and do not.  Shares
    :class:`BoundedDict`'s determinism contract and statistics.
    """

    __slots__ = ("_dict",)

    def __init__(
        self,
        maxsize: int,
        *,
        ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        on_evict: Optional[EvictHook] = None,
    ) -> None:
        self._dict: BoundedDict[K, None] = BoundedDict(
            maxsize, ttl=ttl, clock=clock, on_evict=on_evict
        )

    def add(self, value: K) -> None:
        self._dict[value] = None

    def discard(self, value: K) -> None:
        self._dict.pop(value, None)

    def __contains__(self, value: object) -> bool:
        return value in self._dict

    def __iter__(self) -> Iterator[K]:
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)

    @property
    def maxsize(self) -> int:
        return self._dict.maxsize

    @property
    def high_water(self) -> int:
        return self._dict.high_water

    def stats(self) -> Dict[str, int]:
        return self._dict.stats()

    def __repr__(self) -> str:
        return f"<BoundedSet size={len(self._dict)}/{self.maxsize}>"


class RetainedCensus:
    """Retained-object census over registered collections.

    Anything with ``__len__`` registers — bounded collections and the
    plain dicts they replace alike, so a benchmark can run the same
    workload under both and compare peaks.  :meth:`observe` totals the
    live entries and keeps the peak in :attr:`high_water`
    (:class:`~repro.prof.counters.OpCounters` reads it from there).
    """

    def __init__(self) -> None:
        self._collections: list[Sized] = []
        self.high_water = 0

    def register(self, collection: Sized) -> Sized:
        """Track ``collection``; returns it, so registration chains."""
        self._collections.append(collection)
        return collection

    def register_all(self, collections: Iterable[Sized]) -> None:
        for collection in collections:
            self.register(collection)

    def retained(self) -> int:
        """Total live entries across every registered collection."""
        return sum(len(collection) for collection in self._collections)

    def observe(self) -> int:
        """Take a census; record a new peak, if one."""
        total = self.retained()
        if total > self.high_water:
            self.high_water = total
        return total

    def __repr__(self) -> str:
        return (
            f"<RetainedCensus collections={len(self._collections)} "
            f"hw={self.high_water}>"
        )
