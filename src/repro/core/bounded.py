"""A deterministic bounded mapping for long-lived services.

A service that never exits must not keep per-request state without a
bound: the gatekeeper's job, submission and parsed-RSL tables, the
barrier's release bases, ``Endpoint.parse``'s cache and the flight
recorder's message-id table all hold it in a :class:`BoundedDict`, a
drop-in LRU mapping whose size is bounded *by construction*, with
eviction that is a pure function of the operation sequence (never of
hash order, process layout, or wall clock), so a bounded run's
behaviour is byte-identical across machines and interpreter
invocations.  Its :attr:`~BoundedDict.high_water` keeps
the peak size, so a bound that is routinely reached shows in profiles.
"""

from __future__ import annotations

from typing import Dict, Iterator, MutableMapping, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class BoundedDict(MutableMapping[K, V]):
    """A mapping bounded to ``maxsize`` live entries, LRU-evicted.

    Reads and writes refresh recency; inserting past the bound evicts
    the least-recently-used entry.  Recency is dict insertion order, so
    iteration order is recency order (stalest first) and the eviction
    victim depends only on the sequence of operations.
    """

    __slots__ = ("maxsize", "_data", "high_water")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize!r}")
        self.maxsize = int(maxsize)
        self._data: Dict[K, V] = {}
        self.high_water = 0

    def __getitem__(self, key: K) -> V:
        data = self._data
        value = data.pop(key)
        data[key] = value
        return value

    def __setitem__(self, key: K, value: V) -> None:
        data = self._data
        data.pop(key, None)
        data[key] = value
        if len(data) > self.maxsize:
            del data[next(iter(data))]
        if len(data) > self.high_water:
            self.high_water = len(data)

    def __delitem__(self, key: K) -> None:
        del self._data[key]

    def __iter__(self) -> Iterator[K]:
        return iter(list(self._data))

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        """Membership probe: never refreshes recency."""
        return key in self._data

    def peek(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Read without refreshing recency."""
        return self._data.get(key, default)

    def __repr__(self) -> str:
        return (
            f"<BoundedDict size={len(self._data)}/{self.maxsize} "
            f"hw={self.high_water}>"
        )
