"""Vector clocks for the happens-before relation.

A :class:`VClock` is an immutable mapping ``node -> count``.  The
recorder maintains one clock per locus of control and ticks it on every
observed event; message sends stamp the sender's clock onto the message
and deliveries merge it into the receiver's.  With per-event ticks the
standard result holds: event *a* happens-before event *b* iff
``a.clock <= b.clock`` (componentwise) and the clocks differ.
"""

from __future__ import annotations

from typing import Iterator, Mapping


class VClock(Mapping[str, int]):
    """An immutable vector clock."""

    __slots__ = ("_clock",)

    def __init__(self, clock: Mapping[str, int] | None = None) -> None:
        self._clock: dict[str, int] = dict(clock) if clock else {}

    # -- construction ------------------------------------------------------
    #
    # Each builds its result with one copy, in ``__init__``, and fills
    # it in before anyone else can see it.

    def tick(self, node: str) -> "VClock":
        """A new clock with ``node``'s component advanced by one."""
        out = VClock(self._clock)
        out._clock[node] = out._clock.get(node, 0) + 1
        return out

    def merge(self, other: Mapping[str, int] | None) -> "VClock":
        """Componentwise maximum of the two clocks."""
        if other is None:
            return self
        out = VClock(self._clock)
        out._absorb(other)
        return out

    def merge_tick(self, other: Mapping[str, int] | None, node: str) -> "VClock":
        """``merge(other).tick(node)`` — a delivery — in one allocation."""
        out = VClock(self._clock)
        if other is not None:
            out._absorb(other)
        out._clock[node] = out._clock.get(node, 0) + 1
        return out

    def _absorb(self, other: Mapping[str, int]) -> None:
        clock = self._clock
        for node, count in (other._clock if isinstance(other, VClock) else other).items():
            if count > clock.get(node, 0):
                clock[node] = count

    # -- comparison --------------------------------------------------------

    def leq(self, other: "VClock") -> bool:
        """True iff every component of self is <= the other clock's."""
        return all(
            count <= other._clock.get(node, 0)
            for node, count in self._clock.items()
        )

    def happens_before(self, other: "VClock") -> bool:
        """Strictly-before: leq and not equal."""
        return self.leq(other) and self._clock != other._clock

    def concurrent(self, other: "VClock") -> bool:
        """Neither clock precedes the other."""
        return not self.leq(other) and not other.leq(self)

    # -- mapping protocol ---------------------------------------------------
    #
    # A component never advanced reads 0, so ``get`` never falls back to
    # its default; ``in``, ``len`` and iteration see the advanced ones.

    def __getitem__(self, node: str) -> int:
        return self._clock.get(node, 0)

    def __contains__(self, node: object) -> bool:
        return node in self._clock

    def __iter__(self) -> Iterator[str]:
        return iter(self._clock)

    def __len__(self) -> int:
        return len(self._clock)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VClock):
            return NotImplemented
        return self._clock == other._clock

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._clock.items())))

    def as_dict(self) -> dict[str, int]:
        """A plain-dict snapshot (for serialization)."""
        return dict(self._clock)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{node}:{count}" for node, count in sorted(self._clock.items())
        )
        return f"<VClock {inner}>"
