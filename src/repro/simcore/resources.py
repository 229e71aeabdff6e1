"""The mailbox primitive: :class:`Store`, a FIFO of distinct Python
objects with blocking, optionally filtered ``get``.

Every bound network endpoint owns one.  All requests are events, so
processes simply ``yield store.get()``; a ``get`` may carry a timeout
(it then fires with :data:`TIMED_OUT`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.simcore.events import NORMAL, PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment


#: What a ``get(timeout=...)`` fires with when its deadline passes first.
TIMED_OUT = object()


class StoreGet(Event):
    """Pending ``get`` against a :class:`Store`, optionally filtered."""

    __slots__ = ("resource", "filter", "deadline")

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]]) -> None:
        # One per receive: the slots are set here rather than through
        # Event.__init__.
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.cancelled = False
        self.resource = store
        self.filter = filter
        #: The armed :class:`_Deadline` of a timed get still waiting.
        self.deadline: Optional[_Deadline] = None


class _Deadline(Event):
    """Kernel timer of a timed ``get``: on expiry the request fires with
    :data:`TIMED_OUT`.  It loses every tie — scheduled after NORMAL, as
    ``run(until=)``'s stop event is — so an item put in its own instant
    is still received.  Whichever side decides unlinks request and
    deadline, so neither is left to the cycle collector.  No caller
    ever waits on one, so every deadline shares one callbacks tuple.
    """

    __slots__ = ("request",)

    def __init__(self, request: StoreGet, delay: float) -> None:
        self.env = env = request.env
        self.callbacks = _EXPIRE  # type: ignore[assignment]  # never appended to
        self._value = None
        self._ok = True
        self._defused = False
        self.cancelled = False
        self.request: Optional[StoreGet] = request
        env.schedule(self, NORMAL + 1, delay)


def _expire(deadline: Event) -> None:
    assert isinstance(deadline, _Deadline) and deadline.request is not None
    request = deadline.request
    request.resource._withdraw(request)
    request.succeed(TIMED_OUT)


#: The callbacks of every :class:`_Deadline`.
_EXPIRE = (_expire,)


def _retire(request: StoreGet) -> None:
    """Unlink a decided request from its deadline; the kernel discards that."""
    deadline = request.deadline
    if deadline is not None:
        request.deadline = deadline.request = None
        deadline.cancelled = True


class Store:
    """FIFO of distinct items with blocking ``get``.

    ``get(filter=...)`` retrieves the first item matching the predicate,
    which lets one mailbox demultiplex several message kinds (the RPC
    layer matches replies by request id this way).  A filter must be a
    pure function of the item.

    Between calls no queued waiter accepts any queued item: ``put``
    and ``get`` each restore that before returning, and withdrawing a
    waiter cannot break it.  So a new item can only be wanted by the
    waiters already queued, and a new request can only want the items
    already queued — neither has to rescan the other side against
    itself (DESIGN.md §7).

    Items and waiters are plain lists: a mailbox receives a message or
    two in its life and never holds more than a few hundred, so an
    empty deque's preallocated block would outweigh every ``pop(0)``
    it saves (DESIGN.md §7, "A mailbox is two lists").
    """

    __slots__ = ("env", "items", "_waiters")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: list[Any] = []
        self._waiters: list[StoreGet] = []

    def put(self, item: Any) -> None:
        """Add an item (never blocks; a store is unbounded).

        The first waiter in FIFO order that accepts the item gets it;
        it is queued only if none does.
        """
        waiters = self._waiters
        # Indexed by hand: most mailboxes hold one waiter or none, and
        # there an enumerate object per put costs more than the scan.
        idx = 0
        for request in waiters:
            accepts = request.filter
            if accepts is None or accepts(item):
                del waiters[idx]
                # _retire and Event.succeed, inline: this runs once per
                # delivered message, and a queued request is pending.
                deadline = request.deadline
                if deadline is not None:
                    request.deadline = deadline.request = None
                    deadline.cancelled = True
                request._value = item
                self.env.schedule(request, NORMAL, 0.0)
                return
            idx += 1
        self.items.append(item)

    def get(
        self,
        filter: Optional[Callable[[Any], bool]] = None,
        timeout: Optional[float] = None,
    ) -> StoreGet:
        """Event that fires with the next (matching) item, or with
        :data:`TIMED_OUT` if none arrives within ``timeout`` seconds."""
        request = StoreGet(self, filter)
        if not (self.items and self._try_grant(request)):
            if timeout is not None:
                request.deadline = _Deadline(request, timeout)
            self._waiters.append(request)
        return request

    def _withdraw(self, request: StoreGet) -> None:
        """Drop a waiter that expired or whose process stopped waiting
        (its deadline is armed only while it waits)."""
        self._waiters.remove(request)
        _retire(request)

    def withdraw_waiters(self) -> None:
        """Drop every queued ``get``; none of them will ever fire."""
        waiters, self._waiters = self._waiters, []
        for request in waiters:
            _retire(request)

    def _try_grant(self, request: StoreGet) -> bool:
        """Hand ``request`` the first queued item it accepts, if any."""
        items = self.items
        accepts = request.filter
        if accepts is None:
            if not items:
                return False
            item = items.pop(0)
        else:
            for idx, item in enumerate(items):
                if accepts(item):
                    del items[idx]
                    break
            else:
                return False
        # Event.succeed, inline: the request ``get`` just made is pending.
        request._value = item
        self.env.schedule(request, NORMAL, 0.0)
        return True

    def __len__(self) -> int:
        return len(self.items)
