"""Shared-resource primitives: Resource, Container, Store.

These are the queueing building blocks the local schedulers and network
mailboxes are made of:

* :class:`Resource` — ``capacity`` identical slots with a FIFO wait
  queue (used to model e.g. a gatekeeper that serves one authentication
  at a time).
* :class:`Container` — a homogeneous bulk quantity (used to model the
  free-node pool of a space-shared machine).
* :class:`Store` — a FIFO of distinct Python objects (used as message
  mailboxes and job queues).

All requests are events, so processes simply ``yield store.get()``; a
store ``get`` may carry a timeout (it then fires with :data:`TIMED_OUT`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from repro.errors import SimulationError
from repro.simcore.events import NORMAL, PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment


class BaseRequest(Event):
    """An event representing a pending request against a resource."""

    __slots__ = ("resource",)

    def __init__(self, resource: "_BaseResource") -> None:
        super().__init__(resource.env)
        self.resource = resource


class _BaseResource:
    """Common queue bookkeeping for all resource types."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._waiters: Deque[BaseRequest] = deque()

    def _withdraw(self, request: BaseRequest) -> None:
        try:
            self._waiters.remove(request)
        except ValueError:
            pass

    def _wake(self) -> None:
        """Grant as many queued requests as currently possible (FIFO)."""
        waiters = self._waiters
        while waiters:
            request = waiters[0]
            if not self._try_grant(request):
                break
            waiters.popleft()

    def _try_grant(self, request: BaseRequest) -> bool:  # pragma: no cover
        raise NotImplementedError


class Resource(_BaseResource):
    """``capacity`` identical slots with FIFO queueing."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity!r}")
        super().__init__(env)
        self.capacity = int(capacity)
        self.in_use = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def request(self) -> BaseRequest:
        """Event that fires when a slot is acquired."""
        req = BaseRequest(self)
        self._waiters.append(req)
        self._wake()
        return req

    def release(self) -> None:
        """Return one slot to the pool."""
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request")
        self.in_use -= 1
        self._wake()

    def _try_grant(self, request: BaseRequest) -> bool:
        if self.in_use < self.capacity:
            self.in_use += 1
            request.succeed()
            return True
        return False


class ContainerGet(BaseRequest):
    """Pending ``get`` of a quantity from a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        super().__init__(container)
        self.amount = amount


class Container(_BaseResource):
    """A bulk quantity with blocking ``get`` and immediate ``put``."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if init < 0 or init > capacity:
            raise SimulationError(f"init={init!r} outside [0, {capacity!r}]")
        super().__init__(env)
        self.capacity = capacity
        self.level = init

    def get(self, amount: float) -> BaseRequest:
        """Event that fires once ``amount`` units have been withdrawn."""
        if amount < 0:
            raise SimulationError(f"negative amount {amount!r}")
        req = ContainerGet(self, amount)
        self._waiters.append(req)
        self._wake()
        return req

    def put(self, amount: float) -> None:
        """Deposit ``amount`` units (never blocks; overflow is an error)."""
        if amount < 0:
            raise SimulationError(f"negative amount {amount!r}")
        if self.level + amount > self.capacity:
            raise SimulationError("container overflow")
        self.level += amount
        self._wake()

    def _try_grant(self, request: BaseRequest) -> bool:
        assert isinstance(request, ContainerGet)
        amount = request.amount
        if self.level >= amount:
            self.level -= amount
            request.succeed(amount)
            return True
        return False


#: What a ``get(timeout=...)`` fires with when its deadline passes first.
TIMED_OUT = object()


class StoreGet(BaseRequest):
    """Pending ``get`` against a :class:`Store`, optionally filtered."""

    __slots__ = ("filter", "deadline")

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]]) -> None:
        # One per receive: the slots are set here rather than through
        # the chained BaseRequest/Event initialisers.
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
    deadline, so neither is left to the cycle collector.
    """

    __slots__ = ("request",)

    def __init__(self, request: StoreGet, delay: float) -> None:
        self.env = env = request.env
        self.callbacks = [_expire]
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


def _retire(request: StoreGet) -> None:
    """Unlink a decided request from its deadline; the kernel discards that."""
    deadline = request.deadline
    if deadline is not None:
        request.deadline = deadline.request = None
        deadline.cancelled = True


class Store(_BaseResource):
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
    itself (DESIGN.md §7).  :meth:`_wake` is therefore unused here.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        super().__init__(env)
        self.capacity = capacity
        self.items: Deque[Any] = deque()

    def put(self, item: Any) -> None:
        """Add an item (never blocks; overflow is an error).

        The first waiter in FIFO order that accepts the item gets it;
        it is queued only if none does.
        """
        items = self.items
        if len(items) >= self.capacity:
            raise SimulationError("store overflow")
        waiters = self._waiters
        for idx, request in enumerate(waiters):
            accepts = request.filter
            if accepts is None or accepts(item):
                del waiters[idx]
                _retire(request)
                request.succeed(item)
                return
        items.append(item)

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

    def _withdraw(self, request: BaseRequest) -> None:
        assert isinstance(request, StoreGet)
        super()._withdraw(request)
        _retire(request)

    def _try_grant(self, request: StoreGet) -> bool:  # type: ignore[override]
        """Hand ``request`` the first queued item it accepts, if any."""
        items = self.items
        accepts = request.filter
        if accepts is None:
            if items:
                request.succeed(items.popleft())
                return True
            return False
        for idx, item in enumerate(items):
            if accepts(item):
                del items[idx]
                request.succeed(item)
                return True
        return False

    def __len__(self) -> int:
        return len(self.items)
