"""The simulated wide-area network.

The :class:`Network` owns the set of host names, a latency model, and
per-endpoint mailboxes.  ``send()`` schedules delivery of a message into
the destination mailbox after the modeled one-way latency; delivery is
reliable and ordered per (src, dst) pair unless a fault (partition,
drop rule, dead host) intervenes.

The paper's microbenchmarks were run between two machines "on a lightly
loaded network with a latency ... of about 2 msec", which is the default
uniform latency here.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.errors import HostDown, NetworkError, SimulationError
from repro.net.address import Endpoint
from repro.net.message import Message
from repro.simcore.events import NORMAL
from repro.simcore.metrics import NULL_METRICS
from repro.simcore.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment
    from repro.simcore.metrics import MetricsRegistry


#: Default one-way latency between distinct hosts (paper: ~2 ms).
DEFAULT_LATENCY = 0.002

#: Latency for host-local delivery (loopback).
LOCAL_LATENCY = 1e-5

#: Why a message is lost: a drop rule matched at send, the destination
#: was down or partitioned away at delivery, or nothing is bound there.
DROP_REASONS = ("rule", "unreachable", "unbound")


class LatencyModel:
    """Pairwise one-way latency.

    ``base`` applies between distinct hosts unless a per-pair override
    is installed (:class:`repro.faults.SlowLink` installs one for the
    length of its window); loopback takes :data:`LOCAL_LATENCY`.
    """

    def __init__(self, base: float = DEFAULT_LATENCY) -> None:
        if not base >= 0:  # also refuses NaN
            raise SimulationError(f"base must be >= 0, got {base!r}")
        self.base = float(base)
        self._overrides: dict[tuple[str, str], float] = {}

    def set_latency(self, host_a: str, host_b: str, latency: float) -> None:
        """Install a symmetric per-pair latency override."""
        if not latency >= 0:  # also refuses NaN
            raise SimulationError(f"negative latency {latency!r}")
        latency = float(latency)
        self._overrides[(host_a, host_b)] = latency
        self._overrides[(host_b, host_a)] = latency

    def pair_latency(self, host_a: str, host_b: str) -> Optional[float]:
        """The current override for a pair, if any (None = base latency)."""
        return self._overrides.get((host_a, host_b))

    def clear_latency(self, host_a: str, host_b: str) -> None:
        """Remove a pair's override, restoring the base latency."""
        self._overrides.pop((host_a, host_b), None)
        self._overrides.pop((host_b, host_a), None)

    def latency(self, src: str, dst: str) -> float:
        """One-way delay for a message from src to dst."""
        if src == dst:
            return LOCAL_LATENCY
        # Runs once per message: no pair probe without an override.
        overrides = self._overrides
        return overrides.get((src, dst), self.base) if overrides else self.base


class KindSeries:
    """Every series labelled with one message kind, resolved once.

    ``send``/``_deliver`` write the first two per message and
    :func:`repro.net.rpc.call` the rest per call; a kind that is never
    an RPC never asks for the ``rpc.*`` instruments.
    """

    __slots__ = ("sent", "delivered", "rpc_calls", "rpc_timeouts", "rpc_latency")

    def __init__(self, metrics: "MetricsRegistry", kind: str) -> None:
        self.sent = metrics.bind("counter", "net.messages_sent_total", kind=kind)
        self.delivered = metrics.bind("counter", "net.messages_delivered_total", kind=kind)
        self.rpc_calls = metrics.bind("counter", "rpc.calls_total", kind=kind)
        self.rpc_timeouts = metrics.bind("counter", "rpc.timeouts_total", kind=kind)
        self.rpc_latency = metrics.bind("histogram", "rpc.latency_seconds", kind=kind)


def _deliver(message: Message) -> None:
    """The message reaches its mailbox, or is dropped.

    Reachability is evaluated at delivery time so that a partition or
    crash occurring mid-flight loses the message.  This is the only
    delivery: the kernel calls it when the message's own event comes
    due, and :meth:`Network._deliver_message` calls it at once.  The
    message lets go of its network first, so one that was delivered,
    dropped or left in a mailbox forms no reference cycle.
    """
    network: Network = message.network  # type: ignore[assignment]  # set by send
    message.network = None
    if (network._down or network._partitions) and not network._reachable(
        message.src.host, message.dst.host
    ):
        network._drop(message, "unreachable")
        return
    box = network._mailboxes.get(message.dst)
    if box is None:
        network._drop(message, "unbound")
        return
    env = network.env
    message.delivered_at = now = env._now
    network.delivered_count += 1
    if network.metrics is not NULL_METRICS:
        series = network._m_kinds.get(message.kind)
        if series is None:
            series = network.kind_series(message.kind)
        series.delivered.inc()
        if message.sent_at is not None:
            network._m_latency.observe(now - message.sent_at)
    probe = env.probe
    if probe is not None:
        probe.on_deliver(message)
    box.put(message)


#: The callbacks of every message in flight.
_DELIVER = (_deliver,)


class Network:
    """Hosts, mailboxes, and message delivery.

    Every ``send()`` schedules the message itself as a kernel event:
    exactly one event per in-flight message.
    """

    def __init__(
        self,
        env: "Environment",
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        self.env = env
        self.latency_model = latency_model or LatencyModel()
        #: The run's registry, read once: ``send()`` runs per message.
        self.metrics = metrics = env.tracer.metrics
        #: Series bound once, written per message (a handle asks for its
        #: instrument on its first write); per kind, at first sight.
        self._m_kinds: dict[str, KindSeries] = {}
        self._m_send_rate = metrics.bind("rate", "net.send_rate")
        self._m_latency = metrics.bind("histogram", "net.delivery_latency_seconds")
        self._m_dropped = {
            reason: metrics.bind("counter", "net.messages_dropped_total", reason=reason)
            for reason in DROP_REASONS
        }
        self._hosts: set[str] = set()
        self._down: set[str] = set()
        self._mailboxes: dict[Endpoint, Store] = {}
        #: Partition groups: messages cross groups only if allowed.
        self._partitions: dict[str, int] = {}
        #: Drop rules: callables deciding whether to drop a message.
        self._drop_rules: list[Callable[[Message], bool]] = []
        #: Per-world numbering of messages (:meth:`send`), ephemeral
        #: reply ports (:func:`repro.net.transport.ephemeral_endpoint`),
        #: GSI sessions (:mod:`repro.gsi.auth`), GRAM submissions
        #: (:meth:`repro.gram.client.GramClient.submit`), process ids
        #: (:meth:`repro.machine.host.Machine.spawn`) and co-allocation
        #: slots (:meth:`repro.core.coallocator.DurocJob.add`): a run
        #: names them alike whatever ran earlier in its process.
        self.msg_ids = itertools.count(1)
        self.port_ids = itertools.count(1)
        self.session_ids = itertools.count(1)
        self.submission_ids = itertools.count(1)
        self.pids = itertools.count(1000)
        self.slot_ids = itertools.count(1)
        #: Counters for observability.
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0

    # -- topology ------------------------------------------------------------

    def add_host(self, name: str) -> None:
        """Register a host name (idempotent)."""
        # Topology-bounded: one entry per machine in the grid, and
        # crash/partition faults mark hosts down rather than remove
        # them.
        self._hosts.add(name)

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    @property
    def hosts(self) -> frozenset[str]:
        return frozenset(self._hosts)

    def _require_host(self, name: str) -> None:
        if name not in self._hosts:
            raise NetworkError(f"unknown host {name!r}")

    # -- host liveness ---------------------------------------------------------

    def host_up(self, name: str) -> bool:
        return name in self._hosts and name not in self._down

    def crash_host(self, name: str) -> None:
        """Mark a host dead: its mailboxes stop receiving messages."""
        self._require_host(name)
        self._down.add(name)

    def restore_host(self, name: str) -> None:
        self._require_host(name)
        self._down.discard(name)

    # -- partitions & drops -------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split hosts into isolated groups (unlisted hosts stay in group 0)."""
        self._partitions.clear()
        for gid, group in enumerate(groups, start=1):
            for host in group:
                self._require_host(host)
                self._partitions[host] = gid

    def heal_partition(self) -> None:
        self._partitions.clear()

    def add_drop_rule(self, rule: Callable[[Message], bool]) -> Callable[[Message], bool]:
        """Register a predicate; messages for which it returns True are lost."""
        self._drop_rules.append(rule)
        return rule

    def remove_drop_rule(self, rule: Callable[[Message], bool]) -> None:
        self._drop_rules.remove(rule)

    def _reachable(self, src: str, dst: str) -> bool:
        if dst in self._down:
            return False
        if not self._partitions or src == dst:
            return True
        return self._partitions.get(src, 0) == self._partitions.get(dst, 0)

    # -- endpoints ---------------------------------------------------------

    def bind(self, endpoint: Endpoint) -> Store:
        """Create (or return) the mailbox for an endpoint."""
        self._require_host(endpoint.host)
        box = self._mailboxes.get(endpoint)
        if box is None:
            box = Store(self.env)
            self._mailboxes[endpoint] = box
        return box

    def unbind(self, endpoint: Endpoint) -> None:
        """Drop an endpoint's mailbox (idempotent).

        Messages already in flight to it are counted as drops on
        arrival ("unbound"), exactly as if it had never been bound —
        call it when a per-request reply port is done so a long-running
        service does not retain one mailbox per request ever served.
        """
        self._mailboxes.pop(endpoint, None)

    def close(self) -> None:
        """Unbind every mailbox, withdrawing the receives queued there
        (see :meth:`repro.gridenv.Grid.close`)."""
        for box in self._mailboxes.values():
            box.withdraw_waiters()
        self._mailboxes.clear()

    def mailbox(self, endpoint: Endpoint) -> Store:
        """The mailbox for a bound endpoint (error if unbound)."""
        try:
            return self._mailboxes[endpoint]
        except KeyError:
            raise NetworkError(f"endpoint {endpoint} is not bound") from None

    def is_bound(self, endpoint: Endpoint) -> bool:
        return endpoint in self._mailboxes

    # -- delivery ------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Asynchronously deliver ``message`` after the modeled latency.

        Sending from a dead host raises :class:`HostDown` (the sender
        cannot act); sending *to* a dead/partitioned/unbound endpoint
        silently loses the message, exactly as a real datagram would.
        Reliability on top of this (timeouts, retries) is the RPC
        layer's job.  A message still in flight is its own pending
        kernel event, so sending it again raises :class:`NetworkError`.
        """
        if message.callbacks is not None:
            raise NetworkError(f"{message!r} is already in flight")
        # A slot call: unlike ``next()``, no builtin call per message.
        message.msg_id = self.msg_ids.__next__()
        src_host = message.src.host
        dst_host = message.dst.host
        hosts = self._hosts
        if src_host not in hosts or dst_host not in hosts:
            unknown = src_host if src_host not in hosts else dst_host
            raise NetworkError(f"unknown host {unknown!r}")
        down = self._down
        if down and src_host in down:
            raise HostDown(f"source host {src_host!r} is down")

        env = self.env
        self.sent_count += 1
        message.sent_at = env._now
        # Unobserved runs (NULL_METRICS, no probe) make no metering
        # calls: this runs once per message.
        if self.metrics is not NULL_METRICS:
            series = self._m_kinds.get(message.kind)
            if series is None:
                series = self.kind_series(message.kind)
            series.sent.inc()
            self._m_send_rate.tick()
        probe = env.probe
        if probe is not None:
            probe.on_send(message)

        if self._drop_rules and any(rule(message) for rule in self._drop_rules):
            self._drop(message, "rule")
            return

        delay = self.latency_model.latency(src_host, dst_host)
        message.network = self
        message.callbacks = _DELIVER  # never appended to
        env.schedule(message, NORMAL, delay)  # type: ignore[arg-type]  # an event in all but name

    def _deliver_message(self, message: Message) -> None:
        """Deliver ``message`` now, exactly as its own event does."""
        if message.callbacks is not None:
            raise NetworkError(f"{message!r} is already in flight")
        message.network = self
        _deliver(message)

    def kind_series(self, kind: str) -> "KindSeries":
        """The metering handles of one message kind, bound at first sight."""
        series = self._m_kinds.get(kind)
        if series is None:
            # Code-bounded: message kinds are string literals at the
            # sending sites (plus their ".reply"/".error" forms), not
            # request data.
            series = self._m_kinds[kind] = KindSeries(
                self.metrics, kind
            )
        return series

    def _drop(self, message: Message, reason: str) -> None:
        self.dropped_count += 1
        self._m_dropped[reason].inc()
        probe = self.env.probe
        if probe is not None:
            probe.on_drop(message, reason)
